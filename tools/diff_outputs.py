"""Check that the working tree produces the same outputs as a git revision.

    python3 tools/diff_outputs.py REF

extracts ``git archive REF`` to a temporary directory and runs the same
command set on that tree and on the working tree, each in a fresh work
directory with its own copy of ``configs/`` and of
``bench/cs_large.ini``: gen-data, solve on the 1-D probe, compare on the
three shipped comparison configs (whose references run past
``max_iters``), on the 1-D probe (the box with n = 1) and on
``bench/cs_large.ini`` at seed 0 (whose reference is the averaged run
itself), sweep on the shipped logistic config at its own seed and at
``--seed 3``, both flows, and diag: on the six traces the shipped
compares write with the default window, on the fw trace of
``cs_compare`` with the explicit window 100..4999 (the benchmark's
desk_small diag), on the box trace of the 1-D solve, and on both flow
traces. Output files, stdout, stderr and exit codes are compared byte
for byte after the work directory's path is replaced by ``<work>``. A
CSV whose column line differs between the trees is compared in two
parts: its header (comment lines and column line) byte for byte, and its
data rows on the columns both name, so a change of trace format shows as
a header difference alone when the kept columns hold the same bits.

It also runs :func:`hash_cases` in a fresh interpreter on each tree
(this file run with ``--hash-cases``, the tree's ``src/`` on the path).
That covers the loop paths no command reaches: least squares, dense and
CSR, on the l1 ball, the simplex, the box (n = 1 and n = 5) and the l2
ball, the logistic loss and the 1-D probe (1 x 1 least squares, as the
CLI builds it), both variants at ``trace_every`` 1, 7 and ``max_iters``
(two rows, so f is evaluated twice), a chunked solve/resume across image
refreshes, a resume in chunks of 5 at ``trace_every`` 7, which cross the
record stride (least squares, dense and CSR, and the logistic loss), the
Euler flow, both scripted atom streams fed straight to ``solvers._run``
(a repeating cycle and seeded iid draws over six l1-ball vertices built
inline with ``avgfw.Atom``), ``force_signal`` on six forced signals:
n = 1 and n = 3 (with a -0.0 entry), p = 1 and 0.5, a record stride that
does not divide the step count, a stride past t_end, t_end below dt/2
(no step) and a scalar-returning signal, and the in-process
``avgfw.cli.compare`` on dense least squares over the simplex, the box
(n = 5) and the l1 ball with x* past ``max_iters``, the identification
branches of every polyhedral kind, and on the l2 ball with no reference,
each hashed as its rendered summary, and ``diagnostics.support_set``
itself on the l1 ball, the simplex and the box (n = 5) at gradients
with exact ties, with zero entries and with near-ties on each side of
its 1e-6 tolerance, each hashed as its sorted vertex ids. A ``sizes
<problem>`` line per problem hashes the objective's m, n,
``image_size`` and ``_inv_curvature``. Each solve or flow case prints the SHA-256 of the
record fields every tree since 583eb98 holds: the k, f, gap and disc_err columns and the final x,
sbar and both images (for a flow, the same columns and the final sbar),
and a run's ``vertex_ids`` as a second line, ``<case> vertex_ids``, each
compared like an output; a change to what the record keeps of the atom
ids then shows on those lines alone.

A differing text output is shown as the first DIFF_LINES lines of its
unified diff. A differing CSV (its data, by column) or ``key = value``
report (``summary.txt``, diag's stdout, by key) is first summarized by
the largest relative change |a - b| / max(|a|, |b|) of each column or key
both trees write: 0 where it is identical, as the integer ones (``k``,
``atom_id``, ``k_bar``, the support sizes) should be, and "differs" where
text changed. It ends with the ``wc -l`` total of ``src/avgfw/*.py`` on
each tree. Exits 1 on any difference, 0 when all match.
"""

from __future__ import annotations

import argparse
import difflib
import glob
import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from typing import Dict, List, Optional, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LARGE_CONFIG = "bench/cs_large.ini"  # writes to out/cs_large
COMPARES = [("cs_compare", "out/cs_compare"), ("cs_manifold", "out/cs_manifold"), ("logistic_synthetic", "out/logistic")]
COMMANDS: List[List[str]] = [
    ["gen-data", "--out", "out/data"],
    ["solve", "--config", "configs/scalar1d_fw.ini", "--out", "out/scalar1d_fw"],
    *(["compare", "--config", f"configs/{name}.ini", "--out", out] for name, out in COMPARES),
    ["compare", "--config", "configs/scalar1d_fw.ini", "--out", "out/scalar1d_compare"],
    ["compare", "--config", LARGE_CONFIG, "--seed", "0"],
    ["sweep", "--config", "configs/logistic_synthetic.ini", "--out", "out/sweep"],
    ["sweep", "--config", "configs/logistic_synthetic.ini", "--out", "out/sweep_seed3", "--seed", "3"],
    ["flow", "--config", "configs/flow_accumulation.ini", "--out", "out/flow_accumulation"],
    ["flow", "--config", "configs/flow_scalar1d.ini", "--out", "out/flow_scalar1d"],
    *(["diag", f"{out}/{variant}_trace.csv"] for _, out in COMPARES for variant in ("fw", "avgfw")),
    ["diag", "out/cs_compare/fw_trace.csv", "--window-lo", "100", "--window-hi", "4999"],
    ["diag", "out/scalar1d_fw/trace.csv"],
    *(["diag", f"out/{name}/flow_trace.csv"] for name in ("flow_accumulation", "flow_scalar1d")),
]
RUN_CLI = "import sys; from avgfw.cli import main; sys.exit(main(sys.argv[1:]))"
DIFF_LINES = 20


def extract(ref: str, dest: str) -> str:
    """Write the tree of ``ref`` under ``dest`` and return its path."""
    tar = subprocess.run(["git", "-C", REPO, "archive", "--format=tar", ref], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest


def run_tree(tree: str, work: str) -> Dict[str, bytes]:
    """Run every command of the set on ``tree`` inside ``work``; return
    each output file and each command's streams and exit code, keyed by
    name, with the work directory's path normalized."""
    shutil.copytree(os.path.join(tree, "configs"), os.path.join(work, "configs"))
    os.mkdir(os.path.join(work, "bench"))
    shutil.copy(os.path.join(tree, LARGE_CONFIG), os.path.join(work, LARGE_CONFIG))
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    results: Dict[str, bytes] = {}
    for i, argv in enumerate(COMMANDS):
        proc = subprocess.run([sys.executable, "-c", RUN_CLI, *argv], cwd=work, env=env, capture_output=True)
        name = f"[{i}] {' '.join(argv)}"
        results[f"{name}: stdout"] = proc.stdout
        results[f"{name}: stderr"] = proc.stderr
        results[f"{name}: exit code"] = str(proc.returncode).encode()
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--hash-cases"], cwd=work, env=env, capture_output=True)
    for line in proc.stdout.decode().splitlines():
        case, digest = line.rsplit(" ", 1)
        results[f"in-process {case}"] = digest.encode()
    results["in-process: stderr"] = proc.stderr
    results["in-process: exit code"] = str(proc.returncode).encode()
    for root, _, files in os.walk(os.path.join(work, "out")):
        for f in files:
            path = os.path.join(root, f)
            with open(path, "rb") as fh:
                results[os.path.relpath(path, work)] = fh.read()
    marker = os.path.realpath(work).encode()
    return {k: v.replace(marker, b"<work>").replace(work.encode(), b"<work>") for k, v in results.items()}


def src_lines(tree: str) -> int:
    """The ``wc -l`` total of the tree's ``src/avgfw/*.py``: its newline count."""
    total = 0
    for path in glob.glob(os.path.join(tree, "src", "avgfw", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def text_diff(old: bytes, new: bytes) -> str:
    """The first DIFF_LINES lines of the unified diff of two text outputs,
    or "" when either is not UTF-8 text."""
    try:
        a, b = old.decode().splitlines(), new.decode().splitlines()
    except UnicodeDecodeError:
        return ""
    lines = list(difflib.unified_diff(a, b, "reference", "working tree", lineterm=""))
    return "".join(f"\n    {line}" for line in lines[:DIFF_LINES])


def split_csv(data: bytes) -> Tuple[List[str], List[str], List[List[str]]]:
    """The header lines (comments, then the column line), the column names
    and the data rows of a CSV."""
    lines = data.decode("ascii").splitlines()
    start = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    return lines[: start + 1], lines[start].split(","), [line.split(",") for line in lines[start + 1 :]]


def csv_differences(key: str, old: bytes, new: bytes, summary: str) -> List[Tuple[str, str]]:
    """A CSV whose column line changed, compared as its header and as its
    data rows on the columns both trees write, the rows with ``summary``."""
    (old_head, old_names, old_rows), (new_head, new_names, new_rows) = split_csv(old), split_csv(new)
    shared = [name for name in old_names if name in new_names]

    def project(names: List[str], rows: List[List[str]]) -> bytes:
        cols = [names.index(name) for name in shared]
        return "\n".join(",".join(row[j] for j in cols) for row in rows).encode()

    parts = (
        (f"{key} header", "\n".join(old_head).encode(), "\n".join(new_head).encode(), ""),
        (f"{key} rows {','.join(shared)}", project(old_names, old_rows), project(new_names, new_rows), summary),
    )
    return [(name, f"differs{note}{text_diff(a, b)}") for name, a, b, note in parts if a != b]


def value_table(key: str, data: bytes) -> Optional[Dict[str, List[str]]]:
    """A CSV's data rows by column, or a ``key = value`` report by key;
    None for any other output."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        return None
    if key.endswith(".csv"):
        _, names, rows = split_csv(data)
        return {name: [row[j] for row in rows] for j, name in enumerate(names)}
    pairs = [line.split(" = ", 1) for line in text.splitlines()]
    if not pairs or any(len(pair) != 2 for pair in pairs):
        return None
    return {name: [value] for name, value in pairs}


def relative_change(a: str, b: str) -> Optional[float]:
    """|a - b| / max(|a|, |b|) of two printed floats, 0 for the same text,
    None when they differ and are not both finite numbers."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if 0 < scale < float("inf") else None


def value_changes(old: Dict[str, List[str]], new: Dict[str, List[str]]) -> str:
    """The largest relative change of each column or key both tables hold:
    0 where it is identical, "differs" where a changed pair is not two
    finite numbers (such as a number against none)."""
    changes = []
    for name, a in old.items():
        b = new.get(name)
        if b is None:
            continue
        if len(a) != len(b):
            changes.append(f"{name} {len(a)} vs {len(b)} rows")
            continue
        rel = [relative_change(x, y) for x, y in zip(a, b)]
        changes.append(f"{name} differs" if None in rel else f"{name} {max(rel, default=0.0):.3g}")
    return f"\n    largest relative change: {', '.join(changes)}" if changes else ""


def differences(ref: Dict[str, bytes], new: Dict[str, bytes]) -> List[Tuple[str, str]]:
    out = []
    for key in sorted(set(ref) | set(new)):
        if key not in new:
            out.append((key, "only in the reference"))
        elif key not in ref:
            out.append((key, "only in the working tree"))
        elif ref[key] != new[key]:
            tables = value_table(key, ref[key]), value_table(key, new[key])
            summary = "" if None in tables else value_changes(*tables)
            if key.endswith(".csv") and split_csv(ref[key])[1] != split_csv(new[key])[1]:
                out += csv_differences(key, ref[key], new[key], summary)
            else:
                out.append((key, f"differs ({len(ref[key])} vs {len(new[key])} bytes){summary}{text_diff(ref[key], new[key])}"))
    return out


def hash_cases() -> None:
    """Print ``case digest`` for every in-process case, run with the avgfw found on the path."""
    import hashlib

    import numpy as np
    import scipy.sparse as sp
    from avgfw import Atom, DomainSet, Kind, Schedule, SolverConfig, Variant, resume, solve
    from avgfw.cli import compare
    from avgfw.diagnostics import render_report, support_set
    from avgfw.solvers import SolverState, _discrete_steps, _run
    from avgfw.flows import FlowConfig, force_signal, integrate
    from avgfw.objectives import Logistic, QuadraticLS

    def emit(case: str, *arrays) -> None:
        h = hashlib.sha256()
        for a in arrays:
            h.update(b"none" if a is None else np.ascontiguousarray(a).tobytes())
        print(case, h.hexdigest())

    def emit_trace(case: str, t) -> None:
        st = t.state
        emit(case, t.ks, t.f, t.gap, t.disc_err, st.x, st.s_bar, st.x_image, st.s_bar_image)
        emit(f"{case} vertex_ids", t.vertex_ids)

    rng = np.random.default_rng(5)
    A, y = rng.standard_normal((12, 40)), rng.standard_normal(12)
    Z = sp.random(30, 40, density=0.2, random_state=6, format="csr")
    labels = np.where(rng.standard_normal(30) >= 0, 1.0, -1.0)
    problems = {
        "l1": (QuadraticLS(A, y), DomainSet(Kind.L1_BALL, 2.0, 40)),
        "csr_l1": (QuadraticLS(sp.csr_matrix(A), y), DomainSet(Kind.L1_BALL, 2.0, 40)),
        "simplex": (QuadraticLS(A, y), DomainSet(Kind.SIMPLEX, 2.0, 40)),
        "csr_simplex": (QuadraticLS(sp.csr_matrix(A), y), DomainSet(Kind.SIMPLEX, 2.0, 40)),
        "box5": (QuadraticLS(A[:, :5], y), DomainSet(Kind.BOX, 0.5, 5)),
        "csr_box5": (QuadraticLS(sp.csr_matrix(A[:, :5]), y), DomainSet(Kind.BOX, 0.5, 5)),
        "box1": (QuadraticLS(A[:, :1], y), DomainSet(Kind.BOX, 0.5, 1)),
        "l2_ball": (QuadraticLS(A, y), DomainSet(Kind.L2_BALL, 0.5, 40)),
        "csr_l2_ball": (QuadraticLS(sp.csr_matrix(A), y), DomainSet(Kind.L2_BALL, 0.5, 40)),
        "logistic_csr_l1": (Logistic(Z, labels), DomainSet(Kind.L1_BALL, 5.0, 40)),
        "logistic_dense_simplex": (Logistic(Z.toarray(), labels), DomainSet(Kind.SIMPLEX, 5.0, 40)),
        "scalar1d": (QuadraticLS(np.ones((1, 1)), np.zeros(1)), DomainSet(Kind.BOX, 1.0, 1)),
    }
    for name, (obj, _) in problems.items():
        emit(f"sizes {name}", np.array([obj.m, obj.n, obj.image_size]), np.array([obj._inv_curvature]))
    sched = Schedule(3.0, 1.0)
    for name, (obj, dom) in problems.items():
        for variant in Variant:
            for every in (1, 7, 139):
                cfg = SolverConfig(variant, sched, max_iters=139, trace_every=every)
                emit_trace(f"solve {name} {variant.value} every={every}", solve(obj, dom, cfg))
            trace = solve(obj, dom, SolverConfig(variant, sched, max_iters=50))
            while trace.state.k < 300:  # chunks of 50 cross the refreshes at 64, 128, ...
                trace = resume(trace.state, obj, dom, SolverConfig(variant, sched, max_iters=50, trace_every=3))
                emit_trace(f"resume {name} {variant.value} k={trace.state.k}", trace)
            if name in ("l1", "csr_l1", "logistic_csr_l1"):
                trace = solve(obj, dom, SolverConfig(variant, sched, max_iters=20, trace_every=20))
                while trace.state.k < 75:  # chunks of 5 at stride 7, across the refresh at 64
                    trace = resume(trace.state, obj, dom, SolverConfig(variant, sched, max_iters=5, trace_every=7))
                    emit_trace(f"resume {name} {variant.value} every=7 k={trace.state.k}", trace)
            flow = integrate(obj, dom, FlowConfig(variant, Schedule(2.0, 1.0), t_end=0.5, dt=1e-3, record_every=0.01))
            s_bar = flow.state.s_bar if variant is Variant.AVGFW else None  # a vanilla flow reports none
            emit(f"flow {name} {variant.value}", flow.ks, flow.f, flow.gap, flow.disc_err, s_bar)
    # the six signed vertices of the unit l1 ball in R^6 on its first three axes, +0.0 elsewhere
    pool = [Atom(np.where(np.arange(6) == i, float(sign), 0.0), sign * (i + 1)) for i in range(3) for sign in (1, -1)]
    streams = {"repeating_cycle": np.arange(200) % 6, "random_vertex": np.random.default_rng(4).integers(0, 6, size=200)}
    for mode, picks in streams.items():  # the prescribed atoms through the loop, with no objective

        def source(x, u, k, record):
            return np.nan, np.full(6, np.nan), pool[picks[k]], np.empty(0)

        start = SolverState(k=0, x=np.zeros(6), s_bar=np.zeros(6))
        cfg = SolverConfig(Variant.AVGFW, sched, max_iters=200)
        emit_trace(f"scripted {mode}", _run(source, lambda v: np.empty(0), _discrete_steps(sched), cfg, start))
    def wave(t: float) -> np.ndarray:
        return np.array([np.sin(3.0 * t), -0.0, 1.0 - t])

    forced = (  # name, signal, p, t_end, record_every; dt = 1e-3
        ("unit", lambda t: np.array([1.0]), 1.0, 6.0, 1.0),
        ("wave", wave, 0.5, 0.5, 0.01),
        ("wave stride 7", wave, 1.0, 0.5, 0.007),
        ("wave one stride", wave, 1.0, 0.2, 1.0),
        ("unit N=0", lambda t: np.array([1.0]), 1.0, 4e-4, 0.1),
        ("scalar", lambda t: 2.0 - t, 0.5, 0.3, 0.05),
    )
    for name, signal, p, t_end, every in forced:
        flow = force_signal(FlowConfig(schedule=Schedule(3.0, p), t_end=t_end, dt=1e-3, record_every=every), signal)
        emit(f"force_signal {name}", flow.ks, flow.f, flow.gap, flow.disc_err, flow.state.x)  # the forced run's x is sbar
    # the compare protocol: on a polyhedron its x* continued past max_iters;
    # the l2 ball has no identification, so no reference is asked for
    for name, reference_iters in (("simplex", 600), ("box5", 600), ("l1", 600), ("l2_ball", None)):
        obj, dom = problems[name]
        _, entries = compare(obj, dom, SolverConfig(Variant.FW, sched, max_iters=200), (20, 199), reference_iters)
        print(f"compare {name}", hashlib.sha256(render_report(entries).encode()).hexdigest())
    # support sets at exact ties, zero entries and near-ties on each side of the 1e-6 tolerance:
    # l1 |g_1| = 2 (1 - r), simplex g_1 = -2 (1 - r), box |g_3| = r/2 times the sum of the other |g_j|
    near = {"in": 0.99e-6, "out": 1.01e-6}
    gradients = {
        "tie": np.array([2.0, -2.0, 0.0, 1.0, -2.0]),
        "zero": np.zeros(5),
        **{f"near_{side} l1": np.array([2.0, -2.0 * (1 - r), 0.3, 1.0, -0.5]) for side, r in near.items()},
        **{f"near_{side} simplex": np.array([-2.0, -2.0 * (1 - r), 0.3, 1.0, 0.5]) for side, r in near.items()},
        **{f"near_{side} box": np.array([1.0, -2.0, 0.5, -0.5 * r * 4.0, 0.5]) for side, r in near.items()},
    }
    for kind in (Kind.L1_BALL, Kind.SIMPLEX, Kind.BOX):
        for name, g in gradients.items():
            star = support_set(g, DomainSet(kind, 1.5, 5))
            emit(f"support_set {kind.value} {name}", np.array(sorted(star), dtype=np.int64))


def main(argv: List[str]) -> int:
    if argv == ["--hash-cases"]:
        hash_cases()
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git revision to compare the working tree against, e.g. HEAD~")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="avgfw-diff-") as tmp:
        trees = {"reference": extract(args.ref, os.path.join(tmp, "ref")), "working tree": REPO}
        outputs = {}
        lines = {label: src_lines(tree) for label, tree in trees.items()}
        for label, tree in trees.items():
            work = os.path.join(tmp, label.replace(" ", "_") + "_work")
            os.mkdir(work)
            print(f"running {len(COMMANDS)} commands on the {label} ({tree})", flush=True)
            outputs[label] = run_tree(tree, work)
    diffs = differences(outputs["reference"], outputs["working tree"])
    for key, what in diffs:
        print(f"DIFF {key}: {what}")
    for key, code in outputs["working tree"].items():
        if key.endswith(": exit code") and code != b"0":
            print(f"note: {key[: -len(': exit code')]} exits {code.decode()} on the working tree")
    n_files = sum(1 for k in outputs["working tree"] if not k.startswith(("[", "in-process")))
    n_cases = sum(1 for k in outputs["working tree"] if k.startswith("in-process "))
    print(f"{len(diffs)} differences over {len(COMMANDS)} commands, {n_files} output files and {n_cases} in-process cases")
    change = lines["working tree"] - lines["reference"]
    print(f"src/avgfw/*.py lines (wc -l): {lines['reference']} in the reference, {lines['working tree']} in the working tree ({change:+d})")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

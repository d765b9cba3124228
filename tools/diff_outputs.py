"""Check that the working tree produces the same outputs as a git revision.

    python3 tools/diff_outputs.py REF

extracts ``git archive REF`` to a temporary directory and runs the same
command set on that tree and on the working tree, each in a fresh work
directory with its own copy of ``configs/`` and of ``bench/cs_large.ini``:
gen-data, solve on the 1-D probe, compare on the three shipped
comparison configs (whose references run past ``max_iters``) and on
``bench/cs_large.ini`` at seed 0 (whose reference is the averaged run
itself), sweep on the shipped logistic config and on a copy of it with
``[solver] trace_every = 7`` (whose ``sweep.csv`` must match too, as the
sweep records only the first and the last row of each radius whatever
the config says), both flows, and diag: on the six traces the shipped
compares write with the default window, on the fw trace of
``cs_compare`` with the explicit window 100..4999 (the benchmark's
desk_small diag), and on the box trace of the 1-D solve. Output files,
stdout, stderr and exit codes are compared byte for byte after the work
directory's path is replaced by ``<work>``.

It also runs :func:`hash_cases` in a fresh interpreter on each tree (this
file run with ``--hash-cases``, the tree's ``src/`` on the path). That
covers the loop paths no command reaches: least squares, dense and CSR,
on the l1 ball, the simplex, the box (n = 1 and n = 5) and the l2 ball,
the logistic loss and the 1-D probe, both variants at ``trace_every`` 1,
7 and ``max_iters`` (two rows, so f is evaluated twice), a chunked
solve/resume across image refreshes, a resume in chunks of 5 at
``trace_every`` 7, which cross the record stride (least squares, dense
and CSR, and the logistic loss), the Euler flow, both scripted sources,
and ``force_signal`` on six forced signals: n = 1
and n = 3 (with a -0.0 entry), p = 1 and 0.5, a record stride that does
not divide the step count, a stride past t_end, t_end below dt/2 (no
step) and a scalar-returning signal. Each case prints the SHA-256 of
every trace column and of the final x, sbar and both images (for a flow,
its columns and final sbar), compared like an output.

A differing text output is shown as the first DIFF_LINES lines of its
unified diff. Exits 1 on any difference, 0 when all match.
"""

from __future__ import annotations

import argparse
import difflib
import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from typing import Dict, List, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LARGE_CONFIG = "bench/cs_large.ini"  # writes to out/cs_large
EVERY7_CONFIG = "configs/logistic_every7.ini"  # the shipped logistic config with [solver] trace_every = 7
COMPARES = [("cs_compare", "out/cs_compare"), ("cs_manifold", "out/cs_manifold"), ("logistic_synthetic", "out/logistic")]
COMMANDS: List[List[str]] = [
    ["gen-data", "--out", "out/data"],
    ["solve", "--config", "configs/scalar1d_fw.ini", "--out", "out/scalar1d_fw"],
    *(["compare", "--config", f"configs/{name}.ini", "--out", out] for name, out in COMPARES),
    ["compare", "--config", LARGE_CONFIG, "--seed", "0"],
    ["sweep", "--config", "configs/logistic_synthetic.ini", "--out", "out/sweep"],
    ["sweep", "--config", EVERY7_CONFIG, "--out", "out/sweep_every7"],
    ["flow", "--config", "configs/flow_accumulation.ini", "--out", "out/flow_accumulation"],
    ["flow", "--config", "configs/flow_scalar1d.ini", "--out", "out/flow_scalar1d"],
    *(["diag", f"{out}/{variant}_trace.csv"] for _, out in COMPARES for variant in ("fw", "avgfw")),
    ["diag", "out/cs_compare/fw_trace.csv", "--window-lo", "100", "--window-hi", "4999"],
    ["diag", "out/scalar1d_fw/trace.csv"],
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
    with open(os.path.join(work, "configs", "logistic_synthetic.ini"), encoding="ascii") as fh:
        text = fh.read()
    if text.count("\n[solver]\n") != 1:
        raise SystemExit(f"{tree}: configs/logistic_synthetic.ini has no single [solver] section")
    with open(os.path.join(work, EVERY7_CONFIG), "w", encoding="ascii") as fh:
        fh.write(text.replace("\n[solver]\n", "\n[solver]\ntrace_every = 7\n"))
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    env.pop("AVGFW_OUT", None)
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


def text_diff(old: bytes, new: bytes) -> str:
    """The first DIFF_LINES lines of the unified diff of two text outputs,
    or "" when either is not UTF-8 text."""
    try:
        a, b = old.decode().splitlines(), new.decode().splitlines()
    except UnicodeDecodeError:
        return ""
    lines = list(difflib.unified_diff(a, b, "reference", "working tree", lineterm=""))
    return "".join(f"\n    {line}" for line in lines[:DIFF_LINES])


def differences(ref: Dict[str, bytes], new: Dict[str, bytes]) -> List[Tuple[str, str]]:
    out = []
    for key in sorted(set(ref) | set(new)):
        if key not in new:
            out.append((key, "only in the reference"))
        elif key not in ref:
            out.append((key, "only in the working tree"))
        elif ref[key] != new[key]:
            out.append((key, f"differs ({len(ref[key])} vs {len(new[key])} bytes){text_diff(ref[key], new[key])}"))
    return out


def hash_cases() -> None:
    """Print ``case digest`` for every in-process case, run with the avgfw found on the path."""
    import hashlib

    import numpy as np
    import scipy.sparse as sp
    from avgfw import DomainSet, Kind, Schedule, SolverConfig, Variant, resume, solve
    from avgfw.domains import l1_vertex
    from avgfw.experiments import ScriptedTrajectorySpec, ScriptMode, run_scripted_averaging
    from avgfw.flows import FlowConfig, force_signal, integrate
    from avgfw.objectives import Logistic, QuadraticLS, Scalar1D

    def emit(case: str, *arrays) -> None:
        h = hashlib.sha256()
        for a in arrays:
            h.update(b"none" if a is None else np.ascontiguousarray(a).tobytes())
        print(case, h.hexdigest())

    def emit_trace(case: str, t) -> None:
        st = t.state
        emit(case, t.ks, t.f, t.gap, t.disc_err, t.gamma, t.beta, t.vertex_ids, st.x, st.s_bar, st.x_image, st.s_bar_image)

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
        "scalar1d": (Scalar1D(), DomainSet(Kind.BOX, 1.0, 1)),
    }
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
            emit(f"flow {name} {variant.value}", flow.t, flow.f, flow.gap, flow.disc_err, flow.h, flow.final_s_bar)
    pool = [l1_vertex(1.0, 6, i, sign) for i in range(3) for sign in (1, -1)]
    for mode in ScriptMode:
        spec = ScriptedTrajectorySpec(mode, pool, steps=200, seed=4)
        emit_trace(f"scripted {mode.value}", run_scripted_averaging(spec, sched))
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
        emit(f"force_signal {name}", flow.t, flow.f, flow.gap, flow.disc_err, flow.h, flow.final_s_bar)


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
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

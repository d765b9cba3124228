"""The benchmark's three workloads: their CLI commands, primary instance,
output checks and result fingerprints.

Why each workload exists (README.md in this directory has the full
rationale and the layer -> end-to-end table):

- desk_small: the shipped desk-scale reproduction; n <= 500, so the
  per-iteration interpreter overhead of solvers, domains.lmo, schedules
  and the flows Euler loop dominates, with six cold imports.
- cs_large: one 1000x10000 compare; the dense gradient is about 95% of an
  iteration, and diagnostics' O(n^2) vertex enumeration shows in memory.
- logistic_sparse: svmlight write and parse, the CSR gradient, and the
  fixed cost per solve of a ten-point radius sweep.

Paths in command lines are relative to the repository root, which is the
working directory of every command.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from stats import Ledger

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
FLOW_ACCUMULATION_CLOSED_FORM = 26.0 / 27.0
CLOSED_FORM_TOL = 1e-3  # the acceptance gate's tolerance for criterion 2


@dataclass(frozen=True)
class Command:
    op: str
    argv: Tuple[str, ...]
    out: Optional[str]  # output directory the command writes, if any


@dataclass(frozen=True)
class Primary:
    """The instance family timed in process: instance 0 is the one the CLI
    solved with the run's seed, instances 1..K-1 use seeds derived from it."""

    kind: str  # "cs" or "logistic"
    params: Dict[str, float]
    cli_trace: str  # avgfw trace CSV of instance 0, relative to the output root
    eps: float  # stop at gap <= eps * gap_0
    instances: int
    chunk: int  # iterations per solve/resume call
    cap: int  # give up (operation failed) after this many iterations
    setup_scales: Tuple[Optional[float], ...] = (None,)  # radii the workload's commands build; None = primary's
    after: Optional[str] = None  # operation whose output set-up and instance 0 read, if any


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: Callable[[str, int], List[Command]]  # (work dir, seed)
    primary: Primary
    checks: Callable[[str, Ledger], Dict[str, Dict[str, object]]]  # fingerprint per operation
    prepare: Callable[[str], None] = field(default=lambda work: None)


def out_dir(work: str) -> str:
    return os.path.join(work, "out")


def stdout_path(work: str, op: str) -> str:
    return os.path.join(work, "logs", f"{op}.stdout")


# ---------------------------------------------------------------- output readers

def read_summary(path: str) -> Dict[str, str]:
    """``key = value`` lines of summary.txt or diag output."""
    out = {}
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            if " = " in line:
                key, val = line.rstrip("\n").split(" = ", 1)
                out[key] = val
    return out


def read_csv(path: str) -> Tuple[Dict[str, str], List[str], List[List[str]]]:
    """Header comments, column names and rows of a trace CSV."""
    header: Dict[str, str] = {}
    columns: List[str] = []
    rows: List[List[str]] = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, val = line[2:].partition(" = ")
                header[key] = val
            elif not columns:
                columns = line.split(",")
            elif line:
                rows.append(line.split(","))
    return header, columns, rows


def column(path: str, name: str) -> List[float]:
    _, columns, rows = read_csv(path)
    j = columns.index(name)
    return [float(r[j]) for r in rows]


def number_or_none(raw: str) -> object:
    """Summary values: ints stay ints, "none" stays a string, else float."""
    if raw == "none":
        return raw
    if re.fullmatch(r"-?\d+", raw):
        return int(raw)
    return float(raw)


def compare_fingerprint(out_dir: str, prefix: str) -> Dict[str, object]:
    summary = read_summary(os.path.join(out_dir, "summary.txt"))
    fp: Dict[str, object] = {}
    for key in ("slope_gap_fw", "slope_gap_avgfw", "k_bar", "delta"):
        fp[f"{prefix}.{key}"] = number_or_none(summary[key])
    for variant in ("fw", "avgfw"):
        fp[f"{prefix}.final_gap_{variant}"] = column(os.path.join(out_dir, f"{variant}_trace.csv"), "gap")[-1]
    return fp


def check_slopes(ledger: Ledger, op: str, fp: Dict[str, object], prefix: str) -> None:
    fw, avg = fp[f"{prefix}.slope_gap_fw"], fp[f"{prefix}.slope_gap_avgfw"]
    ok = isinstance(fw, float) and isinstance(avg, float) and avg < fw
    ledger.check(op, ok, f"slope_gap_avgfw {avg} is not below slope_gap_fw {fw}")


def guarded(ledger: Ledger, op: str, fn: Callable[[], Dict[str, object]]) -> Dict[str, object]:
    """Run an output reader; a missing or malformed output fails the operation."""
    try:
        return fn()
    except (OSError, ValueError, KeyError, IndexError) as err:
        ledger.fail(op, f"unreadable output: {type(err).__name__}: {err}")
        return {}


# ---------------------------------------------------------------- desk_small

def desk_commands(work: str, seed: int) -> List[Command]:
    s = str(seed)
    o = lambda name: os.path.join(out_dir(work), name)  # noqa: E731
    run = lambda sub, cfg: (sub, "--config", f"configs/{cfg}.ini", "--out", o(cfg), "--seed", s)  # noqa: E731
    return [
        Command("solve.scalar1d_fw", run("solve", "scalar1d_fw"), o("scalar1d_fw")),
        Command("compare.cs_compare", run("compare", "cs_compare"), o("cs_compare")),
        Command("compare.cs_manifold", run("compare", "cs_manifold"), o("cs_manifold")),
        Command("flow.flow_scalar1d", run("flow", "flow_scalar1d"), o("flow_scalar1d")),
        Command("flow.flow_accumulation", run("flow", "flow_accumulation"), o("flow_accumulation")),
        Command("diag.cs_compare_fw", ("diag", o("cs_compare/fw_trace.csv"), "--window-lo", "100", "--window-hi", "4999"), None),
    ]


def desk_checks(work: str, ledger: Ledger) -> Dict[str, Dict[str, object]]:
    out = out_dir(work)
    fps: Dict[str, Dict[str, object]] = {}

    op = "solve.scalar1d_fw"
    disc = guarded(ledger, op, lambda: {"d": column(os.path.join(out, "scalar1d_fw/trace.csv"), "disc_err")}).get("d")
    if disc is not None:
        ledger.check(op, len(disc) > 0 and min(disc) >= 1.0, "vanilla scalar1d disc_err dropped below 1")

    op = "flow.flow_accumulation"
    fps[op] = guarded(ledger, op, lambda: {"flow_accumulation.final_s_bar": float(
        read_csv(os.path.join(out, "flow_accumulation/flow_trace.csv"))[0]["final_s_bar"])})
    if fps[op]:
        err = abs(fps[op]["flow_accumulation.final_s_bar"] - FLOW_ACCUMULATION_CLOSED_FORM)
        ledger.check(op, err <= CLOSED_FORM_TOL, f"final_s_bar off the closed form 26/27 by {err:.2e}")

    for name in ("cs_compare", "cs_manifold"):
        op = f"compare.{name}"
        fps[op] = guarded(ledger, op, lambda name=name: compare_fingerprint(os.path.join(out, name), name))
        if fps[op]:
            check_slopes(ledger, op, fps[op], name)

    op = "diag.cs_compare_fw"
    fps[op] = guarded(ledger, op, lambda: {"diag.slope_gap": float(read_summary(stdout_path(work, op))["slope_gap"])})
    if fps[op]:
        # same window over the same rows re-read from the CSV: the fit must reproduce exactly
        got, want = fps[op]["diag.slope_gap"], fps["compare.cs_compare"].get("cs_compare.slope_gap_fw")
        ledger.check(op, got == want, f"diag slope_gap {got} != compare slope_gap_fw {want}")
    return fps


# ---------------------------------------------------------------- cs_large

CS_LARGE_CONFIG = os.path.relpath(os.path.join(BENCH_DIR, "cs_large.ini"), os.path.dirname(BENCH_DIR))


def cs_large_commands(work: str, seed: int) -> List[Command]:
    o = os.path.join(out_dir(work), "cs_large")
    return [Command("compare.cs_large", ("compare", "--config", CS_LARGE_CONFIG, "--out", o, "--seed", str(seed)), o)]


def cs_large_checks(work: str, ledger: Ledger) -> Dict[str, Dict[str, object]]:
    op = "compare.cs_large"
    fp = guarded(ledger, op, lambda: compare_fingerprint(os.path.join(out_dir(work), "cs_large"), "cs_large"))
    if fp:
        check_slopes(ledger, op, fp, "cs_large")
    return {op: fp}


# ---------------------------------------------------------------- logistic_sparse

def logistic_config(work: str) -> str:
    return os.path.join(work, "logistic_synthetic.ini")


def logistic_data(work: str) -> str:
    return os.path.join(out_dir(work), "data", "synthetic_logistic.svmlight")


def logistic_prepare(work: str) -> None:
    """Point a copy of the shipped config at the svmlight file gen-data writes."""
    with open("configs/logistic_synthetic.ini", "r", encoding="ascii") as fh:
        text = fh.read()
    text, hits = re.subn(r"(?m)^path\s*=.*$", f"path = {logistic_data(work)}", text)
    if hits != 1:
        raise ValueError("configs/logistic_synthetic.ini has no single [problem] path line")
    with open(logistic_config(work), "w", encoding="ascii") as fh:
        fh.write(text)


def logistic_commands(work: str, seed: int) -> List[Command]:
    s = str(seed)
    cfg = logistic_config(work)
    data = os.path.dirname(logistic_data(work))
    o = os.path.join(out_dir(work), "logistic")
    return [
        Command("gen-data", ("gen-data", "--out", data, "--seed", s), data),
        Command("compare.logistic", ("compare", "--config", cfg, "--out", o, "--seed", s), o),
        Command("sweep.logistic", ("sweep", "--config", cfg, "--out", o, "--seed", s), o),
    ]


def best_sweep_alpha(path: str) -> Dict[str, object]:
    _, columns, rows = read_csv(path)
    a, v = columns.index("alpha"), columns.index("val_loss")
    best = min(rows, key=lambda r: float(r[v]))
    return {"sweep.best_alpha": float(best[a]), "sweep.points": len(rows)}


def logistic_checks(work: str, ledger: Ledger) -> Dict[str, Dict[str, object]]:
    out = out_dir(work)
    data = logistic_data(work)
    ledger.check("gen-data", os.path.isfile(data) and os.path.getsize(data) > 0, "gen-data wrote no svmlight file")
    return {
        "compare.logistic": guarded(ledger, "compare.logistic",
                                    lambda: compare_fingerprint(os.path.join(out, "logistic"), "logistic")),
        "sweep.logistic": guarded(ledger, "sweep.logistic",
                                  lambda: best_sweep_alpha(os.path.join(out, "logistic", "sweep.csv"))),
    }


# ---------------------------------------------------------------- registry

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="desk_small",
            why="shipped 100x500 configs and flows: per-iteration interpreter overhead in solvers, lmo, schedules and the Euler loop; six cold imports",
            commands=desk_commands,
            primary=Primary("cs", {"n": 500, "m": 100, "alpha_scale": 1.0}, "cs_compare/avgfw_trace.csv",
                            eps=1e-4, instances=16, chunk=50, cap=5000, setup_scales=(1.0, 0.05)),
            checks=desk_checks,
        ),
        Workload(
            name="cs_large",
            why="1000x10000 compare: the dense gradient is about 95% of an iteration; O(n^2) vertex enumeration in diagnostics sets peak memory",
            commands=cs_large_commands,
            primary=Primary("cs", {"n": 10000, "m": 1000, "alpha_scale": 0.05}, "cs_large/avgfw_trace.csv",
                            eps=1e-3, instances=4, chunk=20, cap=1000),
            checks=cs_large_checks,
        ),
        Workload(
            name="logistic_sparse",
            why="svmlight write and parse, the CSR logistic gradient, and per-solve fixed costs of a ten-point radius sweep",
            commands=logistic_commands,
            primary=Primary("logistic", {"m": 800, "n": 1000, "density": 0.01, "alpha": 10.0}, "logistic/avgfw_trace.csv",
                            eps=3e-3, instances=16, chunk=25, cap=2000, after="gen-data"),
            checks=logistic_checks,
            prepare=logistic_prepare,
        ),
    )
}

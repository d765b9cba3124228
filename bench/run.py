"""Benchmark of the avgfw command line and solver, end to end and by layer.

    python3 bench/run.py --workload desk_small --seed 0 --seconds 12 --trace 0

Run from the repository root. Workloads are defined in workloads.py and
described in README.md. Load model: a closed loop with one client; the
workload's commands run one after another, each in a cold process, and
each waits for the previous one. BLAS keeps its default thread count.

--trace 0 reports the end-to-end metrics, measured untraced:
  wall_s             sum of the cold-process wall times of the commands
  setup_s            median over fresh processes of interpreter start,
                     import avgfw.cli and building the problem instances
  time_to_gap_s      median over repetitions of the time the averaged
                     solver, in chunks of solve/resume, needs to reach
                     gap <= eps * gap_0 on each primary instance, summed
                     over the instances; repetitions fill --seconds
  solve_iters_per_s  iterations per second inside solve/resume, same runs
  peak_rss_mb        largest peak RSS of any command's process
Set-up processes and time-to-gap repetitions are interleaved with the
commands, so that each metric samples the whole run.
--trace 1 runs the commands untraced and again with spans around the calls
into each module, and reports the per-layer metrics and tracing overhead.

Outputs are checked (closed forms, invariants, byte-identical traces,
recorded fingerprints); failed operations are counted. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Work files go to .bench_work/<workload>/seed<seed>/.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from stats import Ledger, fingerprint_mismatches, summarize
from workloads import WORKLOADS, Command, Workload, column, out_dir, stdout_path

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_ROOT = ".bench_work"
FINGERPRINTS = os.path.join(BENCH_DIR, "fingerprints.json")
SETUP_REPS = 11
RUN_BUDGET_S = 170.0  # every child is killed past this point of the run

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("time_to_gap_s", "s"),
    ("solve_iters_per_s", "iter/s"),
    ("peak_rss_mb", "MB"),
]

# name, unit, better; see README.md for the end-to-end metric each should move
PER_LAYER = [
    ("experiments.build_s", "s", "lower"),
    ("experiments.svmlight_write_s", "s", "lower"),
    ("experiments.svmlight_bytes", "bytes", "lower"),
    ("experiments.split_s", "s", "lower"),
    ("objectives.vg_calls", "count", "lower"),
    ("objectives.vg_us", "us", "lower"),
    ("objectives.vg_us_tail", "us", "lower"),
    ("objectives.vg_share", "ratio", "lower"),
    ("objectives.vg_gbps_computed", "GB/s", "higher"),
    ("objectives.vg_us_1t", "us", "lower"),
    ("objectives.lipschitz_calls", "count", "lower"),
    ("objectives.lipschitz_s", "s", "lower"),
    ("objectives.gradient_calls", "count", "lower"),
    ("domains.lmo_calls", "count", "lower"),
    ("domains.lmo_us", "us", "lower"),
    ("domains.lmo_us_tail", "us", "lower"),
    ("domains.lmo_share", "ratio", "lower"),
    ("domains.contains_calls", "count", "lower"),
    ("domains.contains_us", "us", "lower"),
    ("domains.contains_us_tail", "us", "lower"),
    ("schedules.calls", "count", "lower"),
    ("schedules.us", "us", "lower"),
    ("schedules.us_tail", "us", "lower"),
    ("solvers.iters", "count", "lower"),
    ("solvers.us_per_iter", "us", "lower"),
    ("solvers.self_us_per_iter", "us", "lower"),
    ("solvers.iters_to_gap", "count", "lower"),
    ("solvers.reference_iters", "count", "lower"),
    ("solvers.reference_s", "s", "lower"),
    ("flows.steps", "count", "lower"),
    ("flows.us_per_step", "us", "lower"),
    ("flows.self_us_per_step", "us", "lower"),
    ("diagnostics.identify_manifold_s", "s", "lower"),
    ("diagnostics.identify_peak_mb", "MB", "lower"),
    ("diagnostics.support_set_s", "s", "lower"),
    ("diagnostics.fit_rate_s", "s", "lower"),
    ("diagnostics.support_trajectory_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("cli.read_trace_s", "s", "lower"),
    ("svg.line_chart_s", "s", "lower"),
    ("svg.points", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

PER_CALL_SPANS = {  # span: (count metric, per-call median metric; "_tail" adds the tail)
    "objectives.vg": ("objectives.vg_calls", "objectives.vg_us"),
    "domains.lmo": ("domains.lmo_calls", "domains.lmo_us"),
    "domains.contains": ("domains.contains_calls", "domains.contains_us"),
    "schedules": ("schedules.calls", "schedules.us"),
}


# ---------------------------------------------------------------- processes

class Runner:
    """Starts children one at a time from the repository root and reaps each
    with os.wait4, which gives its peak RSS. Children past the run's budget
    are killed."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")

    def run(self, argv: List[str], stdout: str, env: Optional[Dict[str, str]] = None) -> Dict[str, object]:
        os.makedirs(os.path.dirname(stdout), exist_ok=True)
        stderr = os.path.splitext(stdout)[0] + ".stderr"
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env or self.env, cwd=ROOT)
            killer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(stderr, "r", encoding="utf-8", errors="replace") as fh:
            err_text = fh.read()
        return {
            "wall_s": wall,
            "rc": proc.returncode,
            "traceback": "Traceback (most recent call last)" in err_text,
            "stderr": err_text[-2000:],
            "maxrss_mb": usage.ru_maxrss / 1024.0,
        }

    def child(self, ledger: Ledger, op: str, args: List[str], log: str, env=None) -> Tuple[Dict[str, object], Optional[dict]]:
        """Run a bench/child.py mode as one operation; parse its JSON answer."""
        ledger.attempt(op)
        res = self.run([sys.executable, os.path.join(BENCH_DIR, "child.py")] + args, log, env)
        if not process_ok(ledger, op, res):
            return res, None
        try:
            with open(log, "r", encoding="utf-8") as fh:
                return res, json.loads(fh.read().strip().splitlines()[-1])
        except (ValueError, IndexError) as err:
            ledger.fail(op, f"unreadable answer: {err}")
            return res, None


def process_ok(ledger: Ledger, op: str, res: Dict[str, object]) -> bool:
    ok = ledger.check(op, res["rc"] == 0, f"exit code {res['rc']}: {res['stderr'][-300:]}")
    return ledger.check(op, not res["traceback"], f"traceback: {res['stderr'][-300:]}") and ok


def run_command(runner: Runner, cmd: Command, work: str, ledger: Ledger, traced: bool, index: int) -> Dict[str, object]:
    """One of the workload's commands in a cold process, traced or not."""
    op = ("traced." if traced else "") + cmd.op
    ledger.attempt(op)
    spans = None
    argv = [sys.executable, "-m", "avgfw.cli", *cmd.argv]
    if traced:
        spans = os.path.join(work, "spans", f"{index:02d}.{cmd.op}.json")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        argv = [sys.executable, os.path.join(BENCH_DIR, "child.py"), "cli", spans, "--", *cmd.argv]
    res = runner.run(argv, stdout_path(work, cmd.op))
    process_ok(ledger, op, res)
    res.update(op=op, argv=list(cmd.argv), spans=spans)
    return res


class SideRuns:
    """Set-up processes and time-to-gap repetitions.

    The host's speed drifts over tens of seconds, so with --trace 0 these
    are interleaved with the workload's commands: each metric then samples
    the whole run instead of one stretch of it. The time-to-gap child stays
    alive between repetitions, blocked on its stdin.
    """

    def __init__(self, runner: Runner, ledger: Ledger, wl: Workload, work: str, seed: int, setup_reps: int, seconds: float):
        self.runner, self.ledger, self.wl, self.work, self.seed = runner, ledger, wl, work, seed
        self.setup_reps, self.seconds = setup_reps, seconds
        self.setups: List[float] = []
        self.setup_runs = 0
        self.provenance: Dict[str, object] = {}
        self.batches: List[Dict[str, object]] = []
        self.batch_runs = 0
        self.spent = 0.0
        self.gaps0: Optional[List[float]] = None
        self.proc: Optional[subprocess.Popen] = None
        self.alive = False

    def start(self) -> None:
        self.ledger.attempt("ttg")
        self.err = open(os.path.join(self.work, "logs", "ttg.stderr"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "child.py"), "ttg", self.wl.name, self.work, str(self.seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.err, env=self.runner.env, cwd=ROOT, text=True)
        self.killer = threading.Timer(max(0.0, self.runner.deadline - time.monotonic()), self.proc.kill)
        self.killer.start()
        self.alive = True
        first = self._answer()
        if first is not None:
            self.gaps0 = first["gaps0"]

    def _answer(self) -> Optional[Dict[str, object]]:
        line = self.proc.stdout.readline()
        if not line:
            self.ledger.fail("ttg", "the time-to-gap process ended early")
            self.alive = False
            return None
        try:
            doc = json.loads(line)
        except ValueError:
            self.ledger.fail("ttg", f"unreadable answer from the time-to-gap process: {line[:200]!r}")
            return None
        for op, reason in doc["ops"]:
            self.ledger.attempt(op)
            if reason:
                self.ledger.fail(op, reason)
        return doc

    def pending(self) -> bool:
        ttg_left = self.alive and (self.batch_runs == 0 or self.spent < self.seconds)
        return ttg_left or self.setup_runs < self.setup_reps

    def step(self) -> None:
        if self.setup_runs < self.setup_reps:
            i = self.setup_runs
            self.setup_runs += 1
            res, ans = self.runner.child(self.ledger, f"setup.{i}", ["setup", self.wl.name, self.work, str(self.seed)],
                                         os.path.join(self.work, "logs", f"setup.{i}.stdout"))
            if ans is not None:
                self.setups.append(res["wall_s"])
                self.provenance = ans
        if self.alive and (self.batch_runs == 0 or self.spent < self.seconds):
            t0 = time.perf_counter()
            self.batch_runs += 1
            try:
                self.proc.stdin.write("batch\n")
                self.proc.stdin.flush()
            except OSError:
                pass  # the child is gone; reading its answer records the failure
            doc = self._answer()
            self.spent += time.perf_counter() - t0
            if doc is not None and doc["ok"]:
                self.batches.append(doc)

    def close(self) -> None:
        if self.proc is None:
            return
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        self.proc.wait()
        self.killer.cancel()
        self.err.close()
        self.ledger.check("ttg", self.proc.returncode == 0, f"time-to-gap process exit code {self.proc.returncode}")


# ---------------------------------------------------------------- checks

def load_fingerprints() -> Dict[str, object]:
    with open(FINGERPRINTS, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_fingerprints(ledger: Ledger, wl: Workload, seed: int, fps: Dict[str, Dict[str, object]]) -> str:
    """Compare against the recorded fingerprint of this workload and seed, if any."""
    book = load_fingerprints()
    recorded = book["workloads"].get(wl.name, {}).get(str(seed))
    if recorded is None:
        return f"no fingerprint recorded for seed {seed}; invariant checks only"
    tol = book["tolerance"]
    bad_total = 0
    for op, got in fps.items():  # an operation with no fingerprint has failed already
        bad = fingerprint_mismatches(recorded.get(op, {}), got, tol["rtol"], tol["atol"])
        for msg in bad:
            ledger.fail(op, f"fingerprint {msg}")
        bad_total += len(bad)
    return f"fingerprint for seed {seed}: {'match' if bad_total == 0 else f'{bad_total} mismatches'}"


def outputs_identical(ledger: Ledger, wl: Workload, work: str, seed: int) -> None:
    """The traced pass must reproduce the untraced outputs byte for byte:
    every file the commands wrote and their standard output."""
    seen = set()
    for cmd in wl.commands(work, seed):
        op = "traced." + cmd.op
        pairs = [(os.path.join(work, "logs_plain", f"{cmd.op}.stdout"), stdout_path(work, cmd.op))]
        if cmd.out and cmd.out not in seen:
            seen.add(cmd.out)
            plain_dir = os.path.join(work, "out_plain", os.path.relpath(cmd.out, out_dir(work)))
            for dirpath, _, files in os.walk(plain_dir):
                for name in files:
                    a = os.path.join(dirpath, name)
                    pairs.append((a, os.path.join(cmd.out, os.path.relpath(a, plain_dir))))
        for a, b in pairs:
            ledger.check(op, os.path.isfile(a) and os.path.isfile(b) and filecmp.cmp(a, b, shallow=False),
                         f"{b} differs from the untraced run's {a}")


def cli_trace_matches(ledger: Ledger, wl: Workload, work: str, gaps0: Optional[List[float]]) -> None:
    """The warm-up's chunked solve/resume of instance 0 must reproduce the
    CLI's avgfw trace bit for bit, up to the gap crossing."""
    if gaps0 is None:
        return  # the warm-up solve failed and was counted
    op = "ttg.r0.i0"
    path = os.path.join(out_dir(work), wl.primary.cli_trace)
    try:
        cli = column(path, "gap")
    except (OSError, ValueError) as err:
        ledger.fail(op, f"no CLI trace to compare against: {err}")
        return
    ledger.check(op, cli[: len(gaps0)] == gaps0, f"chunked solve/resume gaps differ from {path}")


# ---------------------------------------------------------------- per-layer aggregation

def layer_metrics(docs: List[Dict[str, object]]) -> Tuple[Dict[str, float], Dict[str, Dict[str, object]]]:
    """Per-layer metrics from the span dumps of one traced pass.

    Returns the metrics and, for every span name, its duration summary
    (median, tail, count, total and self total; durations in seconds).
    """
    durs: Dict[str, List[float]] = defaultdict(list)
    selfs: Dict[str, float] = defaultdict(float)
    values: Dict[str, float] = defaultdict(float)
    peaks: Dict[str, float] = defaultdict(float)
    in_solve = {"objectives.vg": 0.0, "domains.lmo": 0.0}
    gradient_outside = 0
    ref_iters, ref_s = 0.0, 0.0
    for doc in docs:
        names = doc["names"]
        name = [names[i] for i in doc["name"]]
        start, end, parent = doc["start_ns"], doc["end_ns"], doc["parent"]
        solve_seen = 0
        for i, nm in enumerate(name):
            d = (end[i] - start[i]) / 1e9
            durs[nm].append(d)
            selfs[nm] += doc["self_ns"][i] / 1e9
            v = doc["value"][i]
            values[nm] += v
            peaks[nm] = max(peaks[nm], v)
            ancestors = []
            p = parent[i]
            while p >= 0:
                ancestors.append(name[p])
                p = parent[p]
            if nm in in_solve and "solvers.solve" in ancestors:
                in_solve[nm] += d
            if nm == "objectives.gradient" and "objectives.vg" not in ancestors:
                gradient_outside += 1
            if nm == "solvers.solve" and doc["argv"][0] == "compare":
                # compare solves fw, then avgfw, then the long reference run
                solve_seen += 1
                if solve_seen >= 3:
                    ref_iters += v
                    ref_s += d

    total = lambda nm: math.fsum(durs.get(nm, []))  # noqa: E731
    count = lambda nm: len(durs.get(nm, []))  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    m: Dict[str, float] = {}
    m["experiments.build_s"] = total("experiments.build")
    m["experiments.svmlight_write_s"] = total("experiments.svmlight_write")
    m["experiments.svmlight_bytes"] = values.get("experiments.svmlight_write", 0.0)
    m["experiments.split_s"] = total("experiments.split")
    for span, (calls, metric) in PER_CALL_SPANS.items():
        s = summarize([d * 1e6 for d in durs.get(span, [])])
        m[calls] = s["n"]
        m[metric] = s["median"] or 0.0
        m[metric + "_tail"] = s["tail"] or 0.0
    solve_s = total("solvers.solve")
    m["objectives.vg_share"] = ratio(in_solve["objectives.vg"], solve_s)
    m["objectives.vg_gbps_computed"] = ratio(values.get("objectives.vg", 0.0), total("objectives.vg")) / 1e9
    m["objectives.lipschitz_calls"] = count("objectives.lipschitz")
    m["objectives.lipschitz_s"] = total("objectives.lipschitz")
    m["objectives.gradient_calls"] = gradient_outside
    m["domains.lmo_share"] = ratio(in_solve["domains.lmo"], solve_s)
    iters = values.get("solvers.solve", 0.0)
    m["solvers.iters"] = iters
    m["solvers.us_per_iter"] = ratio(solve_s, iters) * 1e6
    m["solvers.self_us_per_iter"] = ratio(selfs.get("solvers.solve", 0.0), iters) * 1e6
    m["solvers.reference_iters"] = ref_iters
    m["solvers.reference_s"] = ref_s
    steps = values.get("flows.integrate", 0.0)
    m["flows.steps"] = steps
    m["flows.us_per_step"] = ratio(total("flows.integrate"), steps) * 1e6
    m["flows.self_us_per_step"] = ratio(selfs.get("flows.integrate", 0.0), steps) * 1e6
    m["diagnostics.identify_manifold_s"] = total("diagnostics.identify_manifold")
    m["diagnostics.identify_peak_mb"] = peaks.get("diagnostics.identify_manifold", 0.0) / 2**20
    m["diagnostics.support_set_s"] = total("diagnostics.support_set")
    m["diagnostics.fit_rate_s"] = total("diagnostics.fit_rate")
    m["diagnostics.support_trajectory_s"] = total("diagnostics.support_trajectory")
    m["cli.import_s"] = math.fsum(doc["import_s"] for doc in docs)
    m["cli.self_s"] = selfs.get("cli.command", 0.0)
    m["cli.read_trace_s"] = total("cli.read_trace")
    m["svg.line_chart_s"] = total("svg.line_chart")
    m["svg.points"] = values.get("svg.line_chart", 0.0)

    table = {}
    for nm, ds in sorted(durs.items()):
        s = summarize(ds)
        s["self_total"] = selfs[nm]
        table[nm] = s
    return m, table


# ---------------------------------------------------------------- provenance

def machine_facts() -> Dict[str, object]:
    facts: Dict[str, object] = {"nproc": os.cpu_count()}
    try:
        facts["nproc_affinity"] = len(os.sched_getaffinity(0))
    except AttributeError:
        pass
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        try:
            with open(os.path.join(base, "level"), encoding="ascii") as fh:
                level = fh.read().strip()
            with open(os.path.join(base, "size"), encoding="ascii") as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level == "3":
            facts["l3"] = size
    facts["git_commit"] = git_commit()
    return facts


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; the
    benchmark may also run from an exported tree with no .git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# ---------------------------------------------------------------- run

def measure(wl: Workload, seed: int, seconds: int, trace: bool) -> Tuple[Ledger, Dict[str, float], Dict[str, object]]:
    deadline = time.monotonic() + RUN_BUDGET_S
    runner = Runner(deadline)
    ledger = Ledger()
    work = os.path.join(WORK_ROOT, wl.name, f"seed{seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    report: Dict[str, object] = {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
                                 "load": "closed loop, 1 client, commands in sequence, each in a cold process",
                                 "machine": machine_facts()}
    # compile bytecode and warm the file cache once, outside every measurement
    runner.run([sys.executable, "-c", "import avgfw.cli"], os.path.join(work, "logs", "warmup.stdout"))
    wl.prepare(work)
    side = SideRuns(runner, ledger, wl, work, seed, 1 if trace else SETUP_REPS, 0 if trace else seconds)

    commands = wl.commands(work, seed)
    plain = []
    ready = not trace and wl.primary.after is None
    if ready:
        side.start()
        side.step()
    for i, cmd in enumerate(commands):
        plain.append(run_command(runner, cmd, work, ledger, False, i))
        if not trace and cmd.op == wl.primary.after:
            ready = True
            side.start()
        if ready:
            side.step()
    report["commands"] = [{k: r[k] for k in ("op", "argv", "wall_s", "rc", "maxrss_mb")} for r in plain]
    wall_s = math.fsum(r["wall_s"] for r in plain)

    if trace:
        for sub in ("out", "logs"):
            os.replace(os.path.join(work, sub), os.path.join(work, sub + "_plain"))
        traced = [run_command(runner, cmd, work, ledger, True, i) for i, cmd in enumerate(commands)]
        outputs_identical(ledger, wl, work, seed)
        side.start()
    while side.pending():
        side.step()
    side.close()

    fps = wl.checks(work, ledger)
    cli_trace_matches(ledger, wl, work, side.gaps0)
    report["provenance"] = side.provenance
    batches = side.batches
    if batches:
        fps["ttg.r1.i0"] = {"ttg.iters_to_gap": batches[0]["iters_to_gap"]}
    report["ttg"] = {"reps": len(batches), "iters_to_gap": batches[0]["iters_to_gap"] if batches else None,
                     "time_to_gap_s": [b["time_to_gap_s"] for b in batches],
                     "solve_iters_per_s": [b["solve_iters_per_s"] for b in batches]}
    setups = side.setups
    report["primary"] = {"eps": wl.primary.eps, "instances": wl.primary.instances, "chunk": wl.primary.chunk}
    report["fingerprint"] = dict(fps)
    report["fingerprint_check"] = check_fingerprints(ledger, wl, seed, fps)

    metrics: Dict[str, float] = {}
    if not trace:
        metrics["wall_s"] = wall_s
        metrics["setup_s"] = statistics.median(setups) if setups else 0.0
        metrics["time_to_gap_s"] = statistics.median(b["time_to_gap_s"] for b in batches) if batches else 0.0
        metrics["solve_iters_per_s"] = statistics.median(b["solve_iters_per_s"] for b in batches) if batches else 0.0
        metrics["peak_rss_mb"] = max(r["maxrss_mb"] for r in plain)
        report["setup_samples_s"] = setups
        return ledger, metrics, report

    env1 = dict(runner.env, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    _, vg1 = runner.child(ledger, "vg.1t", ["vg", wl.name, work, str(seed)], os.path.join(work, "logs", "vg.1t.stdout"), env1)
    docs = []
    for r in traced:
        try:
            with open(r["spans"], "r", encoding="ascii") as fh:
                docs.append(json.load(fh))
        except (OSError, ValueError) as err:
            ledger.fail(r["op"], f"no span dump: {err}")
    metrics, table = layer_metrics(docs)
    metrics["objectives.vg_us_1t"] = vg1["vg_us"] if vg1 else 0.0
    metrics["solvers.iters_to_gap"] = batches[0]["iters_to_gap"] if batches else 0
    metrics["cli.output_bytes"] = output_bytes(work)
    traced_wall = math.fsum(r["wall_s"] for r in traced)
    metrics["trace.overhead_s"] = traced_wall - wall_s
    metrics["trace.overhead_frac"] = (traced_wall - wall_s) / wall_s
    report["spans"] = table
    report["spans_missing"] = sorted({m for d in docs for m in d.get("missing", [])})
    report["vg_1t_blas"] = vg1["blas"] if vg1 else None
    report["traced_wall_s"] = traced_wall
    report["untraced_wall_s"] = wall_s
    return ledger, {name: metrics[name] for name, _, _ in PER_LAYER}, report


def output_bytes(work: str) -> int:
    """Bytes the commands wrote: their output files and standard output."""
    total = 0
    for base in (out_dir(work), os.path.join(work, "logs")):
        for dirpath, _, files in os.walk(base):
            for name in files:
                if base == out_dir(work) or (name.endswith(".stdout") and not name.startswith(("setup", "ttg", "vg", "warmup"))):
                    total += os.path.getsize(os.path.join(dirpath, name))
    return total


def fmt(v: object) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_report(ledger: Ledger, metrics: Dict[str, float], report: Dict[str, object], units: Dict[str, str]) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}")
    print(f"load: {report['load']}")
    for key, val in report["machine"].items():
        print(f"machine.{key} = {val}")
    for key, val in report.get("provenance", {}).items():
        print(f"provenance.{key} = {val}")
    for c in report["commands"]:
        print(f"command {c['op']:<24} {c['wall_s']:8.3f} s  rss {c['maxrss_mb']:7.1f} MB  exit {c['rc']}")
    if "setup_samples_s" in report:
        s = summarize(report["setup_samples_s"])
        print(f"setup samples: n={s['n']} median={fmt(s['median'])} s tail="
              + (f"p{s['tail_pct']:g} {fmt(s['tail'])} s" if s["tail"] is not None else "n/a (fewer than 20 samples)"))
    if "ttg" in report:
        t = report["ttg"]
        print(f"time to gap: eps {report['primary']['eps']:g}, {report['primary']['instances']} instances, "
              f"{t['reps']} repetitions, {t['iters_to_gap']} iterations per repetition")
    for name, s in report.get("spans", {}).items():
        tail = f"p{s['tail_pct']:g} {s['tail'] * 1e6:.3f} us" if s["tail"] is not None else "tail n/a"
        print(f"span {name:<34} n={s['n']:<8} median {s['median'] * 1e6:12.3f} us  {tail:<22} "
              f"total {s['total']:9.4f} s  self {s['self_total']:9.4f} s")
    if report.get("spans_missing"):
        print(f"span entry points not found: {', '.join(report['spans_missing'])}")
    print(report["fingerprint_check"])
    for op, reasons in ledger.failures.items():
        for reason in reasons:
            print(f"FAILED {op}: {reason}")
    print(f"operations attempted {len(ledger.attempted)}, failed {ledger.failed}, fail_frac = {ledger.fail_frac:g} ratio")
    for name, val in metrics.items():
        print(f"{name} = {fmt(val)} {units[name]}")


def record(wl: Workload, seed: int, fps: Dict[str, Dict[str, object]]) -> None:
    book = load_fingerprints()
    book["workloads"].setdefault(wl.name, {})[str(seed)] = fps
    for name in book["workloads"]:
        book["workloads"][name] = dict(sorted(book["workloads"][name].items(), key=lambda kv: int(kv[0])))
    with open(FINGERPRINTS, "w", encoding="utf-8") as fh:
        json.dump(book, fh, indent=1, sort_keys=False)
        fh.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-fingerprint", action="store_true",
                        help="store this seed's fingerprint in fingerprints.json if every check passes")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "avgfw", "cli.py")):
        print(f"error: {ROOT} has no src/avgfw; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    os.chdir(ROOT)
    wl = WORKLOADS[args.workload]
    ledger, metrics, report = measure(wl, args.seed, args.seconds, bool(args.trace))
    units = {n: u for n, u in END_TO_END}
    units.update({n: u for n, u, _ in PER_LAYER})
    print_report(ledger, metrics, report, units)
    report.update(attempted=len(ledger.attempted), failed=ledger.failed, failures=ledger.failures, metrics=metrics)
    work = os.path.join(WORK_ROOT, wl.name, f"seed{args.seed}")
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)
    if args.record_fingerprint and ledger.failed == 0:
        record(wl, args.seed, report["fingerprint"])
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": len(ledger.attempted),
        "failed": ledger.failed,
        "metrics": {name: {"value": val, "unit": units[name]} for name, val in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

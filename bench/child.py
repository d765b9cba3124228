"""Child processes of the benchmark; each mode prints one JSON object.

  setup WORKLOAD WORK SEED            import avgfw.cli and build the workload's
                                      problem instances, report provenance
  ttg WORKLOAD WORK SEED              time the averaged solver, in chunks of
                                      solve/resume, to eps * gap_0 on the
                                      primary instances, one repetition per
                                      "batch" line on stdin
  vg WORKLOAD WORK SEED               median value_and_gradient time on the
                                      primary instance (run with one BLAS thread)
  cli SPANS -- ARGV...                run one avgfw command with spans around
                                      the calls into each module; write SPANS

The ttg mode answers one JSON line per request instead. Run from the
repository root with src/ on PYTHONPATH.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import random
import statistics
import sys
import time
from typing import Dict, List, Optional

from stats import self_times
from workloads import WORKLOADS, logistic_data


def derived_seed(seed: int, j: int) -> int:
    """Seed of primary instance j: the run's seed for j = 0, else a fixed function of it."""
    return seed if j == 0 else random.Random(f"{seed}:{j}").getrandbits(31)


def build_primary(name: str, work: str, seed: int, j: int, alpha_scale: Optional[float] = None):
    from avgfw import DomainSet, Kind
    from avgfw.experiments import SyntheticCSSpec, generate_cs, generate_sparse_logistic, load_svmlight

    p = WORKLOADS[name].primary
    s = derived_seed(seed, j)
    if p.kind == "cs":
        spec = SyntheticCSSpec(n_features=int(p.params["n"]), m_measurements=int(p.params["m"]), noise_std=0.0, seed=s)
        obj, dom, _ = generate_cs(spec)
        scale = p.params["alpha_scale"] if alpha_scale is None else alpha_scale
        return obj, DomainSet(Kind.L1_BALL, scale * dom.alpha, dom.n)
    n = int(p.params["n"])
    if j == 0:
        obj = load_svmlight(logistic_data(work), n_features_hint=n)
    else:
        obj = generate_sparse_logistic(m=int(p.params["m"]), n=n, density=p.params["density"], seed=s)
    return obj, DomainSet(Kind.L1_BALL, p.params["alpha"], obj.n)


def matrix_bytes(obj) -> int:
    """Bytes of the data matrix one gradient reads (computed from array sizes)."""
    import scipy.sparse as sp

    M = getattr(obj, "A", None)
    if M is None:
        M = getattr(obj, "Z", None)
    if M is None:
        return 0
    if sp.issparse(M):
        return int(M.data.nbytes + M.indices.nbytes + M.indptr.nbytes)
    return int(M.nbytes)


def blas_info() -> Dict[str, object]:
    import numpy as np

    info: Dict[str, object] = {"name": np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]}
    try:
        with open("/proc/self/maps", "r", encoding="ascii", errors="replace") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    except OSError:
        libs = []
    for path in libs[:1]:
        lib = ctypes.CDLL(path)
        for sym, restype, key in (
            ("scipy_openblas_get_num_threads64_", ctypes.c_int, "threads"),
            ("openblas_get_num_threads64_", ctypes.c_int, "threads"),
            ("openblas_get_num_threads", ctypes.c_int, "threads"),
            ("scipy_openblas_get_config64_", ctypes.c_char_p, "config"),
            ("openblas_get_config64_", ctypes.c_char_p, "config"),
            ("openblas_get_config", ctypes.c_char_p, "config"),
        ):
            fn = getattr(lib, sym, None)
            if fn is not None and key not in info:
                fn.restype = restype
                val = fn()
                info[key] = val.decode() if isinstance(val, bytes) else int(val)
    return info


# ---------------------------------------------------------------- setup

def mode_setup(name: str, work: str, seed: int) -> Dict[str, object]:
    t0 = time.perf_counter()
    import avgfw.cli  # noqa: F401  (the import a user's first command pays)
    import numpy
    import scipy

    t_import = time.perf_counter() - t0
    p = WORKLOADS[name].primary
    sizes = []
    for scale in p.setup_scales:
        obj, _ = build_primary(name, work, seed, 0, alpha_scale=scale)
        sizes.append(matrix_bytes(obj))
    return {
        "import_s": t_import,
        "build_s": time.perf_counter() - t0 - t_import,
        "matrix_bytes": max(sizes),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "avgfw": getattr(sys.modules["avgfw"], "__version__", "unknown"),
        "blas": blas_info(),
    }


# ---------------------------------------------------------------- time to gap

def chunked_run(obj, dom, p) -> Dict[str, object]:
    """Averaged solver in chunks of solve/resume until gap <= eps * gap_0.

    Returns the crossing iteration, the interpolated time to it, the
    iterations run and the time inside solve/resume, and the gap sequence
    up to the crossing (to check determinism and agreement with the CLI).
    """
    import numpy as np
    from avgfw import Schedule, SolverConfig, Variant, resume, solve

    cfg = SolverConfig(Variant.AVGFW, Schedule(3.0, 1.0), max_iters=p.chunk)
    gaps: List[np.ndarray] = []
    elapsed = 0.0
    state = None
    target = None
    while True:
        t0 = time.perf_counter()
        trace = solve(obj, dom, cfg) if state is None else resume(state, obj, dom, cfg)
        dt = time.perf_counter() - t0
        state = trace.state
        if target is None:
            target = p.eps * float(trace.gap[0])
        gaps.append(trace.gap)
        hit = np.flatnonzero(trace.gap <= target)
        if hit.size:
            done = int(hit[0]) + 1  # iterations of this chunk needed to reach the gap
            k_star = int(trace.ks[hit[0]])
            seq = np.concatenate(gaps)[: k_star + 1]
            return {
                "k": k_star,
                "time_s": elapsed + dt * done / p.chunk,
                "iters": state.k,
                "solve_s": elapsed + dt,
                "gaps": seq,
            }
        elapsed += dt
        if state.k >= p.cap:
            raise RuntimeError(f"gap {p.eps:g} * gap_0 not reached within {p.cap} iterations")


def serve_ttg(name: str, work: str, seed: int) -> None:
    """Answer one JSON line per request on stdin, so the parent can spread
    the in-process measurement over its whole run.

    On start: build the K primary instances and solve instance 0 once as a
    warm-up (repetition 0); answer with its gap sequence. On each "batch"
    line: solve every instance once (the next repetition) and answer with
    the summed time to gap, the iteration rate and the operations. Every
    repetition must reproduce repetition 0's gap sequence of an instance.
    """
    p = WORKLOADS[name].primary
    problems = [build_primary(name, work, seed, j) for j in range(p.instances)]
    digests: Dict[int, str] = {}

    def attempt(rep: int, j: int, ops: List[List[Optional[str]]]):
        op = f"ttg.r{rep}.i{j}"
        try:
            res = chunked_run(*problems[j], p)
        except Exception as err:  # any failure of the program counts against it
            ops.append([op, f"{type(err).__name__}: {err}"])
            return None
        digest = hashlib.sha256(res["gaps"].tobytes()).hexdigest()
        reason = None if digests.setdefault(j, digest) == digest else "gap sequence differs from the first repetition"
        ops.append([op, reason])
        return None if reason else res

    def answer(doc: Dict[str, object]) -> None:
        sys.stdout.write(json.dumps(doc) + "\n")
        sys.stdout.flush()

    ops: List[List[Optional[str]]] = []
    warm = attempt(0, 0, ops)
    answer({"ops": ops, "gaps0": None if warm is None else warm["gaps"].tolist()})
    rep = 1
    for line in sys.stdin:
        if line.strip() != "batch":
            break
        ops = []
        results = [attempt(rep, j, ops) for j in range(p.instances)]
        doc: Dict[str, object] = {"ops": ops, "ok": all(r is not None for r in results)}
        if doc["ok"]:
            doc.update(
                iters_to_gap=sum(r["k"] for r in results),
                time_to_gap_s=sum(r["time_s"] for r in results),
                solve_iters_per_s=sum(r["iters"] for r in results) / sum(r["solve_s"] for r in results),
                solve_s=sum(r["solve_s"] for r in results),
            )
        answer(doc)
        rep += 1


# ---------------------------------------------------------------- gradient timing

def mode_vg(name: str, work: str, seed: int) -> Dict[str, object]:
    import numpy as np

    obj, dom = build_primary(name, work, seed, 0)
    x = np.full(dom.n, dom.alpha / dom.n)
    for _ in range(3):
        obj.value_and_gradient(x)
    samples = []
    t_end = time.perf_counter() + 1.0
    while time.perf_counter() < t_end or len(samples) < 20:
        t0 = time.perf_counter_ns()
        obj.value_and_gradient(x)
        samples.append((time.perf_counter_ns() - t0) / 1000.0)
    return {"vg_us": statistics.median(samples), "n": len(samples), "blas": blas_info()}


# ---------------------------------------------------------------- traced CLI

class Recorder:
    """Spans kept in memory, column-wise, and written out once at exit."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_ids: Dict[str, int] = {}
        self.name: List[int] = []
        self.start: List[int] = []
        self.end: List[int] = []
        self.parent: List[int] = []
        self.value: List[float] = []
        self.stack: List[int] = []

    def wrap(self, span: str, fn, value=None):
        """``fn`` with a span around each call; ``value(args, kwargs, result)``
        gives the span's work count (iterations, points, bytes)."""
        nid = self.name_ids.setdefault(span, len(self.name_ids))
        if nid == len(self.names):
            self.names.append(span)
        rec = self

        def traced(*args, **kwargs):
            idx = len(rec.name)
            rec.name.append(nid)
            rec.parent.append(rec.stack[-1] if rec.stack else -1)
            rec.end.append(0)
            rec.value.append(0.0)
            rec.stack.append(idx)
            rec.start.append(time.perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[idx] = time.perf_counter_ns()
                rec.stack.pop()
            if value is not None:
                rec.value[idx] = float(value(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str, extra: Dict[str, object]) -> None:
        selfs = self_times(self.start, self.end, self.parent)
        t0 = min(self.start) if self.start else 0
        doc = dict(extra)
        doc.update({
            "names": self.names,
            "name": self.name,
            "start_ns": [s - t0 for s in self.start],
            "end_ns": [e - t0 for e in self.end],
            "parent": self.parent,
            "self_ns": selfs,
            "value": self.value,
        })
        with open(path, "w", encoding="ascii") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def traced_peak(fn):
    """Wrap ``fn`` so the span value is the peak traced allocation of the call."""
    import tracemalloc

    peak = {}

    def run(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak["bytes"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()

    return run, lambda a, k, r: peak.get("bytes", 0)


def install_spans(rec: Recorder) -> List[str]:
    """Patch each public function where its caller looks it up; return what
    could not be found, so a renamed entry point shows instead of vanishing."""
    import avgfw._svg
    import avgfw.cli
    import avgfw.diagnostics
    import avgfw.flows
    import avgfw.objectives
    import avgfw.solvers

    missing: List[str] = []
    iters = lambda a, k, r: (a[2] if len(a) > 2 else k["cfg"]).max_iters  # noqa: E731

    def flow_steps(a, k, r):
        cfg = a[2] if len(a) > 2 else (a[0] if len(a) == 2 else k["cfg"])
        return int(round(cfg.t_end / cfg.dt)) + 1

    def file_bytes(a, k, r):
        return os.path.getsize(a[1] if len(a) > 1 else k["path"])

    def points(a, k, r):
        return sum(len(series[1]) for series in (a[0] if a else k["series"]))

    vg_bytes_by_obj: Dict[int, int] = {}

    def vg_bytes(a, k, r):
        # computed, not measured: A x and A^T r each read the data matrix once
        key = id(a[0])
        if key not in vg_bytes_by_obj:
            vg_bytes_by_obj[key] = 2 * matrix_bytes(a[0])
        return vg_bytes_by_obj[key]

    table = [
        (avgfw.cli, "generate_cs", "experiments.build", None),
        (avgfw.cli, "generate_l2ball_quadratic", "experiments.build", None),
        (avgfw.cli, "generate_sparse_logistic", "experiments.build", None),
        (avgfw.cli, "load_svmlight", "experiments.build", None),
        (avgfw.cli, "write_svmlight", "experiments.svmlight_write", file_bytes),
        (avgfw.cli, "train_val_split", "experiments.split", None),
        (avgfw.cli, "lipschitz_bound", "objectives.lipschitz", None),
        (avgfw.cli, "solve", "solvers.solve", iters),
        (avgfw.cli, "integrate", "flows.integrate", flow_steps),
        (avgfw.cli, "force_signal", "flows.integrate", flow_steps),
        (avgfw.cli, "fit_rate", "diagnostics.fit_rate", None),
        (avgfw.cli, "support_trajectory", "diagnostics.support_trajectory", None),
        (avgfw.cli, "read_trace_csv", "cli.read_trace", None),
        (avgfw.diagnostics, "support_set", "diagnostics.support_set", None),
        (avgfw._svg, "line_chart", "svg.line_chart", points),
        (avgfw.solvers, "lmo", "domains.lmo", None),
        (avgfw.solvers, "beta", "schedules", None),
        (avgfw.solvers, "gamma", "schedules", None),
        (avgfw.flows, "lmo", "domains.lmo", None),
        (avgfw.flows, "contains", "domains.contains", None),
        (avgfw.flows, "beta_t", "schedules", None),
        (avgfw.flows, "gamma_t", "schedules", None),
    ]
    table += [(avgfw.cli, f"cmd_{c}", "cli.command", None) for c in ("solve", "compare", "flow", "sweep", "diag", "gen_data")]
    for cls in ("QuadraticLS", "Logistic", "Scalar1D"):
        klass = getattr(avgfw.objectives, cls, None)
        table.append((klass, "value_and_gradient", "objectives.vg", vg_bytes))
        table.append((klass, "gradient", "objectives.gradient", None))
    for owner, attr, span, value in table:
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            continue
        setattr(owner, attr, rec.wrap(span, fn, value))
    fn = getattr(avgfw.cli, "identify_manifold", None)
    if fn is None:
        missing.append("avgfw.cli.identify_manifold")
    else:
        peak_fn, peak_value = traced_peak(fn)
        avgfw.cli.identify_manifold = rec.wrap("diagnostics.identify_manifold", peak_fn, peak_value)
    return missing


def mode_cli(spans_path: str, argv: List[str]) -> int:
    t0 = time.perf_counter()
    import avgfw.cli

    import_s = time.perf_counter() - t0
    rec = Recorder()
    missing = install_spans(rec)
    try:
        rc = avgfw.cli.main(argv)
    finally:
        rec.dump(spans_path, {"argv": argv, "import_s": import_s, "missing": missing})
    return rc


# ---------------------------------------------------------------- entry

def main(argv: List[str]) -> int:
    mode = argv[0]
    if mode == "cli":
        if len(argv) < 3 or argv[2] != "--":
            raise SystemExit("usage: child.py cli SPANS -- ARGV...")
        return mode_cli(argv[1], argv[3:])
    name, work, seed = argv[1], argv[2], int(argv[3])
    if mode == "setup":
        out = mode_setup(name, work, seed)
    elif mode == "ttg":
        serve_ttg(name, work, seed)
        return 0
    elif mode == "vg":
        out = mode_vg(name, work, seed)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Command-line harness: configuration, run orchestration, CSV and report emission.

Subcommands:
  solve     run one solver on the configured problem, write trace.csv
  compare   run both solvers, write paired traces, summary, optional SVGs
  flow      integrate the configured flow (or the forced-signal hook)
  sweep     radius sweep for classification problems, validation loss per alpha
  diag      re-fit decay rates on an existing trace CSV
  gen-data  emit a synthetic sparse svmlight file

Configs are flat INI-style ``key = value`` files with [problem], [solver],
[flow], [compare], [sweep], and [output] sections. ``SCHEMA`` declares every
accepted key with its type and default; unknown sections and keys are
rejected, as is a [problem] key that the configured kind does not read
(``PROBLEM_KEYS``; see README for the grammar).
Exit codes: 0 success, 2 configuration problems, 3 numerical failures.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from . import _svg
from .diagnostics import (
    Series,
    fit_rate,
    identify_manifold,
    render_report,
    support_trajectory,
)
from .domains import DomainSet, Kind
from .errors import (
    AvgFWError,
    BrokenOracle,
    ConfigError,
    DegenerateGradient,
    InsufficientData,
    LabelError,
    NumericalBlowup,
    ParseError,
    StepTooLarge,
)
from .experiments import (
    SyntheticCSSpec,
    generate_cs,
    generate_l2ball_quadratic,
    generate_sparse_logistic,
    load_svmlight,
    train_val_split,
    write_svmlight,
)
from .flows import FlowConfig, force_signal, integrate
from .objectives import Logistic, Scalar1D, lipschitz_bound
from .schedules import Schedule
from .solvers import IterateTrace, SolverConfig, Variant, resume, solve

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

TRACE_COLUMNS = "k,f,gap,disc_err,gamma,beta,atom_id"


# ---------------------------------------------------------------- config

# Every accepted key, once: section -> key -> (type, default). A default of
# None means the value is derived in code where it is used (from other
# values or from the problem kind), or that the key is required there.
SCHEMA: Dict[str, Dict[str, Tuple[type, object]]] = {
    "problem": {
        "kind": (str, None),
        "n_features": (int, 500),
        "m_measurements": (int, 100),
        "sparsity_frac": (float, 0.10),
        "noise_std": (float, 0.05),
        "alpha": (float, None),
        "alpha_scale": (float, 1.0),
        "path": (str, None),
        "n_features_hint": (int, None),
        "m": (int, 800),
        "n": (int, 1000),
        "density": (float, 0.01),
    },
    "solver": {
        "variant": (Variant, Variant.AVGFW),
        "c": (float, 3.0),
        "p": (float, 1.0),
        "max_iters": (int, 1000),
        "trace_every": (int, 1),
        "x0": (str, "lmo"),
    },
    "flow": {
        "variant": (Variant, Variant.AVGFW),
        "t_end": (float, 10.0),
        "dt": (float, 1e-3),
        "record_every": (float, None),
        "x0": (str, "lmo"),
        "forced_signal": (str, "none"),
    },
    "compare": {
        "window_lo": (int, None),
        "window_hi": (int, None),
        "reference_iters": (int, None),
    },
    "sweep": {
        "train_frac": (float, 0.6),
        "alpha_lo": (float, 1.0),
        "alpha_hi": (float, 100.0),
        "points": (int, 10),
    },
    "output": {
        "dir": (str, None),
        "emit_plots": (bool, False),
        "seed": (int, 0),
    },
}

# The [problem] keys each kind reads besides ``kind``; any other present is an error.
PROBLEM_KEYS: Dict[str, Tuple[str, ...]] = {
    "cs": ("n_features", "m_measurements", "sparsity_frac", "noise_std", "alpha", "alpha_scale"),
    "scalar1d": ("alpha",),
    "l2_quadratic": ("alpha", "alpha_scale"),
    "svmlight": ("path", "n_features_hint", "alpha"),
    "synthetic_logistic": ("m", "n", "density", "alpha"),
}

Config = Dict[str, Dict[str, object]]


def _finite_float(raw: str) -> float:
    val = float(raw)
    if not math.isfinite(val):
        raise ValueError(raw)
    return val


# type -> (parser raising ValueError or KeyError, what the error message expects)
_PARSERS = {
    str: (str, "a string"),
    int: (int, "an integer"),
    float: (_finite_float, "a finite number"),
    bool: (lambda raw: configparser.ConfigParser.BOOLEAN_STATES[raw.lower()], "a boolean"),
    Variant: (lambda raw: Variant(raw.strip().lower()), "fw or avgfw"),
}


def _read_config(path: str) -> Tuple[Config, Dict[str, str]]:
    """Parse a config file against ``SCHEMA``.

    Returns (values, echo): ``values[section][key]`` is the typed value of
    every schema key, its default when absent; ``echo`` maps
    ``section.key`` to the raw string of every key present, in file order.
    """
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh, source=path)
        raw = {section: cp.items(section) for section in cp.sections()}
    except (configparser.Error, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot parse config {path}: {err}") from None
    values = {section: {key: default for key, (_, default) in keys.items()} for section, keys in SCHEMA.items()}
    echo: Dict[str, str] = {}
    for section, items in raw.items():
        if section not in SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, text in items:
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown key [{section}] {key}")
            parse, expected = _PARSERS[SCHEMA[section][key][0]]
            try:
                values[section][key] = parse(text)
            except (ValueError, KeyError):
                raise ConfigError(f"[{section}] {key} must be {expected}, got {text!r}") from None
            echo[f"{section}.{key}"] = text
    kind = (values["problem"]["kind"] or "").strip().lower()
    if kind in PROBLEM_KEYS:  # an unknown kind is reported where the problem is built
        for key, _ in raw.get("problem", ()):
            if key != "kind" and key not in PROBLEM_KEYS[kind]:
                raise ConfigError(f"[problem] {key} is not read by kind = {kind}, which reads {', '.join(PROBLEM_KEYS[kind])}")
        if {"alpha", "alpha_scale"} <= {key for key, _ in raw.get("problem", ())}:
            raise ConfigError(f"[problem] alpha and alpha_scale are both set; kind = {kind} reads one or the other")
    return values, echo


def _required(cfg: Config, section: str, key: str):
    val = cfg[section][key]
    if val is None:
        raise ConfigError(f"missing [{section}] {key}")
    return val


def _resolve_out_dir(args, configured: Optional[str] = None) -> str:
    out = args.out or configured or os.environ.get("AVGFW_OUT", ".")
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create output directory {out}: {err.strerror}") from None
    return out


def _resolve_seed(args, configured: int = 0) -> int:
    seed = configured if args.seed is None else args.seed
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


def _prepare(args) -> Tuple[Config, Dict[str, str], int, str]:
    """The config and its echo, then the seed, then the output directory."""
    cfg, echo = _read_config(args.config)
    return cfg, echo, _resolve_seed(args, cfg["output"]["seed"]), _resolve_out_dir(args, cfg["output"]["dir"])


# ---------------------------------------------------------------- problems

def _build_problem(cfg: Config, seed: int):
    """Instantiate the configured problem.

    Returns (objective, domain, meta) where meta carries values worth
    echoing: the radius, an f reference when one is known exactly, and
    generator facts.
    """
    prob = cfg["problem"]
    kind = _required(cfg, "problem", "kind").strip().lower()
    alpha = prob["alpha"]
    meta: Dict[str, object] = {"problem.kind": kind}

    if kind == "cs":
        spec = SyntheticCSSpec(
            n_features=prob["n_features"],
            m_measurements=prob["m_measurements"],
            sparsity_frac=prob["sparsity_frac"],
            noise_std=prob["noise_std"],
            seed=seed,
        )
        obj, domain, x0 = generate_cs(spec)
        if alpha is None:
            alpha = prob["alpha_scale"] * domain.alpha
        domain = DomainSet(Kind.L1_BALL, alpha, domain.n)
        meta["ground_truth_nnz"] = int(np.count_nonzero(x0))
        meta["ground_truth_l1"] = float(np.sum(np.abs(x0)))
        if spec.noise_std == 0.0 and alpha >= meta["ground_truth_l1"]:
            meta["f_ref"] = 0.0
        return obj, domain, meta

    if kind == "scalar1d":
        meta["f_ref"] = 0.0
        return Scalar1D(), DomainSet(Kind.BOX, 1.0 if alpha is None else alpha, 1), meta

    if kind == "l2_quadratic":
        obj, domain, x_unc = generate_l2ball_quadratic(1.0, seed=seed)
        norm = float(np.linalg.norm(x_unc))
        if alpha is None:
            alpha = prob["alpha_scale"] * norm
        domain = DomainSet(Kind.L2_BALL, alpha, domain.n)
        meta["unconstrained_norm"] = norm
        return obj, domain, meta

    if kind == "svmlight":
        path = _required(cfg, "problem", "path")
        if not os.path.isfile(path):
            raise ConfigError(f"svmlight file not found: {path}")
        data = load_svmlight(path, n_features_hint=prob["n_features_hint"])
        alpha = _required(cfg, "problem", "alpha")
        meta["samples"] = data.m
        return data, DomainSet(Kind.L1_BALL, alpha, data.n), meta

    if kind == "synthetic_logistic":
        data = generate_sparse_logistic(m=prob["m"], n=prob["n"], density=prob["density"], seed=seed)
        return data, DomainSet(Kind.L1_BALL, 10.0 if alpha is None else alpha, data.n), meta

    raise ConfigError(f"unknown problem kind {kind!r}")


def _parse_x0(cfg: Config, domain: DomainSet, section: str = "solver") -> Optional[np.ndarray]:
    raw = cfg[section]["x0"]
    if raw.strip().lower() == "lmo":
        return None
    try:
        vals = np.array([_finite_float(tok) for tok in raw.split(",")])
    except ValueError:
        raise ConfigError(f"[{section}] x0 must be 'lmo' or comma-separated finite floats, got {raw!r}") from None
    if vals.shape != (domain.n,):
        raise ConfigError(f"[{section}] x0 has {vals.size} entries, expected {domain.n}")
    return vals


def _build_solver_config(cfg: Config, domain: DomainSet) -> SolverConfig:
    return SolverConfig(
        variant=cfg["solver"]["variant"],
        schedule=Schedule(cfg["solver"]["c"], cfg["solver"]["p"]),
        max_iters=cfg["solver"]["max_iters"],
        x0=_parse_x0(cfg, domain),
        trace_every=cfg["solver"]["trace_every"],
    )


# ---------------------------------------------------------------- CSV io

def _fmt_float(v: float) -> str:
    return repr(float(v))


def _write_csv(path: str, header: Dict[str, object], columns: str, rows: Iterable[Iterable[str]]) -> None:
    """A ``# key = value`` comment header, the column line, then the rows."""
    lines = [f"# {key} = {val}" for key, val in header.items()]
    lines.append(columns)
    lines.extend(",".join(row) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def _trace_rows(trace: IterateTrace):
    """TRACE_COLUMNS rows; atom_id is the vertex id at k, empty on the l2 ball."""
    ids = trace.vertex_ids
    for i, k in enumerate(trace.ks):
        floats = (trace.f[i], trace.gap[i], trace.disc_err[i], trace.gamma[i], trace.beta[i])
        atom_id = "" if ids is None else str(int(ids[k - trace.k_start]))
        yield [str(int(k)), *map(_fmt_float, floats), atom_id]


def read_trace_csv(path: str) -> IterateTrace:
    """Rebuild an analyzable trace from a solve/compare CSV.

    The atom ids of the rows are the per-iteration history only when no
    iteration was skipped, so ``vertex_ids`` is None on subsampled traces
    (``trace_every > 1``) as well as on traces without ids. A full history
    starts at the run's first iteration, so ``k_start`` is the first row's
    k (0 otherwise). The file holds no checkpoint, so ``state`` is None.
    """
    if not os.path.isfile(path):
        raise ConfigError(f"trace file not found: {path}")
    ks, rows, ids = [], [], []
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line.isascii():
                raise ParseError(line_no, f"line {line_no}: non-ASCII byte")
            if not line or line.startswith("#") or line == TRACE_COLUMNS:
                continue
            parts = line.split(",")
            if len(parts) != 7:
                raise ParseError(line_no, f"line {line_no}: expected 7 columns, got {len(parts)}")
            try:
                ks.append(int(parts[0]))
                rows.append([float(tok) for tok in parts[1:6]])
                if parts[6]:
                    ids.append(int(parts[6]))
            except ValueError:
                raise ParseError(line_no, f"line {line_no}: bad numeric field") from None
    if not ks:
        raise ParseError(0, f"no data rows in {path}")
    full_history = len(ids) == len(ks) and all(b - a == 1 for a, b in zip(ks, ks[1:]))
    f, gap, disc_err, gamma, beta = np.array(rows).T
    return IterateTrace(
        ks=np.array(ks, dtype=int),
        f=f,
        gap=gap,
        disc_err=disc_err,
        gamma=gamma,
        beta=beta,
        vertex_ids=np.array(ids, dtype=int) if full_history else None,
        state=None,
        k_start=ks[0] if full_history else 0,
    )


# ---------------------------------------------------------------- commands

def _trace_header(echo, lipschitz: float, domain, meta, extra: Dict[str, object]) -> Dict[str, object]:
    header: Dict[str, object] = dict(echo)
    header["alpha"] = _fmt_float(domain.alpha)
    header["dimension"] = domain.n
    header["lipschitz_estimate"] = _fmt_float(lipschitz)
    if "f_ref" in meta:
        header["f_ref"] = _fmt_float(meta["f_ref"])
    for key, val in meta.items():
        if key != "f_ref":
            header[key] = val
    header.update(extra)
    return header


def cmd_solve(args) -> int:
    cfg, echo, seed, out_dir = _prepare(args)
    obj, domain, meta = _build_problem(cfg, seed)
    solver_cfg = _build_solver_config(cfg, domain)
    trace = solve(obj, domain, solver_cfg)
    header = _trace_header(echo, lipschitz_bound(obj), domain, meta, {"variant": solver_cfg.variant.value, "seed": seed})
    path = os.path.join(out_dir, "trace.csv")
    _write_csv(path, header, TRACE_COLUMNS, _trace_rows(trace))
    if not args.quiet:
        print(f"wrote {path} ({trace.ks.size} rows)")
    return EXIT_OK


def _fit_window(
    lo: Optional[int], hi: Optional[int], default: Tuple[int, int], recorded: Tuple[int, int], names: str
) -> Tuple[int, int]:
    """The rate-fit window: the given ends, the default for a missing one.
    A window the user set must satisfy lo < hi, and each end the user set
    is clipped to the ``recorded`` iterations, with a warning on stderr.
    A clipped window, or the default one of a very short run, may be
    empty, and then no fit is reported."""
    window = (default[0] if lo is None else lo, default[1] if hi is None else hi)
    if (lo is not None or hi is not None) and not window[0] < window[1]:
        raise ConfigError(f"{names} must satisfy lo < hi, got {window[0]} and {window[1]}")
    clipped = (
        window[0] if lo is None else min(max(lo, recorded[0]), recorded[1]),
        window[1] if hi is None else min(max(hi, recorded[0]), recorded[1]),
    )
    if clipped != window:
        print(
            f"warning: {names} ask for {window[0]}..{window[1]}, outside the recorded iterations"
            f" {recorded[0]}..{recorded[1]}; fitting over {clipped[0]}..{clipped[1]}",
            file=sys.stderr,
        )
    return clipped


def _rate_fits(traces: Dict[str, IterateTrace], window: Tuple[int, int]) -> Dict[str, Optional[float]]:
    """``slope_{gap,disc}<suffix>`` and ``r2_{gap,disc}<suffix>`` of each
    trace, keyed by suffix; None where the window holds no fit."""
    entries: Dict[str, Optional[float]] = {}
    for name, series in (("gap", Series.GAP), ("disc", Series.DISC_ERR)):
        for suffix, trace in traces.items():
            slope = r2 = None
            if window[0] < window[1]:
                try:
                    fit = fit_rate(trace, series, window)
                    slope, r2 = fit.slope, fit.r_squared
                except InsufficientData:
                    pass
            entries[f"slope_{name}{suffix}"] = slope
            entries[f"r2_{name}{suffix}"] = r2
    return entries


def compare(
    obj, domain: DomainSet, base: SolverConfig, window: Tuple[int, int], reference_iters: int
) -> Tuple[Dict[str, IterateTrace], Dict[str, object]]:
    """The compare protocol in process: it reads no config and writes no file.

    Runs both variants of ``base`` from one start and fits their rates over
    ``window``. On a polyhedral domain it measures identification against
    x*, the averaged run continued to ``max(reference_iters, max_iters)``
    iterations. Returns the traces keyed by variant ("fw", "avgfw") and the
    summary entries from ``window_lo`` on, None where one is undefined.
    """
    traces = {v.value: solve(obj, domain, replace(base, variant=v)) for v in (Variant.FW, Variant.AVGFW)}
    entries: Dict[str, object] = {"window_lo": window[0], "window_hi": window[1]}
    entries.update(_rate_fits({f"_{variant}": trace for variant, trace in traces.items()}, window))
    if domain.is_polyhedral:
        # resume continues the averaged run bitwise, so the reference is
        # that run, extended when reference_iters asks for more; only its
        # last row and final x are read
        reference, extra = traces["avgfw"], reference_iters - base.max_iters
        if extra > 0:
            reference = resume(reference.state, obj, domain, SolverConfig(Variant.AVGFW, base.schedule, extra, trace_every=extra))
        entries["reference_iters"] = max(reference_iters, base.max_iters)
        entries["f_star_estimate"] = reference.f[-1] - reference.gap[-1]
        report = identify_manifold(traces["avgfw"], obj, domain, reference.state.x)
        entries["k_bar"] = report.k_bar
        entries["delta"] = report.delta
        entries["support_star_size"] = len(report.support_star)
        for variant, trace in traces.items():
            entries[f"support_first_{variant}"] = int(support_trajectory(trace)[0])
    return traces, entries


def cmd_compare(args) -> int:
    """Run ``compare`` on the configured problem, then write both traces, the
    summary and, when asked, the plots; a failed run writes nothing."""
    cfg, echo, seed, out_dir = _prepare(args)
    obj, domain, meta = _build_problem(cfg, seed)
    base = _build_solver_config(cfg, domain)
    max_iters = base.max_iters
    reference_iters = cfg["compare"]["reference_iters"]
    if reference_iters is None:
        reference_iters = min(100000, 10 * max_iters)
    if reference_iters < 1:
        raise ConfigError(f"[compare] reference_iters must be >= 1, got {reference_iters}")
    window = _fit_window(
        cfg["compare"]["window_lo"],
        cfg["compare"]["window_hi"],
        (min(100, max(1, max_iters // 10)), max_iters - 1),
        (0, max_iters - 1),
        "[compare] window_lo and window_hi",
    )
    lipschitz = lipschitz_bound(obj)
    traces, entries = compare(obj, domain, base, window, reference_iters)

    for variant, trace in traces.items():
        header = _trace_header(echo, lipschitz, domain, meta, {"variant": variant, "seed": seed})
        _write_csv(os.path.join(out_dir, f"{variant}_trace.csv"), header, TRACE_COLUMNS, _trace_rows(trace))
    summary = {"c": base.schedule.c, "p": base.schedule.p, "alpha": domain.alpha, "max_iters": max_iters, "seed": seed}
    summary_path = os.path.join(out_dir, "summary.txt")
    _write_text(summary_path, render_report({**summary, **entries}))
    if cfg["output"]["emit_plots"]:
        _emit_compare_plots(out_dir, traces, domain)
    if not args.quiet:
        print(f"wrote {summary_path}")
    return EXIT_OK


def _support_points(trace: IterateTrace):
    traj = support_trajectory(trace)
    return list(range(trace.k_start, trace.k_start + traj.size)), traj.tolist()


def _emit_compare_plots(out_dir: str, traces: Dict[str, IterateTrace], domain) -> None:
    # file, title, y label, log-log axes, [ks], [ys] of a trace
    charts = [
        ("gap.svg", "duality gap", "duality gap", True, lambda t: (t.ks.tolist(), t.gap.tolist())),
        ("disc_err.svg", "discretization error", "discretization error", True, lambda t: (t.ks.tolist(), t.disc_err.tolist())),
    ]
    if domain.is_polyhedral:
        charts.append(("support.svg", "working-set size", "distinct atoms from k on", False, _support_points))
    for filename, title, ylabel, loglog, points in charts:
        data = [(variant, *points(trace)) for variant, trace in traces.items()]
        _write_text(os.path.join(out_dir, filename), _svg.line_chart(data, title, "iteration", ylabel, loglog=loglog))


def cmd_flow(args) -> int:
    cfg, echo, seed, out_dir = _prepare(args)

    flow = cfg["flow"]
    record_every = flow["record_every"]
    if record_every is None:
        record_every = max(flow["t_end"] / 200.0, 1e-3)
    forced = flow["forced_signal"].strip().lower()
    if forced not in ("none", "one"):
        raise ConfigError(f"[flow] forced_signal must be none or one, got {forced!r}")
    flow_cfg = FlowConfig(
        variant=flow["variant"],
        schedule=Schedule(cfg["solver"]["c"], cfg["solver"]["p"]),
        t_end=flow["t_end"],
        dt=flow["dt"],
        record_every=record_every,
    )

    header: Dict[str, object] = {**echo, "seed": seed}
    if forced == "one":
        # only the averaging equation runs, so the variant plays no part
        trace = force_signal(flow_cfg, lambda t: np.array([1.0]))
        header["final_s_bar"] = _fmt_float(float(trace.final_s_bar[0]))
    else:
        obj, domain, meta = _build_problem(cfg, seed)
        flow_cfg = replace(flow_cfg, x0=_parse_x0(cfg, domain, "flow"), f_ref=float(meta.get("f_ref", 0.0)))
        trace = integrate(obj, domain, flow_cfg)
        header["alpha"] = _fmt_float(domain.alpha)
        header["f_ref"] = _fmt_float(flow_cfg.f_ref)

    path = os.path.join(out_dir, "flow_trace.csv")
    rows = (map(_fmt_float, row) for row in zip(trace.t, trace.f, trace.gap, trace.disc_err, trace.h))
    _write_csv(path, header, "t,f,gap,disc_err,h", rows)
    if not args.quiet:
        print(f"wrote {path} ({trace.t.size} rows)")
    return EXIT_OK


def cmd_diag(args) -> int:
    trace = read_trace_csv(args.trace)
    first, last = int(trace.ks[0]), int(trace.ks[-1])
    window = _fit_window(args.window_lo, args.window_hi, (max(1, first), last), (first, last), "--window-lo and --window-hi")
    report: Dict[str, object] = {"trace": os.path.basename(args.trace), "window_lo": window[0], "window_hi": window[1]}
    report.update(_rate_fits({"": trace}, window))
    report["support_first"] = "undefined" if trace.vertex_ids is None else int(support_trajectory(trace)[0])
    sys.stdout.write(render_report(report))
    return EXIT_OK


def cmd_sweep(args) -> int:
    """Radius sweep for classification problems: train on a split, report
    validation loss per radius on a log grid. Reported, never asserted."""
    cfg, echo, seed, out_dir = _prepare(args)
    obj, domain, _ = _build_problem(cfg, seed)
    if not isinstance(obj, Logistic):
        raise ConfigError("sweep needs a classification problem (svmlight or synthetic_logistic)")

    sweep = cfg["sweep"]
    if not 0 < sweep["train_frac"] < 1:
        raise ConfigError(f"[sweep] train_frac must lie in (0, 1), got {sweep['train_frac']}")
    train, val = train_val_split(obj, sweep["train_frac"], seed)
    if sweep["points"] < 1:
        raise ConfigError(f"[sweep] points must be >= 1, got {sweep['points']}")
    if not (sweep["alpha_lo"] > 0 and sweep["alpha_hi"] > 0):
        raise ConfigError(f"[sweep] alpha_lo and alpha_hi must be > 0, got {sweep['alpha_lo']} and {sweep['alpha_hi']}")

    rows = []
    best_alpha, best_loss = None, np.inf
    for alpha in np.geomspace(sweep["alpha_lo"], sweep["alpha_hi"], sweep["points"]):
        dom = DomainSet(Kind.L1_BALL, float(alpha), train.n)
        solver_cfg = _build_solver_config(cfg, dom)
        # only the final gap and x are read: record k = 0 and the last row alone
        trace = solve(train, dom, replace(solver_cfg, trace_every=solver_cfg.max_iters))
        x = trace.state.x
        val_loss = val.value(x)
        rows.append([_fmt_float(v) for v in (alpha, train.value(x), val_loss, trace.gap[-1])])
        if val_loss < best_loss:
            best_alpha, best_loss = float(alpha), float(val_loss)
    path = os.path.join(out_dir, "sweep.csv")
    _write_csv(path, echo, "alpha,train_loss,val_loss,final_gap", rows)
    if not args.quiet:
        print(f"wrote {path}; best alpha {best_alpha:g} (validation loss {best_loss:.6g})")
    return EXIT_OK


def cmd_gen_data(args) -> int:
    out_dir = _resolve_out_dir(args)
    data = generate_sparse_logistic(m=args.m, n=args.n, density=args.density, seed=_resolve_seed(args))
    path = os.path.join(out_dir, "synthetic_logistic.svmlight")
    write_svmlight(data, path)
    if not args.quiet:
        print(f"wrote {path} ({data.m} samples, {data.n} features)")
    return EXIT_OK


# ---------------------------------------------------------------- entry

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="avgfw", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output directory (default: config, then $AVGFW_OUT)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--quiet", action="store_true")

    for name, fn in (
        ("solve", cmd_solve),
        ("compare", cmd_compare),
        ("flow", cmd_flow),
        ("sweep", cmd_sweep),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        common(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("diag")
    p.add_argument("trace", help="trace CSV produced by solve/compare")
    p.add_argument("--window-lo", type=int, default=None)
    p.add_argument("--window-hi", type=int, default=None)
    common(p)
    p.set_defaults(fn=cmd_diag)

    p = sub.add_parser("gen-data")
    p.add_argument("--m", type=int, default=800)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--density", type=float, default=0.01)
    common(p)
    p.set_defaults(fn=cmd_gen_data)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ParseError, LabelError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalBlowup, StepTooLarge, BrokenOracle, DegenerateGradient) as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except AvgFWError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

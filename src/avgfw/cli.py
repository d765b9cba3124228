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
rejected (see README for the grammar).
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
from .solvers import IterateTrace, SolverConfig, Variant, solve

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
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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
    cfg, echo = _read_config(args.config)
    seed = _resolve_seed(args, cfg["output"]["seed"])
    out_dir = _resolve_out_dir(args, cfg["output"]["dir"])
    obj, domain, meta = _build_problem(cfg, seed)
    solver_cfg = _build_solver_config(cfg, domain)
    trace = solve(obj, domain, solver_cfg)
    header = _trace_header(echo, lipschitz_bound(obj), domain, meta, {"variant": solver_cfg.variant.value, "seed": seed})
    path = os.path.join(out_dir, "trace.csv")
    _write_csv(path, header, TRACE_COLUMNS, _trace_rows(trace))
    if not args.quiet:
        print(f"wrote {path} ({trace.ks.size} rows)")
    return EXIT_OK


def _safe_fit(trace, series, window) -> Optional[object]:
    try:
        return fit_rate(trace, series, window)
    except (InsufficientData, ConfigError):
        return None


def cmd_compare(args) -> int:
    cfg, echo = _read_config(args.config)
    seed = _resolve_seed(args, cfg["output"]["seed"])
    out_dir = _resolve_out_dir(args, cfg["output"]["dir"])
    obj, domain, meta = _build_problem(cfg, seed)
    base = _build_solver_config(cfg, domain)
    sched, max_iters = base.schedule, base.max_iters
    lipschitz = lipschitz_bound(obj)

    traces: Dict[str, IterateTrace] = {}
    for variant in (Variant.FW, Variant.AVGFW):
        trace = traces[variant.value] = solve(obj, domain, replace(base, variant=variant))
        header = _trace_header(echo, lipschitz, domain, meta, {"variant": variant.value, "seed": seed})
        _write_csv(os.path.join(out_dir, f"{variant.value}_trace.csv"), header, TRACE_COLUMNS, _trace_rows(trace))

    lo, hi = cfg["compare"]["window_lo"], cfg["compare"]["window_hi"]
    window = (
        min(100, max(1, max_iters // 10)) if lo is None else lo,
        max_iters - 1 if hi is None else hi,
    )
    summary: Dict[str, object] = {
        "c": sched.c,
        "p": sched.p,
        "alpha": domain.alpha,
        "max_iters": max_iters,
        "seed": seed,
        "window_lo": window[0],
        "window_hi": window[1],
    }
    for name, series in (("gap", Series.GAP), ("disc", Series.DISC_ERR)):
        for variant, trace in traces.items():
            fit = _safe_fit(trace, series, window)
            summary[f"slope_{name}_{variant}"] = "none" if fit is None else fit.slope
            summary[f"r2_{name}_{variant}"] = "none" if fit is None else fit.r_squared

    if domain.is_polyhedral:
        reference_iters = cfg["compare"]["reference_iters"]
        if reference_iters is None:
            reference_iters = min(100000, 10 * max_iters)
        ref_cfg = SolverConfig(
            variant=Variant.AVGFW,
            schedule=sched,
            max_iters=reference_iters,
            trace_every=max(1, reference_iters // 10),
        )
        reference = solve(obj, domain, ref_cfg)
        summary["reference_iters"] = reference_iters
        summary["f_star_estimate"] = reference.f[-1] - reference.gap[-1]
        report = identify_manifold(traces["avgfw"], obj, domain, reference.state.x)
        summary["k_bar"] = "none" if report.k_bar is None else report.k_bar
        summary["delta"] = "none" if report.delta is None else report.delta
        summary["support_star_size"] = len(report.support_star)
        if report.delta is not None:
            # coarse suboptimality scale below which identification should
            # trigger; the constants are heuristic, read it as an order of
            # magnitude only
            summary["identification_threshold"] = report.delta / (lipschitz * domain.n)
        for variant, trace in traces.items():
            summary[f"support_first_{variant}"] = int(support_trajectory(trace)[0])

    summary_path = os.path.join(out_dir, "summary.txt")
    with open(summary_path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(render_report(summary))

    if cfg["output"]["emit_plots"]:
        _emit_compare_plots(out_dir, traces, domain)
    if not args.quiet:
        print(f"wrote {summary_path}")
    return EXIT_OK


def _emit_compare_plots(out_dir: str, traces: Dict[str, IterateTrace], domain) -> None:
    charts = [
        ("gap.svg", "duality gap", Series.GAP),
        ("disc_err.svg", "discretization error", Series.DISC_ERR),
    ]
    for filename, title, series in charts:
        data = []
        for variant, trace in traces.items():
            ys = trace.gap if series is Series.GAP else trace.disc_err
            data.append((variant, trace.ks.tolist(), ys.tolist()))
        svg = _svg.line_chart(data, title, "iteration", title, loglog=True)
        with open(os.path.join(out_dir, filename), "w", encoding="ascii", newline="\n") as fh:
            fh.write(svg)
    if domain.is_polyhedral:
        data = []
        for variant, trace in traces.items():
            traj = support_trajectory(trace)
            ks = np.arange(trace.k_start, trace.k_start + traj.size)
            data.append((variant, ks.tolist(), traj.tolist()))
        svg = _svg.line_chart(data, "working-set size", "iteration", "distinct atoms from k on", loglog=False)
        with open(os.path.join(out_dir, "support.svg"), "w", encoding="ascii", newline="\n") as fh:
            fh.write(svg)


def cmd_flow(args) -> int:
    cfg, echo = _read_config(args.config)
    seed = _resolve_seed(args, cfg["output"]["seed"])
    out_dir = _resolve_out_dir(args, cfg["output"]["dir"])

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
    k_lo = args.window_lo if args.window_lo is not None else max(1, int(trace.ks[0]) or 1)
    k_hi = args.window_hi if args.window_hi is not None else int(trace.ks[-1])
    report: Dict[str, object] = {"trace": os.path.basename(args.trace), "window_lo": k_lo, "window_hi": k_hi}
    for name, series in (("gap", Series.GAP), ("disc", Series.DISC_ERR)):
        fit = _safe_fit(trace, series, (k_lo, k_hi))
        report[f"slope_{name}"] = "none" if fit is None else fit.slope
        report[f"r2_{name}"] = "none" if fit is None else fit.r_squared
    report["support_first"] = "undefined" if trace.vertex_ids is None else int(support_trajectory(trace)[0])
    text = render_report(report)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_sweep(args) -> int:
    """Radius sweep for classification problems: train on a split, report
    validation loss per radius on a log grid. Reported, never asserted."""
    cfg, echo = _read_config(args.config)
    seed = _resolve_seed(args, cfg["output"]["seed"])
    out_dir = _resolve_out_dir(args, cfg["output"]["dir"])
    obj, domain, _ = _build_problem(cfg, seed)
    if not isinstance(obj, Logistic):
        raise ConfigError("sweep needs a classification problem (svmlight or synthetic_logistic)")

    sweep = cfg["sweep"]
    train, val = train_val_split(obj, sweep["train_frac"], seed)
    if sweep["points"] < 1:
        raise ConfigError(f"[sweep] points must be >= 1, got {sweep['points']}")
    if not (sweep["alpha_lo"] > 0 and sweep["alpha_hi"] > 0):
        raise ConfigError(f"[sweep] alpha_lo and alpha_hi must be > 0, got {sweep['alpha_lo']} and {sweep['alpha_hi']}")

    rows = []
    best_alpha, best_loss = None, np.inf
    for alpha in np.geomspace(sweep["alpha_lo"], sweep["alpha_hi"], sweep["points"]):
        dom = DomainSet(Kind.L1_BALL, float(alpha), train.n)
        trace = solve(train, dom, _build_solver_config(cfg, dom))
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

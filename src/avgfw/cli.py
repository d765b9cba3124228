"""Command-line harness: configuration, run orchestration, CSV and report emission.

Subcommands:
  solve     run one solver on the configured problem, write trace.csv
  compare   run both solvers, write paired traces, summary, optional SVGs
  flow      integrate the configured flow (or the forced-signal hook)
  sweep     radius sweep for classification problems, validation loss per alpha
  diag      re-fit decay rates on an existing trace CSV
  gen-data  emit a synthetic sparse svmlight file

Configs are flat INI-style ``key = value`` files with [problem], [solver],
[flow], [compare], and [output] sections (see README for the grammar).
Exit codes: 0 success, 2 configuration problems, 3 numerical failures.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from typing import Dict, List, Optional

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
from .objectives import Logistic, lipschitz_bound
from .schedules import Schedule
from .solvers import IterateTrace, SolverConfig, SolverState, Variant, solve

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

TRACE_COLUMNS = "k,f,gap,disc_err,gamma,beta,atom_id"
FLOW_COLUMNS = "t,f,gap,disc_err,h"


# ---------------------------------------------------------------- config

def _read_config(path: str) -> configparser.ConfigParser:
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh, source=path)
    except configparser.Error as err:
        raise ConfigError(f"cannot parse config {path}: {err}") from None
    return cp


def _get(cp, section, key, default=None, required=False):
    if cp.has_option(section, key):
        return cp.get(section, key)
    if required:
        raise ConfigError(f"missing [{section}] {key}")
    return default


def _get_float(cp, section, key, default=None, required=False):
    raw = _get(cp, section, key, required=required)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} must be a number, got {raw!r}") from None


def _get_int(cp, section, key, default=None, required=False):
    raw = _get(cp, section, key, required=required)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} must be an integer, got {raw!r}") from None


def _get_bool(cp, section, key, default=False):
    raw = _get(cp, section, key)
    if raw is None:
        return default
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"[{section}] {key} must be a boolean, got {raw!r}")


def _config_echo(cp: configparser.ConfigParser) -> Dict[str, str]:
    echo = {}
    for section in cp.sections():
        for key, val in cp.items(section):
            echo[f"{section}.{key}"] = val
    return echo


def _resolve_out_dir(args, cp) -> str:
    if args.out:
        out = args.out
    elif cp is not None and cp.has_option("output", "dir"):
        out = cp.get("output", "dir")
    else:
        out = os.environ.get("AVGFW_OUT", ".")
    os.makedirs(out, exist_ok=True)
    return out


def _resolve_seed(args, cp) -> int:
    if args.seed is not None:
        return args.seed
    if cp is not None:
        return _get_int(cp, "output", "seed", default=0)
    return 0


# ---------------------------------------------------------------- problems

def _build_problem(cp, seed: int):
    """Instantiate the configured problem.

    Returns (objective, domain, meta) where meta carries values worth
    echoing: the radius, an f reference when one is known exactly, and
    generator facts.
    """
    kind = _get(cp, "problem", "kind", required=True).strip().lower()
    meta: Dict[str, object] = {"problem.kind": kind}

    if kind == "cs":
        spec = SyntheticCSSpec(
            n_features=_get_int(cp, "problem", "n_features", 500),
            m_measurements=_get_int(cp, "problem", "m_measurements", 100),
            sparsity_frac=_get_float(cp, "problem", "sparsity_frac", 0.10),
            noise_std=_get_float(cp, "problem", "noise_std", 0.05),
            seed=seed,
        )
        obj, domain, x0 = generate_cs(spec)
        alpha = _get_float(cp, "problem", "alpha")
        if alpha is None:
            alpha = _get_float(cp, "problem", "alpha_scale", 1.0) * domain.alpha
        domain = DomainSet(Kind.L1_BALL, alpha, domain.n)
        meta["ground_truth_nnz"] = int(np.count_nonzero(x0))
        meta["ground_truth_l1"] = float(np.sum(np.abs(x0)))
        if spec.noise_std == 0.0 and alpha >= meta["ground_truth_l1"]:
            meta["f_ref"] = 0.0
        return obj, domain, meta

    if kind == "scalar1d":
        from .objectives import Scalar1D

        alpha = _get_float(cp, "problem", "alpha", 1.0)
        meta["f_ref"] = 0.0
        return Scalar1D(), DomainSet(Kind.BOX, alpha, 1), meta

    if kind == "l2_quadratic":
        alpha = _get_float(cp, "problem", "alpha")
        scale = _get_float(cp, "problem", "alpha_scale")
        obj, domain, x_unc = generate_l2ball_quadratic(1.0, seed=seed)
        norm = float(np.linalg.norm(x_unc))
        if alpha is None:
            alpha = (scale if scale is not None else 1.0) * norm
        domain = DomainSet(Kind.L2_BALL, alpha, domain.n)
        meta["unconstrained_norm"] = norm
        return obj, domain, meta

    if kind == "svmlight":
        path = _get(cp, "problem", "path", required=True)
        if not os.path.isfile(path):
            raise ConfigError(f"svmlight file not found: {path}")
        hint = _get_int(cp, "problem", "n_features_hint")
        data = load_svmlight(path, n_features_hint=hint)
        alpha = _get_float(cp, "problem", "alpha", required=True)
        meta["samples"] = data.m
        return data, DomainSet(Kind.L1_BALL, alpha, data.n), meta

    if kind == "synthetic_logistic":
        data = generate_sparse_logistic(
            m=_get_int(cp, "problem", "m", 800),
            n=_get_int(cp, "problem", "n", 1000),
            density=_get_float(cp, "problem", "density", 0.01),
            seed=seed,
        )
        alpha = _get_float(cp, "problem", "alpha", 10.0)
        return data, DomainSet(Kind.L1_BALL, alpha, data.n), meta

    raise ConfigError(f"unknown problem kind {kind!r}")


def _build_schedule(cp) -> Schedule:
    return Schedule(c=_get_float(cp, "solver", "c", 3.0), p=_get_float(cp, "solver", "p", 1.0))


def _parse_x0(cp, domain: DomainSet, section: str = "solver") -> Optional[np.ndarray]:
    raw = _get(cp, section, "x0", "lmo")
    if raw.strip().lower() == "lmo":
        return None
    try:
        vals = np.array([float(tok) for tok in raw.split(",")])
    except ValueError:
        raise ConfigError(f"[{section}] x0 must be 'lmo' or comma-separated floats, got {raw!r}") from None
    if vals.shape != (domain.n,):
        raise ConfigError(f"[{section}] x0 has {vals.size} entries, expected {domain.n}")
    return vals


def _build_solver_config(cp, domain: DomainSet, variant: Variant) -> SolverConfig:
    return SolverConfig(
        variant=variant,
        schedule=_build_schedule(cp),
        max_iters=_get_int(cp, "solver", "max_iters", 1000),
        x0=_parse_x0(cp, domain),
        trace_every=_get_int(cp, "solver", "trace_every", 1),
    )


def _parse_variant(cp, section: str = "solver") -> Variant:
    raw = _get(cp, section, "variant", "avgfw").strip().lower()
    try:
        return Variant(raw)
    except ValueError:
        raise ConfigError(f"[{section}] variant must be fw or avgfw, got {raw!r}") from None


# ---------------------------------------------------------------- CSV io

def _fmt_float(v: float) -> str:
    return repr(float(v))


def _write_trace_csv(path: str, trace: IterateTrace, header: Dict[str, object]) -> None:
    lines = [f"# {key} = {val}" for key, val in header.items()]
    lines.append(TRACE_COLUMNS)
    ids = trace.atom_ids
    for i in range(trace.ks.size):
        atom_id = "" if ids is None else str(int(ids[i]))
        lines.append(
            f"{int(trace.ks[i])},{_fmt_float(trace.f[i])},{_fmt_float(trace.gap[i])},"
            f"{_fmt_float(trace.disc_err[i])},{_fmt_float(trace.gamma[i])},"
            f"{_fmt_float(trace.beta[i])},{atom_id}"
        )
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_flow_csv(path: str, trace, header: Dict[str, object]) -> None:
    lines = [f"# {key} = {val}" for key, val in header.items()]
    lines.append(FLOW_COLUMNS)
    for i in range(trace.t.size):
        lines.append(
            f"{_fmt_float(trace.t[i])},{_fmt_float(trace.f[i])},{_fmt_float(trace.gap[i])},"
            f"{_fmt_float(trace.disc_err[i])},{_fmt_float(trace.h[i])}"
        )
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trace_csv(path: str) -> IterateTrace:
    """Rebuild an analyzable trace from a solve/compare CSV."""
    if not os.path.isfile(path):
        raise ConfigError(f"trace file not found: {path}")
    ks, fs, gaps, discs, gammas, betas, ids = [], [], [], [], [], [], []
    have_ids = True
    with open(path, "r", encoding="ascii") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line == TRACE_COLUMNS:
                continue
            parts = line.split(",")
            if len(parts) != 7:
                raise ParseError(line_no, f"line {line_no}: expected 7 columns, got {len(parts)}")
            try:
                ks.append(int(parts[0]))
                fs.append(float(parts[1]))
                gaps.append(float(parts[2]))
                discs.append(float(parts[3]))
                gammas.append(float(parts[4]))
                betas.append(float(parts[5]))
            except ValueError:
                raise ParseError(line_no, f"line {line_no}: bad numeric field") from None
            if parts[6] == "":
                have_ids = False
            else:
                ids.append(int(parts[6]))
    if not ks:
        raise ParseError(0, f"no data rows in {path}")
    vertex_ids = np.array(ids, dtype=int) if have_ids and len(ids) == len(ks) else None
    n_rows = len(ks)
    return IterateTrace(
        ks=np.array(ks, dtype=int),
        f=np.array(fs),
        gap=np.array(gaps),
        disc_err=np.array(discs),
        gamma=np.array(gammas),
        beta=np.array(betas),
        atom_ids=vertex_ids,
        vertex_ids=vertex_ids,
        variant=Variant.AVGFW,
        schedule=Schedule(3.0, 1.0),
        state=SolverState(k=n_rows, x=np.zeros(1), s_last=None, s_bar=np.zeros(1)),
    )


# ---------------------------------------------------------------- commands

def _trace_header(cp, obj, domain, meta, extra: Dict[str, object]) -> Dict[str, object]:
    header: Dict[str, object] = {}
    header.update(_config_echo(cp))
    header["alpha"] = _fmt_float(domain.alpha)
    header["dimension"] = domain.n
    header["lipschitz_estimate"] = _fmt_float(lipschitz_bound(obj))
    if "f_ref" in meta:
        header["f_ref"] = _fmt_float(meta["f_ref"])
    for key, val in meta.items():
        if key != "f_ref":
            header[key] = val
    header.update(extra)
    return header


def cmd_solve(args) -> int:
    cp = _read_config(args.config)
    seed = _resolve_seed(args, cp)
    out_dir = _resolve_out_dir(args, cp)
    obj, domain, meta = _build_problem(cp, seed)
    variant = _parse_variant(cp)
    cfg = _build_solver_config(cp, domain, variant)
    trace = solve(obj, domain, cfg)
    header = _trace_header(cp, obj, domain, meta, {"variant": variant.value, "seed": seed})
    path = os.path.join(out_dir, "trace.csv")
    _write_trace_csv(path, trace, header)
    if not args.quiet:
        print(f"wrote {path} ({trace.ks.size} rows)")
    return EXIT_OK


def _safe_fit(trace, series, window) -> Optional[object]:
    try:
        return fit_rate(trace, series, window)
    except (InsufficientData, ConfigError):
        return None


def cmd_compare(args) -> int:
    cp = _read_config(args.config)
    seed = _resolve_seed(args, cp)
    out_dir = _resolve_out_dir(args, cp)
    obj, domain, meta = _build_problem(cp, seed)
    sched = _build_schedule(cp)
    max_iters = _get_int(cp, "solver", "max_iters", 1000)

    traces: Dict[str, IterateTrace] = {}
    for variant in (Variant.FW, Variant.AVGFW):
        cfg = _build_solver_config(cp, domain, variant)
        traces[variant.value] = solve(obj, domain, cfg)
        header = _trace_header(cp, obj, domain, meta, {"variant": variant.value, "seed": seed})
        _write_trace_csv(os.path.join(out_dir, f"{variant.value}_trace.csv"), traces[variant.value], header)

    window = (
        _get_int(cp, "compare", "window_lo", min(100, max(1, max_iters // 10))),
        _get_int(cp, "compare", "window_hi", max_iters - 1),
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
        reference_iters = _get_int(cp, "compare", "reference_iters", min(100000, 10 * max_iters))
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
            summary["identification_threshold"] = report.delta / (lipschitz_bound(obj) * domain.n)
        for variant, trace in traces.items():
            traj = support_trajectory(trace)
            summary[f"support_first_{variant}"] = int(traj[0])
            summary[f"support_final_{variant}"] = int(traj[-1])

    summary_path = os.path.join(out_dir, "summary.txt")
    with open(summary_path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(render_report(summary))

    if _get_bool(cp, "output", "emit_plots", False):
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
    cp = _read_config(args.config)
    seed = _resolve_seed(args, cp)
    out_dir = _resolve_out_dir(args, cp)

    variant = _parse_variant(cp, "flow")
    sched = _build_schedule(cp)
    t_end = _get_float(cp, "flow", "t_end", 10.0)
    record_every = _get_float(cp, "flow", "record_every", max(t_end / 200.0, 1e-3))
    dt = _get_float(cp, "flow", "dt", 1e-3)
    forced = _get(cp, "flow", "forced_signal", "none").strip().lower()

    header: Dict[str, object] = {}
    header.update(_config_echo(cp))
    header["seed"] = seed

    if forced == "one":
        cfg = FlowConfig(
            variant=Variant.AVGFW,
            schedule=sched,
            t_end=t_end,
            dt=dt,
            record_every=record_every,
        )
        trace = force_signal(cfg, lambda t: np.array([1.0]))
        header["final_s_bar"] = _fmt_float(float(trace.final_s_bar[0]))
    elif forced == "none":
        obj, domain, meta = _build_problem(cp, seed)
        cfg = FlowConfig(
            variant=variant,
            schedule=sched,
            t_end=t_end,
            dt=dt,
            record_every=record_every,
            x0=_parse_x0(cp, domain, "flow"),
            f_ref=float(meta.get("f_ref", 0.0)),
        )
        trace = integrate(obj, domain, cfg)
        header["alpha"] = _fmt_float(domain.alpha)
        header["f_ref"] = _fmt_float(cfg.f_ref)
    else:
        raise ConfigError(f"[flow] forced_signal must be none or one, got {forced!r}")

    path = os.path.join(out_dir, "flow_trace.csv")
    _write_flow_csv(path, trace, header)
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
    if trace.vertex_ids is not None:
        traj = support_trajectory(trace)
        report["support_first"] = int(traj[0])
        report["support_final"] = int(traj[-1])
    text = render_report(report)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_sweep(args) -> int:
    """Radius sweep for classification problems: train on a split, report
    validation loss per radius on a log grid. Reported, never asserted."""
    cp = _read_config(args.config)
    seed = _resolve_seed(args, cp)
    out_dir = _resolve_out_dir(args, cp)
    obj, domain, _ = _build_problem(cp, seed)
    if not isinstance(obj, Logistic):
        raise ConfigError("sweep needs a classification problem (svmlight or synthetic_logistic)")

    frac = _get_float(cp, "sweep", "train_frac", 0.6)
    train, val = train_val_split(obj, frac, seed)
    lo = _get_float(cp, "sweep", "alpha_lo", 1.0)
    hi = _get_float(cp, "sweep", "alpha_hi", 100.0)
    points = _get_int(cp, "sweep", "points", 10)
    if points < 1:
        raise ConfigError(f"[sweep] points must be >= 1, got {points}")
    variant = _parse_variant(cp)

    lines = [f"# {key} = {val_}" for key, val_ in _config_echo(cp).items()]
    lines.append("alpha,train_loss,val_loss,final_gap")
    best_alpha, best_loss = None, np.inf
    for alpha in np.geomspace(lo, hi, points):
        dom = DomainSet(Kind.L1_BALL, float(alpha), train.n)
        cfg = _build_solver_config(cp, dom, variant)
        trace = solve(train, dom, cfg)
        x = trace.state.x
        val_loss = val.value(x)
        lines.append(
            f"{_fmt_float(alpha)},{_fmt_float(train.value(x))},{_fmt_float(val_loss)},{_fmt_float(trace.gap[-1])}"
        )
        if val_loss < best_loss:
            best_alpha, best_loss = float(alpha), float(val_loss)
    path = os.path.join(out_dir, "sweep.csv")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    if not args.quiet:
        print(f"wrote {path}; best alpha {best_alpha:g} (validation loss {best_loss:.6g})")
    return EXIT_OK


def cmd_gen_data(args) -> int:
    out_dir = args.out or os.environ.get("AVGFW_OUT", ".")
    os.makedirs(out_dir, exist_ok=True)
    data = generate_sparse_logistic(m=args.m, n=args.n, density=args.density, seed=args.seed or 0)
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

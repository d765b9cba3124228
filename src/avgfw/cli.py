"""Command-line harness: configuration, run orchestration, CSV and report emission.

Subcommands:
  solve     run one solver on the configured problem, write trace.csv
  compare   run both solvers, write paired traces, summary, optional SVGs
  flow      integrate the configured flow (or the forced-signal hook)
  sweep     radius sweep for classification problems, validation loss per alpha
  diag      re-fit decay rates on an existing trace CSV
  gen-data  emit a synthetic sparse svmlight file

Configs are flat INI-style ``key = value`` files with [problem], [solver],
[flow], [compare] and [output] sections. ``SCHEMA`` declares every
accepted key with its type and default; unknown sections and keys are
rejected, as is a [problem] key that the configured kind does not read
(``PROBLEM_KEYS``; see README for the grammar).
Exit codes: 0 success; 2 for an ``errors.InputError`` (a bad config, data
file or request), printed as ``config error:``; 3 for an
``errors.NumericalError`` (a run that failed numerically), printed as
``numerical error:`` and nothing else on stderr.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
import warnings
from array import array
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, TextIO, Tuple

import numpy as np

from . import _svg
from .diagnostics import degeneracy_delta, fit_rate, identify_manifold, render_report, support_set, support_trajectory
from .domains import DomainSet, Kind, lmo
from .errors import ConfigError, InputError, NumericalError, ParseError
from .experiments import (
    SyntheticCSSpec,
    generate_cs,
    generate_l2ball_quadratic,
    generate_sparse_logistic,
    integer,
    load_svmlight,
    number,
    number_text,
    text_lines,
    train_val_split,
    write_svmlight,
)
from .flows import FlowConfig, force_signal, integrate
from .objectives import Logistic, QuadraticLS
from .schedules import Schedule
from .solvers import IterateTrace, SolverConfig, Variant, resume, solve

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

TRACE_COLUMNS = "k,f,gap,disc_err,atom_id"
CSV_BLOCK = 128  # rows formatted per write, so a CSV is never held whole in memory


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
    },
    "solver": {
        "variant": (Variant, Variant.AVGFW),
        "c": (float, 3.0),
        "p": (float, 1.0),
        "max_iters": (int, 1000),
        "x0": (str, "lmo"),
    },
    "flow": {
        "t_end": (float, 10.0),
        "dt": (float, 1e-3),
        "record_every": (float, None),
        "forced_signal": (str, "none"),
    },
    "compare": {
        "window_lo": (int, None),
        "window_hi": (int, None),
        "reference_iters": (int, None),
    },
    "output": {
        "dir": (str, None),
        "emit_plots": (bool, False),
        "seed": (int, 0),
    },
}

# The [problem] keys each kind reads besides ``kind``; any other present is an error.
PROBLEM_KEYS: Dict[str, Tuple[str, ...]] = {
    "cs": ("n_features", "m_measurements", "sparsity_frac", "noise_std", "alpha_scale"),
    "scalar1d": ("alpha",),
    "l2_quadratic": ("alpha_scale",),
    "svmlight": ("path", "n_features_hint", "alpha"),
}

Config = Dict[str, Dict[str, object]]


# type -> (parser raising ValueError or KeyError, what the error message expects)
_PARSERS = {
    str: (str, "a string"),
    int: (integer, "an integer"),
    float: (number, "a finite number"),
    bool: (lambda raw: configparser.ConfigParser.BOOLEAN_STATES[raw.lower()], "a boolean"),
    Variant: (lambda raw: Variant(raw.strip().lower()), "fw or avgfw"),
}


def _read_config(path: str) -> Tuple[Config, Dict[str, str]]:
    """Parse a config file, read by ``text_lines``, against ``SCHEMA``.

    A value is the text the file holds: ``%`` is no interpolation syntax.
    Returns (values, echo): ``values[section][key]`` is the typed value of
    every schema key, its default when absent, and the kind is stripped
    and lower-cased; ``echo`` maps
    ``section.key`` to the raw string of every key present, in file order.
    """
    # The README's grammar: ``key = value`` only, keys case-sensitive, and
    # no defaults section (no header names the empty one, so [DEFAULT] is
    # a section like any other and is refused as unknown).
    cp = configparser.ConfigParser(
        delimiters=("=",), default_section="", inline_comment_prefixes=("#", ";"), interpolation=None
    )
    cp.optionxform = str
    try:
        cp.read_file((line for _, line in text_lines(path, "config")), source=path)
        raw = {section: cp.items(section) for section in cp.sections()}
    except configparser.Error as err:
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
    if values["problem"]["kind"] is not None:  # a missing kind is reported where the problem is built
        kind = values["problem"]["kind"] = values["problem"]["kind"].strip().lower()
        if kind not in PROBLEM_KEYS:
            raise ConfigError(f"unknown problem kind {kind!r}")
        for key, _ in raw.get("problem", ()):
            if key != "kind" and key not in PROBLEM_KEYS[kind]:
                raise ConfigError(f"[problem] {key} is not read by kind = {kind}, which reads {', '.join(PROBLEM_KEYS[kind])}")
    return values, echo


def _required(cfg: Config, section: str, key: str):
    val = cfg[section][key]
    if val is None:
        raise ConfigError(f"missing [{section}] {key}")
    return val


def _out_path(out_dir: str, filename: str) -> str:
    """``filename`` in ``out_dir``, which is made here, right before a
    command's first write, so a run that fails leaves no directory behind."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create output directory {out_dir}: {err.strerror}") from None
    return os.path.join(out_dir, filename)


def _resolve_seed(args, configured: int = 0) -> int:
    seed = configured if args.seed is None else args.seed
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


def _prepare(args) -> Tuple[Config, Dict[str, str], int, str]:
    """The config and its echo, then the seed, then the output directory's
    path; ``_out_path`` makes the directory."""
    cfg, echo = _read_config(args.config)
    return cfg, echo, _resolve_seed(args, cfg["output"]["seed"]), args.out or cfg["output"]["dir"] or "."


# ---------------------------------------------------------------- problems

def _build_problem(cfg: Config, seed: int):
    """Instantiate the configured problem.

    Returns (objective, domain, meta) where meta carries values worth
    echoing: the radius, an f reference when one is known exactly, and
    generator facts.
    """
    prob = cfg["problem"]
    kind = _required(cfg, "problem", "kind")
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
        alpha = prob["alpha_scale"] * domain.alpha
        domain = DomainSet(Kind.L1_BALL, alpha, domain.n)
        meta["ground_truth_nnz"] = int(np.count_nonzero(x0))
        meta["ground_truth_l1"] = float(np.sum(np.abs(x0)))
        if spec.noise_std == 0.0 and alpha >= meta["ground_truth_l1"]:
            meta["f_ref"] = 0.0
        return obj, domain, meta

    if kind == "scalar1d":  # f(x) = x^2 / 2, least squares with A = [[1]] and y = [0]
        meta["f_ref"] = 0.0
        return QuadraticLS(np.ones((1, 1)), np.zeros(1)), DomainSet(Kind.BOX, 1.0 if prob["alpha"] is None else prob["alpha"], 1), meta

    if kind == "l2_quadratic":
        obj, domain, _ = generate_l2ball_quadratic(seed)
        meta["unconstrained_norm"] = domain.alpha
        return obj, DomainSet(Kind.L2_BALL, prob["alpha_scale"] * domain.alpha, domain.n), meta

    # svmlight, the last kind _read_config accepts
    data = load_svmlight(_required(cfg, "problem", "path"), n_features_hint=prob["n_features_hint"])
    meta["samples"] = data.m
    return data, DomainSet(Kind.L1_BALL, _required(cfg, "problem", "alpha"), data.n), meta


def _parse_x0(cfg: Config, domain: DomainSet) -> Optional[np.ndarray]:
    raw = cfg["solver"]["x0"]
    if raw.strip().lower() == "lmo":
        return None
    try:
        vals = np.array([number(tok) for tok in raw.split(",")])
    except ValueError:
        raise ConfigError(f"[solver] x0 must be 'lmo' or comma-separated finite floats, got {raw!r}") from None
    if vals.shape != (domain.n,):
        raise ConfigError(f"[solver] x0 has {vals.size} entries, expected {domain.n}")
    return vals


def _build_solver_config(cfg: Config, domain: DomainSet) -> SolverConfig:
    return SolverConfig(
        variant=cfg["solver"]["variant"],
        schedule=Schedule(cfg["solver"]["c"], cfg["solver"]["p"]),
        max_iters=cfg["solver"]["max_iters"],
        x0=_parse_x0(cfg, domain),
    )


# ---------------------------------------------------------------- CSV io

def _fmt_float(v: float) -> str:
    return repr(float(v))


def _write_csv(path: str, header: Dict[str, object], names: str, columns: Sequence[Optional[np.ndarray]]) -> None:
    """A ``# key = value`` comment header, the ``names`` line, then the rows
    of the equal-length ``columns``, formatted and written CSV_BLOCK rows
    at a time. A value prints as its Python number does, so a float as
    ``_fmt_float`` prints it; a None column prints empty fields."""
    size = next(len(col) for col in columns if col is not None)
    row = ",".join("" if col is None else "{!r}" for col in columns) + "\n"
    with _create(path) as fh:
        fh.write("".join(f"# {key} = {val}\n" for key, val in header.items()) + names + "\n")
        for lo in range(0, size, CSV_BLOCK):
            block = [col[lo : lo + CSV_BLOCK].tolist() for col in columns if col is not None]
            fh.write("".join(row.format(*values) for values in zip(*block)))


def _create(path: str) -> TextIO:
    """``path`` opened for writing ASCII text."""
    return open(path, "w", encoding="ascii", newline="\n")


def _trace_columns(trace: IterateTrace) -> Tuple[Optional[np.ndarray], ...]:
    """TRACE_COLUMNS; atom_id is empty where the trace has no atom history."""
    return trace.ks, trace.f, trace.gap, trace.disc_err, trace.vertex_ids


def read_trace_csv(path: str) -> IterateTrace:
    """Rebuild the trace a solve, compare or flow CSV was written from.

    Each data row, ``number_text`` with a k of 0 or more above the previous
    row's, is parsed into the packed buffers of a run's record, viewed by
    ``IterateTrace.packed``, so every column, ``vertex_ids`` included, is
    bitwise the run's, whatever its ``trace_every`` or first k. Writers
    fill atom_id as a history or not at all, so it must be set on every
    row, each k one above the previous row's, or on none. ``state`` is
    None: the file holds no checkpoint.
    """
    ks, rows, ids = array("q"), array("d"), array("q")
    for line_no, line in text_lines(path, "trace"):
        if not line or line.startswith("#") or line == TRACE_COLUMNS:
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise ParseError(line_no, f"line {line_no}: expected 5 columns, got {len(parts)}")
        try:
            if not number_text(line):
                raise ValueError(line)
            ks.append(int(parts[0]))
            rows.extend(map(float, parts[1:4]))
            if parts[4]:
                ids.append(int(parts[4]))
        except (ValueError, OverflowError):  # an integer past int64 overflows
            raise ParseError(line_no, f"line {line_no}: bad numeric field") from None
        if ks[-1] < 0 or len(ks) > 1 and ks[-1] <= ks[-2]:
            raise ParseError(line_no, f"line {line_no}: k = {ks[-1]} must be >= 0 and above the previous row's k")
        if len(ids) not in (0, len(ks)):
            what = "set, but earlier rows have none" if parts[4] else "empty, but earlier rows have one"
            raise ParseError(line_no, f"line {line_no}: atom_id is {what}")
        if ids and len(ks) > 1 and ks[-1] != ks[-2] + 1:
            raise ParseError(line_no, f"line {line_no}: atom_id is set, but k = {ks[-1]} is not one above the previous row's k")
    if not ks:
        raise ParseError(0, f"no data rows in {path}")
    return IterateTrace.packed(ks, rows, ids, None)


# ---------------------------------------------------------------- commands

def _trace_header(echo, schedule: Schedule, domain: Optional[DomainSet], meta, extra: Dict[str, object]) -> Dict[str, object]:
    """Every trace's header: config echo, problem facts (none without a domain), the resolved c and p, ``extra``."""
    problem = {} if domain is None else {"alpha": _fmt_float(domain.alpha), "dimension": domain.n}
    f_ref = {"f_ref": _fmt_float(meta["f_ref"])} if "f_ref" in meta else {}
    rest = {key: val for key, val in meta.items() if key != "f_ref"}
    return {**echo, **problem, **f_ref, **rest, "c": _fmt_float(schedule.c), "p": _fmt_float(schedule.p), **extra}


def cmd_solve(args) -> int:
    cfg, echo, seed, out_dir = _prepare(args)
    obj, domain, meta = _build_problem(cfg, seed)
    solver_cfg = _build_solver_config(cfg, domain)
    trace = solve(obj, domain, solver_cfg)
    header = _trace_header(echo, solver_cfg.schedule, domain, meta, {"variant": solver_cfg.variant.value, "seed": seed})
    path = _out_path(out_dir, "trace.csv")
    _write_csv(path, header, TRACE_COLUMNS, _trace_columns(trace))
    if not args.quiet:
        print(f"wrote {path} ({trace.ks.size} rows)")
    return EXIT_OK


def _fit_window(lo: Optional[int], hi: Optional[int], first: int, last: int, names: str) -> Tuple[int, int]:
    """The rate-fit window ``(lo, hi)`` of a run recorded over iterations
    ``first..last``, one rule for ``compare`` and ``diag``. A missing end
    takes its default: hi is ``last``, and lo a tenth of the iterations
    up to ``last``, at least 1 and at most 100, and not before ``first``,
    so ``diag`` on a compare trace fits the summary's window. A window the
    user set, at either end, must satisfy ``first <= lo < hi <= last``;
    the default one of a very short run may be empty, and then no fit is
    reported."""
    window = (max(first, min(100, max(1, (last + 1) // 10))) if lo is None else lo, last if hi is None else hi)
    if (lo is not None or hi is not None) and not first <= window[0] < window[1] <= last:
        raise ConfigError(f"{names} must satisfy {first} <= lo < hi <= {last}, got {window[0]} and {window[1]}")
    return window


def _rate_fits(traces: Dict[str, IterateTrace], window: Tuple[int, int]) -> Dict[str, Optional[float]]:
    """``slope_{gap,disc}<suffix>`` and ``r2_{gap,disc}<suffix>`` of each
    trace, keyed by suffix; None where the window holds no fit."""
    entries: Dict[str, Optional[float]] = {}
    for name in ("gap", "disc"):
        for suffix, trace in traces.items():
            fit = fit_rate(trace.ks, trace.gap if name == "gap" else trace.disc_err, window)
            entries[f"slope_{name}{suffix}"] = None if fit is None else fit.slope
            entries[f"r2_{name}{suffix}"] = None if fit is None else fit.r_squared
    return entries


def compare(
    obj, domain: DomainSet, base: SolverConfig, window: Tuple[int, int], reference_iters: Optional[int]
) -> Tuple[Dict[str, IterateTrace], Dict[str, object]]:
    """The compare protocol in process: it reads no config and writes no file.

    Runs both variants of ``base`` from one start and fits their rates over
    ``window``. The averaged run starts from a copy of the fw run's
    atom-image store (``solve``'s ``images_from``), and the fw run's own
    is emptied once it has, so compare holds one store's images at a time
    and the averaged run makes no product for a vertex the fw run kept;
    the outputs are the bits two runs with empty stores give. On a polyhedral
    domain it measures identification against x*, the averaged run
    continued, with its store, to ``max(reference_iters, max_iters)``
    iterations; a None ``reference_iters`` is ``min(100000, 10 * max_iters)``.
    A ``reference_iters`` below 1 or set on a domain that is not
    polyhedral, or a ``base`` that does not record every iteration
    (``trace_every`` != 1), whose rows hold no atom history, raises
    ``ConfigError`` before any solve. Returns the traces keyed by
    variant ("fw", "avgfw") and the summary entries from ``window_lo`` on,
    None where one is undefined.
    """
    if base.trace_every != 1:
        raise ConfigError(f"compare records every iteration: trace_every must be 1, got {base.trace_every}")
    if reference_iters is not None and not domain.is_polyhedral:
        raise ConfigError(f"[compare] reference_iters is not read on a {domain.kind.value} domain: it has no identification to measure")
    if reference_iters is None:
        reference_iters = min(100000, 10 * base.max_iters)
    if reference_iters < 1:
        raise ConfigError(f"[compare] reference_iters must be >= 1, got {reference_iters}")
    fw = solve(obj, domain, replace(base, variant=Variant.FW))
    traces = {"fw": fw, "avgfw": solve(obj, domain, replace(base, variant=Variant.AVGFW), images_from=fw.state)}
    fw.state.atom_images.clear()  # the averaged run's store shares these images; fw is never resumed
    entries: Dict[str, object] = {"window_lo": window[0], "window_hi": window[1]}
    entries.update(_rate_fits({f"_{variant}": trace for variant, trace in traces.items()}, window))
    if domain.is_polyhedral:
        # resume continues the averaged run bitwise, and its store, so the
        # reference is that run, extended when reference_iters asks for
        # more; only its last row and final x are read
        reference, extra = traces["avgfw"], reference_iters - base.max_iters
        if extra > 0:
            reference = resume(reference.state, obj, domain, SolverConfig(Variant.AVGFW, base.schedule, extra, trace_every=extra))
        entries["reference_iters"] = max(reference_iters, base.max_iters)
        entries["f_star_estimate"] = reference.f[-1] - reference.gap[-1]
        x_star = reference.state.x
        g_star = obj.gradient(x_star)
        star = support_set(g_star, domain)
        entries["k_bar"] = identify_manifold(traces["avgfw"].ks, traces["avgfw"].vertex_ids, star)
        entries["delta"] = degeneracy_delta(g_star, domain, x_star) if domain.kind is Kind.L1_BALL else None
        entries["support_star_size"] = len(star)
        for variant, trace in traces.items():
            entries[f"support_first_{variant}"] = int(support_trajectory(trace.vertex_ids)[0])
    return traces, entries


def cmd_compare(args) -> int:
    """Run ``compare`` on the configured problem, then write both traces, the
    summary and, when asked, the plots; a failed run writes nothing."""
    cfg, echo, seed, out_dir = _prepare(args)
    obj, domain, meta = _build_problem(cfg, seed)
    base = _build_solver_config(cfg, domain)
    max_iters = base.max_iters
    lo, hi = cfg["compare"]["window_lo"], cfg["compare"]["window_hi"]
    window = _fit_window(lo, hi, 0, max_iters - 1, "[compare] window_lo and window_hi")
    traces, entries = compare(obj, domain, base, window, cfg["compare"]["reference_iters"])
    traces["avgfw"].state.atom_images.clear()  # nothing below reads the store

    for variant, trace in traces.items():
        header = _trace_header(echo, base.schedule, domain, meta, {"variant": variant, "seed": seed})
        _write_csv(_out_path(out_dir, f"{variant}_trace.csv"), header, TRACE_COLUMNS, _trace_columns(trace))
    summary = {"c": base.schedule.c, "p": base.schedule.p, "alpha": domain.alpha, "max_iters": max_iters, "seed": seed}
    summary_path = _out_path(out_dir, "summary.txt")
    with _create(summary_path) as fh:
        fh.write(render_report({**summary, **entries}))
    if cfg["output"]["emit_plots"]:
        _emit_compare_plots(out_dir, traces)
    if not args.quiet:
        print(f"wrote {summary_path}")
    return EXIT_OK


def _emit_compare_plots(out_dir: str, traces: Dict[str, IterateTrace]) -> None:
    # file, title, y label, log-log axes, (ks, ys) arrays of a trace
    charts = [
        ("gap.svg", "duality gap", "duality gap", True, lambda t: (t.ks, t.gap)),
        ("disc_err.svg", "discretization error", "discretization error", True, lambda t: (t.ks, t.disc_err)),
    ]
    if all(trace.vertex_ids is not None for trace in traces.values()):
        charts.append(
            ("support.svg", "working-set size", "distinct atoms from k on", False, lambda t: (t.ks, support_trajectory(t.vertex_ids)))
        )
    for filename, title, ylabel, loglog, points in charts:
        data = [(variant, *points(trace)) for variant, trace in traces.items()]
        with _create(_out_path(out_dir, filename)) as fh:
            _svg.line_chart(data, title, "iteration", ylabel, loglog=loglog, out=fh)


def cmd_flow(args) -> int:
    cfg, echo, seed, out_dir = _prepare(args)

    flow = cfg["flow"]
    forced = flow["forced_signal"].strip().lower()
    if forced not in ("none", "one"):
        raise ConfigError(f"[flow] forced_signal must be none or one, got {forced!r}")
    flow_cfg = FlowConfig(
        variant=cfg["solver"]["variant"],
        schedule=Schedule(cfg["solver"]["c"], cfg["solver"]["p"]),
        t_end=flow["t_end"],
        dt=flow["dt"],
        record_every=flow["record_every"],
    )

    if forced == "one":
        # only the averaging equation runs: no problem and no variant; sbar is the run's x
        unread = next((key for key in echo if key.startswith("problem.") or key in ("solver.variant", "solver.x0")), None)
        if unread is not None:
            section, key = unread.split(".")
            raise ConfigError(f"[{section}] {key} is not read by forced_signal = one, which builds no problem")
        trace = force_signal(flow_cfg, lambda t: np.array([1.0]))
        problem, extra = (None, {}), {"seed": seed, "final_s_bar": _fmt_float(float(trace.state.x[0]))}
    else:
        obj, domain, meta = _build_problem(cfg, seed)
        trace = integrate(obj, domain, replace(flow_cfg, x0=_parse_x0(cfg, domain)))
        problem, extra = (domain, meta), {"variant": flow_cfg.variant.value, "seed": seed}
    header = _trace_header(echo, flow_cfg.schedule, *problem, {"dt": _fmt_float(flow_cfg.dt), **extra})
    path = _out_path(out_dir, "flow_trace.csv")
    _write_csv(path, header, TRACE_COLUMNS, _trace_columns(trace))
    if not args.quiet:
        print(f"wrote {path} ({trace.ks.size} rows)")
    return EXIT_OK


def cmd_diag(args) -> int:
    trace = read_trace_csv(args.trace)
    first, last = int(trace.ks[0]), int(trace.ks[-1])
    window = _fit_window(args.window_lo, args.window_hi, first, last, "--window-lo and --window-hi")
    report: Dict[str, object] = {"trace": os.path.basename(args.trace), "window_lo": window[0], "window_hi": window[1]}
    report.update(_rate_fits({"": trace}, window))
    report["support_first"] = None if trace.vertex_ids is None else int(support_trajectory(trace.vertex_ids)[0])
    sys.stdout.write(render_report(report))
    return EXIT_OK


def cmd_sweep(args) -> int:
    """Radius sweep for classification problems: train on a seeded 60% of
    the rows, report the validation loss on the rest at each of ten radii
    log-spaced from 1 to 100. Reported, never asserted."""
    cfg, echo, seed, out_dir = _prepare(args)
    obj, domain, _ = _build_problem(cfg, seed)
    if not isinstance(obj, Logistic):
        raise ConfigError("sweep needs a classification problem (kind = svmlight)")

    train, val = train_val_split(obj, 0.6, seed)
    rows = []
    best_alpha, best_loss = None, np.inf
    for alpha in np.geomspace(1.0, 100.0, 10):
        dom = DomainSet(Kind.L1_BALL, float(alpha), train.n)
        solver_cfg = _build_solver_config(cfg, dom)
        # only the final x is read: record k = 0 and the last row alone
        x = solve(train, dom, replace(solver_cfg, trace_every=solver_cfg.max_iters)).state.x
        train_loss, g = train.value_and_gradient(x)
        val_loss = val.value(x)
        rows.append((alpha, train_loss, val_loss, max(float(g.dot(x - lmo(dom, g).vector)), 0.0)))
        if val_loss < best_loss:
            best_alpha, best_loss = float(alpha), float(val_loss)
    path = _out_path(out_dir, "sweep.csv")
    _write_csv(path, {**echo, "seed": seed}, "alpha,train_loss,val_loss,final_gap", np.array(rows, dtype=float).T)
    if not args.quiet:
        print(f"wrote {path}; best alpha {best_alpha:g} (validation loss {best_loss:.6g})")
    return EXIT_OK


def cmd_gen_data(args) -> int:
    data = generate_sparse_logistic(m=args.m, n=args.n, density=args.density, seed=_resolve_seed(args))
    path = _out_path(args.out or ".", "synthetic_logistic.svmlight")
    write_svmlight(data, path)
    if not args.quiet:
        print(f"wrote {path} ({data.m} samples, {data.n} features)")
    return EXIT_OK


# ---------------------------------------------------------------- entry

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="avgfw", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output directory (default: [output] dir, then .)")
        p.add_argument("--seed", type=integer, default=None, help="override the config seed")
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
    p.add_argument("trace", help="trace CSV produced by solve, compare or flow")
    p.add_argument("--window-lo", type=integer, default=None)
    p.add_argument("--window-hi", type=integer, default=None)
    p.set_defaults(fn=cmd_diag)  # it writes nothing and reads no seed: no --out, --seed or --quiet

    p = sub.add_parser("gen-data")
    p.add_argument("--m", type=integer, default=800)
    p.add_argument("--n", type=integer, default=1000)
    p.add_argument("--density", type=number, default=0.01)
    common(p)
    p.set_defaults(fn=cmd_gen_data)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one subcommand. Warnings raised while it runs are held back: an
    exit-3 run drops them, as they only foreshadow its one-line message,
    and any other run shows them unchanged when the command is done."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings(record=True) as caught:
            try:
                return args.fn(args)
            except InputError as err:
                message, code = f"config error: {err}", EXIT_CONFIG
            except NumericalError as err:
                message, code = f"numerical error: {err}", EXIT_NUMERICAL
                caught.clear()
    finally:
        for w in caught:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

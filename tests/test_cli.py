import ast
import glob
import io
import json
import os
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from avgfw import _svg, cli, errors
from avgfw.cli import _build_problem, _build_solver_config, _read_config, main, read_trace_csv
from avgfw.diagnostics import degeneracy_delta, fit_rate, identify_manifold, render_report, support_set
from avgfw.domains import DomainSet, Kind
from avgfw.errors import AvgFWError, ConfigError, InputError, NumericalBlowup, NumericalError
from avgfw.experiments import generate_sparse_logistic, train_val_split, write_svmlight
from avgfw.flows import FlowConfig, force_signal, integrate
from avgfw.objectives import Logistic, QuadraticLS
from avgfw.schedules import Schedule
from avgfw.solvers import ATOM_CACHE, IterateTrace, SolverConfig, Variant, resume, solve
from oracles import keep_first_misses, scalar_probe


def run_cli(*argv):
    return main(list(argv))


def write_config(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


SCALAR_CONFIG = """
[problem]
kind = scalar1d
alpha = 1.0

[solver]
variant = fw
c = 2
p = 1
max_iters = 50
x0 = 0.5

[output]
seed = 0
"""

CS_COMPARE_CONFIG = """
[problem]
kind = cs
noise_std = 0.0
alpha_scale = 1.0

[solver]
c = 3
p = 1
max_iters = 2000

[compare]
window_lo = 100
window_hi = 1999
reference_iters = 4000

[output]
seed = 2
emit_plots = {plots}
"""

FORCED_FLOW_CONFIG = """
[solver]
c = 3
p = 1

[flow]
forced_signal = one
t_end = 6.0
dt = 1e-3
record_every = 1.0

[output]
seed = 0
"""

SCALAR_FLOW_CONFIG = """
[problem]
kind = scalar1d
alpha = 1.0

[solver]
variant = fw
c = 2
p = 1
x0 = 0.5

[flow]
t_end = 50.0
dt = 1e-3
record_every = 1.0

[output]
seed = 0
"""


def read_csv_rows(path):
    rows = []
    header = {}
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, val = line[2:].partition(" = ")
                header[key] = val
            elif line and not line[0].isalpha():
                rows.append(line.split(","))
    return header, rows


def test_solve_scalar_demo_gap_at_k0(tmp_path):
    cfg = write_config(tmp_path / "cfg.ini", SCALAR_CONFIG)
    out = tmp_path / "out"
    assert run_cli("solve", "--config", cfg, "--out", str(out), "--quiet") == 0
    header, rows = read_csv_rows(out / "trace.csv")
    assert rows[0][0] == "0"
    assert float(rows[0][2]) == pytest.approx(0.75)
    assert header["variant"] == "fw"


def test_solve_missing_config_exits_2(tmp_path):
    assert run_cli("solve", "--config", str(tmp_path / "absent.ini"), "--quiet") == 2


def test_solve_is_byte_identical_across_runs(tmp_path):
    cfg = write_config(tmp_path / "cfg.ini", SCALAR_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("solve", "--config", cfg, "--out", str(out1), "--quiet") == 0
    assert run_cli("solve", "--config", cfg, "--out", str(out2), "--quiet") == 0
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()


def test_trace_csv_format_contract(tmp_path):
    cfg = write_config(tmp_path / "cfg.ini", SCALAR_CONFIG)
    out = tmp_path / "out"
    run_cli("solve", "--config", cfg, "--out", str(out), "--quiet")
    raw = (out / "trace.csv").read_bytes()
    assert b"\r" not in raw
    text = raw.decode("ascii")
    data_lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert data_lines[0] == "k,f,gap,disc_err,atom_id"
    assert "," in data_lines[1] and ";" not in data_lines[1]


def test_compare_cs_summary_and_plots(tmp_path):
    cfg = write_config(tmp_path / "cfg.ini", CS_COMPARE_CONFIG.format(plots="true"))
    out = tmp_path / "out"
    assert run_cli("compare", "--config", cfg, "--out", str(out), "--quiet") == 0
    summary = (out / "summary.txt").read_text()
    entries = dict(line.split(" = ") for line in summary.strip().splitlines())
    assert float(entries["c"]) == 3.0
    assert float(entries["p"]) == 1.0
    assert "alpha" in entries
    slope_fw = float(entries["slope_gap_fw"])
    slope_avg = float(entries["slope_gap_avgfw"])
    assert slope_avg <= slope_fw - 0.2
    assert "identification_threshold" not in entries
    for name in ("fw_trace.csv", "avgfw_trace.csv", "gap.svg", "disc_err.svg", "support.svg"):
        assert (out / name).exists()
    assert "<svg" in (out / "gap.svg").read_text()
    # vanilla FW applies no averaging weight, and no trace records a weight:
    # the header states c and p, from which each row's weights follow
    header, _ = read_csv_rows(out / "fw_trace.csv")
    assert (header["c"], header["p"], header["variant"]) == ("3.0", "1.0", "fw")
    assert (out / "fw_trace.csv").read_text().splitlines()[len(header)] == "k,f,gap,disc_err,atom_id"


def test_compare_without_plots_writes_no_svg(tmp_path):
    cfg = write_config(tmp_path / "cfg.ini", CS_COMPARE_CONFIG.format(plots="false"))
    out = tmp_path / "out"
    assert run_cli("compare", "--config", cfg, "--out", str(out), "--quiet") == 0
    assert not list(out.glob("*.svg"))


SMALL_CS_CONFIG = """
[problem]
kind = cs
n_features = 50
m_measurements = 20
noise_std = 0.0
alpha_scale = 0.5

[solver]
max_iters = 300
{x0}

[compare]
reference_iters = {reference_iters}

[output]
seed = 2
"""
REFERENCE_KEYS = ("reference_iters", "f_star_estimate", "k_bar", "delta", "support_star_size")


def fresh_reference_summary(path, reference_iters):
    """The identification entries of a compare summary, computed from a
    fresh averaged run of max(reference_iters, max_iters) iterations."""
    cfg, _ = _read_config(path)
    obj, domain, _ = _build_problem(cfg, cfg["output"]["seed"])
    base = replace(_build_solver_config(cfg, domain), variant=Variant.AVGFW)
    iters = max(reference_iters, base.max_iters)
    reference = solve(obj, domain, replace(base, max_iters=iters))
    run = solve(obj, domain, base)
    g_star = obj.gradient(reference.state.x)
    star = support_set(g_star, domain)
    k_bar = identify_manifold(run.ks, run.vertex_ids, star)
    delta = degeneracy_delta(g_star, domain, reference.state.x)
    entries = {
        "reference_iters": iters,
        "f_star_estimate": reference.f[-1] - reference.gap[-1],
        "k_bar": "none" if k_bar is None else k_bar,
        "delta": "none" if delta is None else delta,
        "support_star_size": len(star),
    }
    return dict(line.split(" = ") for line in render_report(entries).splitlines())


@pytest.mark.parametrize("x0", ["", "x0 = " + ",".join(["0"] * 50)], ids=["lmo_start", "explicit_x0"])
@pytest.mark.parametrize("reference_iters", [500, 300, 120])
def test_compare_reference_continues_the_averaged_run(tmp_path, monkeypatch, reference_iters, x0):
    # the reference is the averaged run continued (or, when shorter, the
    # run itself): the same strings as a fresh run of that length from the
    # same start, with no averaged iteration computed twice
    cfg = write_config(tmp_path / "cfg.ini", SMALL_CS_CONFIG.format(x0=x0, reference_iters=reference_iters))
    calls = []
    value_and_gradient = QuadraticLS.value_and_gradient

    def counted(self, *args):
        calls.append(1)
        return value_and_gradient(self, *args)

    monkeypatch.setattr(QuadraticLS, "value_and_gradient", counted)
    assert run_cli("compare", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet") == 0
    assert len(calls) == 2 * 300 + max(0, reference_iters - 300)
    summary = dict(line.split(" = ") for line in (tmp_path / "out" / "summary.txt").read_text().splitlines())
    assert {key: summary[key] for key in REFERENCE_KEYS} == fresh_reference_summary(cfg, reference_iters)


def resolved_compare(path):
    """Run cli.compare on the inputs the compare command resolves from the
    config at ``path``, with the default fit window."""
    cfg, _ = _read_config(path)
    obj, domain, _ = _build_problem(cfg, cfg["output"]["seed"])
    base = _build_solver_config(cfg, domain)
    window = cli._fit_window(cfg["compare"]["window_lo"], cfg["compare"]["window_hi"], 0, base.max_iters - 1, "window")
    return base, domain, cli.compare(obj, domain, base, window, cfg["compare"]["reference_iters"])


def test_compare_core_runs_in_process(tmp_path, monkeypatch):
    # the protocol of the compare command as a function: it writes nothing,
    # and the command's summary.txt is the rendering of what it returns
    cfg = write_config(tmp_path / "cfg.ini", SMALL_CS_CONFIG.format(x0="", reference_iters=500))
    assert run_cli("compare", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet") == 0
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    base, domain, (traces, entries) = resolved_compare(cfg)
    assert sorted(tmp_path.rglob("*")) == before
    assert list(traces) == ["fw", "avgfw"]
    header = {"c": base.schedule.c, "p": base.schedule.p, "alpha": domain.alpha, "max_iters": 300, "seed": 2}
    assert render_report({**header, **entries}) == (tmp_path / "out" / "summary.txt").read_text()


def test_compare_core_marks_undefined_entries_none(tmp_path):
    cfg = write_config(tmp_path / "scalar.ini", SCALAR_CONFIG.replace("max_iters = 50", "max_iters = 2"))
    _, _, (_, entries) = resolved_compare(cfg)
    slopes = [entries[f"slope_{name}_{variant}"] for name in ("gap", "disc") for variant in ("fw", "avgfw")]
    assert slopes == [None] * 4
    assert entries["delta"] is None
    cfg = write_config(tmp_path / "l2.ini", "[problem]\nkind = l2_quadratic\n[solver]\nmax_iters = 50\n")
    _, _, (_, entries) = resolved_compare(cfg)
    assert not {"k_bar", "delta", "reference_iters", "support_first_avgfw"} & set(entries)


def test_compare_core_resolves_and_checks_reference_iters(tmp_path, monkeypatch):
    # an unset length is min(100000, 10 * max_iters); one below 1 raises
    # before any solve
    cfg = write_config(tmp_path / "cfg.ini", SCALAR_CONFIG)
    base, domain, (_, entries) = resolved_compare(cfg)
    assert entries["reference_iters"] == 500
    monkeypatch.setattr(cli, "solve", lambda *args: pytest.fail("compare solved before it checked reference_iters"))
    with pytest.raises(errors.ConfigError, match=r"^\[compare\] reference_iters must be >= 1, got 0$"):
        cli.compare(scalar_probe(), domain, base, (5, 49), 0)


def test_compare_evaluates_the_gradient_at_x_star_once(tmp_path, monkeypatch):
    # the support set, k_bar and delta all read grad f(x*); from an
    # explicit x0 no run evaluates the gradient alone, so x* is the one call
    x0 = "x0 = " + ",".join(["0"] * 50)
    cfg, _ = _read_config(write_config(tmp_path / "cfg.ini", SMALL_CS_CONFIG.format(x0=x0, reference_iters=500)))
    obj, domain, _ = _build_problem(cfg, cfg["output"]["seed"])
    base = _build_solver_config(cfg, domain)
    calls = []
    gradient = QuadraticLS.gradient

    def counted(self, x):
        calls.append(1)
        return gradient(self, x)

    monkeypatch.setattr(QuadraticLS, "gradient", counted)
    _, entries = cli.compare(obj, domain, base, (30, 299), cfg["compare"]["reference_iters"])
    assert domain.kind is Kind.L1_BALL and entries["delta"] is not None
    assert len(calls) == 1


def test_failed_compare_writes_nothing(tmp_path, monkeypatch, capsys):
    # both variants run before anything is written, so a blowup in the
    # second leaves no output directory
    calls = []

    def fails_second(obj, domain, cfg, **kwargs):
        calls.append(cfg.variant)
        if len(calls) == 2:
            raise NumericalBlowup(7)
        return solve(obj, domain, cfg, **kwargs)

    monkeypatch.setattr(cli, "solve", fails_second)
    cfg = write_config(tmp_path / "cfg.ini", SMALL_CS_CONFIG.format(x0="", reference_iters=500))
    out = tmp_path / "out"
    assert run_cli("compare", "--config", cfg, "--out", str(out), "--quiet") == 3
    assert calls == [Variant.FW, Variant.AVGFW]
    assert "numerical error: non-finite value encountered at iteration 7" in capsys.readouterr().err
    assert not out.exists()


# x^2 overflows at step 1 of both runs; the flow evaluates f only on its
# recorded steps, every 1000 Euler steps, and says where it saw the value
OVERFLOW_MESSAGES = [
    ("solve", SCALAR_CONFIG, "non-finite value encountered at iteration 1"),
    ("flow", SCALAR_FLOW_CONFIG, "non-finite value first seen at Euler step 1000 (t = 1)"),
]


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("command, config, message", OVERFLOW_MESSAGES, ids=["solve", "flow"])
def test_overflowing_1d_value_exits_3(tmp_path, capsys, command, config, message):
    # x moves from 0 toward a vertex at +-1e200, and x^2 overflows: a
    # numerical error, not a traceback from the float power
    text = config.replace("alpha = 1.0", "alpha = 1e200").replace("x0 = 0.5", "x0 = 0.0")
    text = text.replace("max_iters = 50", "max_iters = 10")
    cfg = write_config(tmp_path / "cfg.ini", text)
    assert run_cli(command, "--config", cfg, "--out", str(tmp_path / "o"), "--quiet") == 3
    assert capsys.readouterr().err == f"numerical error: {message}\n"


STDERR_CHECK = """
import contextlib, io, json, sys
from avgfw.cli import main
err = io.StringIO()
with contextlib.redirect_stderr(err):
    code = main(sys.argv[1:])
print(json.dumps([code, err.getvalue()]))
"""


@pytest.mark.parametrize("command, config, message", OVERFLOW_MESSAGES, ids=["solve", "flow"])
def test_overflowing_1d_value_prints_only_its_message(tmp_path, fresh_python, command, config, message):
    # in a fresh interpreter, with the default warning filters a user has:
    # pytest's own warning capture would hide numpy's overflow warnings here
    text = config.replace("alpha = 1.0", "alpha = 1e200").replace("x0 = 0.5", "x0 = 0.0")
    text = text.replace("max_iters = 50", "max_iters = 10")
    argv = [command, "--config", write_config(tmp_path / "cfg.ini", text), "--out", str(tmp_path / "o"), "--quiet"]
    code, err = json.loads(fresh_python(STDERR_CHECK, *argv))
    assert (code, err) == (3, f"numerical error: {message}\n")


def concrete_errors():
    """Every error class in ``avgfw.errors`` but the root and the two exit-code bases."""
    bases = (AvgFWError, InputError, NumericalError)
    return [cls for cls in vars(errors).values() if isinstance(cls, type) and issubclass(cls, AvgFWError) and cls not in bases]


def test_every_error_has_exactly_one_exit_code_base():
    for cls in concrete_errors():
        assert issubclass(cls, InputError) + issubclass(cls, NumericalError) == 1, cls.__name__


def test_src_raises_every_error_class_it_defines():
    # a class that no code in src/ raises belongs with the code that does
    raised = set()
    for path in glob.glob(os.path.join(os.path.dirname(errors.__file__), "*.py")):
        with open(path, encoding="utf-8") as fh:
            raises = [node.exc for node in ast.walk(ast.parse(fh.read())) if isinstance(node, ast.Raise) and node.exc]
        raised.update(name.id for exc in raises for name in ast.walk(exc) if isinstance(name, ast.Name))
    assert {cls.__name__ for cls in concrete_errors()} - raised == set()


def test_src_catches_toolkit_errors_in_three_places_only():
    # a result the data do not determine is None, not an error to catch:
    # main maps the two bases to exit codes, and the run loops turn a
    # non-finite gradient or value into a report of where it was seen
    names = {name for name, cls in vars(errors).items() if isinstance(cls, type) and issubclass(cls, AvgFWError)}
    caught = set()
    for path in glob.glob(os.path.join(os.path.dirname(errors.__file__), "*.py")):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.ExceptHandler) and node.type is not None:
                    for name in ast.walk(node.type):
                        ident = getattr(name, "id", getattr(name, "attr", None))
                        if isinstance(name, (ast.Name, ast.Attribute)) and ident in names:
                            caught.add((os.path.basename(path), getattr(top, "name", None), ident))
    assert caught == {
        ("cli.py", "main", "InputError"),
        ("cli.py", "main", "NumericalError"),
        ("solvers.py", "_lmo_source", "NonFiniteGradient"),
        ("flows.py", "integrate", "NumericalBlowup"),
    }


def test_src_opens_files_for_reading_in_the_line_source_only():
    # every file read passes experiments.text_lines, the one ASCII gate
    def calls(node, function):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            if isinstance(child, ast.Call):
                yield function, child
            yield from calls(child, inner)

    readers = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(errors.__file__), "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for function, call in calls(tree, None):
            if getattr(call.func, "id", getattr(call.func, "attr", None)) != "open":
                continue
            modes = call.args[1:2] + [kw.value for kw in call.keywords if kw.arg == "mode"]
            mode = modes[0].value if modes and isinstance(modes[0], ast.Constant) else "r"  # unknown: counted as a read
            if "r" in mode or "+" in mode:
                readers.append((os.path.basename(path), function))
    assert readers == [("experiments.py", "text_lines")]


@pytest.mark.parametrize("cls", concrete_errors(), ids=lambda cls: cls.__name__)
def test_main_maps_each_error_to_its_exit_code(monkeypatch, capsys, recwarn, cls):
    # a warning raised before the error is shown on exit 2 and dropped on
    # exit 3, whose message is its only stderr line
    err = cls(1)

    def fails(args):
        warnings.warn("raised before the error", UserWarning)
        raise err

    monkeypatch.setattr(cli, "cmd_solve", fails)
    code, prefix = (2, "config error:") if issubclass(cls, InputError) else (3, "numerical error:")
    assert run_cli("solve", "--config", "unused.ini") == code
    assert capsys.readouterr().err == f"{prefix} {err}\n"
    assert [str(w.message) for w in recwarn] == (["raised before the error"] if code == 2 else [])


def test_warnings_of_a_successful_run_are_shown_unchanged(monkeypatch, recwarn):
    def warns(args):
        warnings.warn_explicit("kept", RuntimeWarning, "avgfw/somewhere.py", 7)
        return 0

    monkeypatch.setattr(cli, "cmd_solve", warns)
    assert run_cli("solve", "--config", "unused.ini") == 0
    assert [(str(w.message), w.category, w.filename, w.lineno) for w in recwarn] == [
        ("kept", RuntimeWarning, "avgfw/somewhere.py", 7)
    ]


def test_flow_forced_signal_matches_closed_form(tmp_path):
    cfg = write_config(tmp_path / "cfg.ini", FORCED_FLOW_CONFIG)
    out = tmp_path / "out"
    assert run_cli("flow", "--config", cfg, "--out", str(out), "--quiet") == 0
    header, _ = read_csv_rows(out / "flow_trace.csv")
    assert float(header["final_s_bar"]) == pytest.approx(26.0 / 27.0, abs=1e-3)


def test_flow_scalar_envelope(tmp_path):
    cfg = write_config(tmp_path / "cfg.ini", SCALAR_FLOW_CONFIG)
    out = tmp_path / "out"
    assert run_cli("flow", "--config", cfg, "--out", str(out), "--quiet") == 0
    header, rows = read_csv_rows(out / "flow_trace.csv")
    h0 = float(rows[0][1]) - float(header["f_ref"])
    h_end = float(rows[-1][1]) - float(header["f_ref"])
    assert h0 == pytest.approx(0.125)
    assert h_end <= 1.05 * h0 * (2.0 / 52.0) ** 2


FLOW_RUNS = {  # config, the run it writes
    "scalar": (
        SCALAR_FLOW_CONFIG,
        lambda: integrate(
            scalar_probe(),
            DomainSet(Kind.BOX, 1.0, 1),
            FlowConfig(Variant.FW, Schedule(2.0, 1.0), t_end=50.0, dt=1e-3, record_every=1.0, x0=np.array([0.5])),
        ),
    ),
    "forced": (
        FORCED_FLOW_CONFIG,
        lambda: force_signal(FlowConfig(schedule=Schedule(3.0, 1.0), t_end=6.0, dt=1e-3, record_every=1.0), lambda t: np.array([1.0])),
    ),
}


@pytest.mark.parametrize("case", sorted(FLOW_RUNS))
def test_flow_trace_is_the_one_trace_format(tmp_path, capsys, case):
    # flow writes the trace format of solve and compare, with dt in the
    # header; it reads back bitwise, and diag fits it as fit_rate does
    text, run = FLOW_RUNS[case]
    out = tmp_path / "out"
    assert run_cli("flow", "--config", write_config(tmp_path / "cfg.ini", text), "--out", str(out), "--quiet") == 0
    path = out / "flow_trace.csv"
    header, _ = read_csv_rows(path)
    assert path.read_text().splitlines()[len(header)] == cli.TRACE_COLUMNS
    assert header["dt"] == "0.001" and ("variant" in header) == (case == "scalar")
    trace, read = run(), read_trace_csv(str(path))
    for name in ("ks", "f", "gap", "disc_err", "vertex_ids"):
        got, want = getattr(read, name), getattr(trace, name)
        assert got is want is None or (got.dtype == want.dtype and got.tobytes() == want.tobytes())
    assert run_cli("diag", str(path)) == 0
    report = report_entries(capsys.readouterr().out)
    fit = fit_rate(trace.ks, trace.gap, (1, int(trace.ks[-1])))
    assert report["slope_gap"] == ("none" if fit is None else repr(fit.slope))
    assert report["support_first"] == "none"
    if case == "scalar":
        assert fit is not None


def test_flow_oversized_dt_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.ini", SCALAR_FLOW_CONFIG.replace("dt = 1e-3", "dt = 0.5"))
    assert run_cli("flow", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet") == 2
    assert capsys.readouterr().err == "config error: dt = 0.5 exceeds the supported maximum 0.01\n"


def test_svmlight_index_too_large_to_allocate_exits_2(tmp_path, fresh_python):
    # rejected while parsing, so the 7.28 TiB feature vector is never requested
    data = tmp_path / "huge.svmlight"
    data.write_text("+1 1:0.5 999999999999:1.0\n-1 2:0.3\n")
    cfg = write_config(tmp_path / "cfg.ini", SVMLIGHT_CONFIG.replace("{data}", str(data)))
    argv = ["compare", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]
    code, err = json.loads(fresh_python(STDERR_CHECK, *argv))
    assert code == 2 and "Traceback" not in err and err.count("\n") == 1
    assert err.startswith("config error: line 1: feature index 999999999999 is too large")


def test_flow_non_numeric_x0_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.ini", SCALAR_FLOW_CONFIG.replace("x0 = 0.5", "x0 = half"))
    assert run_cli("flow", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet") == 2
    assert "config error: [solver] x0" in capsys.readouterr().err


def test_diag_refits_existing_csv(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.ini", CS_COMPARE_CONFIG.format(plots="false"))
    out = tmp_path / "out"
    run_cli("compare", "--config", cfg, "--out", str(out), "--quiet")
    assert run_cli("diag", str(out / "fw_trace.csv"), "--window-lo", "100", "--window-hi", "1999") == 0
    printed = capsys.readouterr().out
    entries = dict(line.split(" = ") for line in printed.strip().splitlines())
    assert -1.35 <= float(entries["slope_gap"]) <= -0.75
    assert "support_first" in entries
    # over [compare]'s window, diag refits each trace to the summary's strings
    summary = dict(line.split(" = ") for line in (out / "summary.txt").read_text().splitlines())
    for variant in ("fw", "avgfw"):
        assert run_cli("diag", str(out / f"{variant}_trace.csv"), "--window-lo", "100", "--window-hi", "1999") == 0
        entries = dict(line.split(" = ") for line in capsys.readouterr().out.strip().splitlines())
        for key in ("slope_gap", "r2_gap", "slope_disc", "r2_disc"):
            assert entries[key] == summary[f"{key}_{variant}"]


def test_diag_missing_file_exits_2(tmp_path):
    assert run_cli("diag", str(tmp_path / "none.csv")) == 2


SWEEP_CONFIG = """
[problem]
kind = svmlight
path = {logistic}
alpha = 10.0

[solver]
variant = avgfw
c = 3
p = 1
max_iters = 150

[output]
seed = 0
"""


def sweep_config(tmp_path, text=SWEEP_CONFIG):
    """Write ``text`` with {logistic} naming the svmlight file that
    ``gen-data --m 60 --n 40 --density 0.1 --seed 0`` writes."""
    data = tmp_path / "logistic.svmlight"
    write_svmlight(generate_sparse_logistic(m=60, n=40, density=0.1, seed=0), str(data))
    return write_config(tmp_path / "cfg.ini", text.replace("{logistic}", str(data)))


def test_sweep_reports_validation_loss_grid(tmp_path, capsys):
    cfg = sweep_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", cfg, "--out", str(out)) == 0
    assert "best alpha" in capsys.readouterr().out
    _, rows = read_csv_rows(out / "sweep.csv")
    assert [float(row[0]) for row in rows] == np.geomspace(1.0, 100.0, 10).tolist()
    for row in rows:
        assert np.isfinite(float(row[2]))  # validation loss column


def test_sweep_header_records_the_seed_it_ran_with(tmp_path):
    # the config echo alone reads output.seed = 0 under --seed 5 too
    cfg = sweep_config(tmp_path)
    for flags, seed in (((), "0"), (("--seed", "5"), "5")):
        out = tmp_path / f"out{seed}"
        assert run_cli("sweep", "--config", cfg, "--out", str(out), "--quiet", *flags) == 0
        header, _ = read_csv_rows(out / "sweep.csv")
        assert (header["output.seed"], header["seed"]) == ("0", seed)


def test_sweep_reports_the_gap_at_the_x_of_its_losses(tmp_path):
    # each row's losses and gap are read at one x, the final iterate; on
    # the l1 ball the gap there is g . x + alpha ||g||_inf
    cfg = sweep_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", cfg, "--out", str(out), "--quiet") == 0
    _, rows = read_csv_rows(out / "sweep.csv")
    config, _ = _read_config(cfg)
    train, val = train_val_split(_build_problem(config, 0)[0], 0.6, 0)
    for row in rows:
        alpha, train_loss, val_loss, final_gap = map(float, row)
        dom = DomainSet(Kind.L1_BALL, alpha, train.n)
        x = solve(train, dom, _build_solver_config(config, dom)).state.x
        g = train.gradient(x)
        assert (train_loss, val_loss) == (train.value(x), val.value(x))
        assert final_gap == pytest.approx(g.dot(x) + alpha * np.abs(g).max(), rel=1e-12, abs=0.0)


def test_sweep_rejects_non_classification_problem(tmp_path):
    cfg = write_config(tmp_path / "cfg.ini", SCALAR_CONFIG)
    assert run_cli("sweep", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet") == 2


def test_sweep_evaluates_the_loss_four_times_per_radius(tmp_path, monkeypatch):
    # each radius records two rows, k = 0 and its last, and then reads the
    # train and validation loss at the final x; no other step evaluates the
    # loss
    phi = Logistic._phi
    valued = []

    def counted(self, u, value=True):
        valued.append(value)
        return phi(self, u, value)

    monkeypatch.setattr(Logistic, "_phi", counted)
    cfg = sweep_config(tmp_path)
    assert run_cli("sweep", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet") == 0
    assert len(valued) == 10 * (1 + 150 + 2) and valued.count(True) == 10 * 4


SVMLIGHT_CONFIG = "[problem]\nkind = svmlight\npath = {data}\nalpha = 1.0\n[solver]\nmax_iters = 5\n"
NON_FINITE_SVMLIGHT = b"+1 1:0.5 2:1.0\n-1 1:nan 2:0.3\n+1 1:0.1 2:inf\n"

# each case: argv with {trace} for a trace CSV, config text with {data}
# for an svmlight file (holding a non-ASCII byte unless SVMLIGHT_BODIES
# names the case) and {logistic} for sweep_config's file, and the message
# expected; a message naming an argument is argparse's own, after its usage
# line
BAD_INPUTS = {
    "unknown_key": (["solve"], SCALAR_CONFIG.replace("max_iters = 50", "max_iter = 5"), "unknown key [solver] max_iter"),
    "unknown_section": (["solve"], SCALAR_CONFIG + "\n[extra]\nk = 1\n", "unknown section [extra]"),
    # the README's grammar: no defaults section, only "=", case-sensitive keys
    "config_default_section": (["solve"], "[DEFAULT]\nkind = scalar1d\n\n[problem]\n", "unknown section [DEFAULT]"),
    "config_colon_delimiter": (["solve"], SCALAR_CONFIG.replace("kind = scalar1d", "kind: scalar1d"), "cannot parse config"),
    "config_upper_case_key": (["solve"], SCALAR_CONFIG.replace("kind = scalar1d", "KIND = scalar1d"), "unknown key [problem] KIND"),
    # generated data past physical memory (past the address space, too) is refused before it is allocated
    "cs_matrix_past_memory": (
        ["solve"],
        "[problem]\nkind = cs\nn_features = 1000000\nm_measurements = 10000000000\nsparsity_frac = 1e-6\n",
        "m_measurements * n_features = 10000000000 * 1000000 is too large",
    ),
    "gen_data_past_memory": (
        ["gen-data", "--m", "10000000000000", "--n", "1000"],
        None,
        "m * round(density * n) = 10000000000000 * 10 entries is too large",
    ),
    "flow_t_end_nan": (["flow"], SCALAR_FLOW_CONFIG.replace("t_end = 50.0", "t_end = nan"), "[flow] t_end"),
    "flow_dt_inf": (["flow"], SCALAR_FLOW_CONFIG.replace("dt = 1e-3", "dt = inf"), "[flow] dt"),
    "solve_emit_plots_maybe": (["solve"], SCALAR_CONFIG + "emit_plots = maybe\n", "[output] emit_plots"),
    "config_seed_negative": (["solve"], SWEEP_CONFIG.replace("seed = 0", "seed = -1"), "seed must be >= 0"),
    "gen_data_seed_negative": (["gen-data", "--seed", "-3"], None, "seed must be >= 0"),
    "gen_data_n_below_20": (["gen-data", "--m", "5", "--n", "10"], None, "n >= 20"),
    "gen_data_m_zero": (["gen-data", "--m", "0", "--n", "20"], None, "m >= 1"),
    "gen_data_density_above_1": (["gen-data", "--m", "5", "--n", "20", "--density", "1.5"], None, "density in (0, 1]"),
    "gen_data_density_negative": (["gen-data", "--m", "5", "--n", "20", "--density", "-1"], None, "density in (0, 1]"),
    # the sweep grid and split and the recorded step are fixed: a config
    # that still sets them is refused, not silently ignored
    "sweep_section_refused": (["sweep"], SWEEP_CONFIG + "\n[sweep]\npoints = 3\n", "unknown section [sweep]"),
    "solver_trace_every_refused": (
        ["solve"],
        SCALAR_CONFIG.replace("max_iters = 50", "max_iters = 50\ntrace_every = 7"),
        "unknown key [solver] trace_every",
    ),
    "sweep_single_sample_empty_split": (
        ["sweep"],
        SVMLIGHT_CONFIG,
        "frac 0.6 of 1 rows leaves an empty split (0 train, 1 validation)",
    ),
    "diag_window_inverted": (
        ["diag", "{trace}", "--window-lo", "50", "--window-hi", "10"],
        None,
        "--window-lo and --window-hi must satisfy 0 <= lo < hi <= 9, got 50 and 10",
    ),
    "diag_window_lo_past_the_trace_end": (["diag", "{trace}", "--window-lo", "900"], None, "got 900 and 9"),
    # a window the user set lies within the recorded iterations, or exits 2
    "diag_window_hi_past_the_trace_end": (
        ["diag", "{trace}", "--window-lo", "2", "--window-hi", "10"],
        None,
        "--window-lo and --window-hi must satisfy 0 <= lo < hi <= 9, got 2 and 10",
    ),
    "diag_window_lo_before_the_first_row": (
        ["diag", "{trace}", "--window-lo", "3"],
        None,
        "--window-lo and --window-hi must satisfy 5 <= lo < hi <= 9, got 3 and 9",
    ),
    "compare_window_inverted": (
        ["compare"],
        CS_COMPARE_CONFIG.format(plots="false").replace("window_lo = 100", "window_lo = 500").replace("1999", "100"),
        "[compare] window_lo and window_hi must satisfy 0 <= lo < hi <= 1999, got 500 and 100",
    ),
    "compare_window_past_the_run": (
        ["compare"],
        CS_COMPARE_CONFIG.format(plots="false").replace("window_hi = 1999", "window_hi = 2000"),
        "[compare] window_lo and window_hi must satisfy 0 <= lo < hi <= 1999, got 100 and 2000",
    ),
    # a trace's k counts up from 0 or more
    "diag_trace_k_decreasing": (["diag", "{trace}"], None, "line 3: k = 3 must be >= 0 and above the previous row's k"),
    "diag_trace_k_repeated": (["diag", "{trace}"], None, "line 3: k = 0 must be >= 0 and above the previous row's k"),
    "diag_trace_k_negative": (["diag", "{trace}"], None, "line 2: k = -3 must be >= 0 and above the previous row's k"),
    # writers fill atom_id on every row of a history (one row per k) or on none
    "diag_trace_atom_id_partial": (["diag", "{trace}"], None, "line 9: atom_id is empty, but earlier rows have one"),
    "diag_trace_atom_id_late": (["diag", "{trace}"], None, "line 3: atom_id is set, but earlier rows have none"),
    "diag_trace_atom_id_strided": (["diag", "{trace}"], None, "line 3: atom_id is set, but k = 2 is not one above the previous row's k"),
    # the kind is checked where the config is read, so a forced flow, which builds no problem, refuses it too
    "flow_forced_unknown_kind": (["flow"], FORCED_FLOW_CONFIG + "[problem]\nkind = nope\n", "unknown problem kind 'nope'"),
    # a forced flow reads no [problem] key, variant or x0: the first one set is named
    "flow_forced_problem_refused": (
        ["flow"],
        FORCED_FLOW_CONFIG + "[problem]\nkind = cs\nn_features = 7\n",
        "[problem] kind is not read by forced_signal = one, which builds no problem",
    ),
    "flow_forced_variant_refused": (
        ["flow"],
        FORCED_FLOW_CONFIG.replace("p = 1", "p = 1\nvariant = fw\nx0 = 0.5") + "[problem]\nkind = cs\n",
        "[solver] variant is not read by forced_signal = one, which builds no problem",
    ),
    "flow_forced_x0_refused": (
        ["flow"],
        FORCED_FLOW_CONFIG.replace("p = 1", "p = 1\nx0 = 0.5"),
        "[solver] x0 is not read by forced_signal = one, which builds no problem",
    ),
    # the reference solve serves identification alone, which the l2 ball has none of
    "compare_l2_reference_iters_refused": (
        ["compare"],
        "[problem]\nkind = l2_quadratic\n[solver]\nmax_iters = 5\n[compare]\nreference_iters = 5000\n",
        "[compare] reference_iters is not read on a l2_ball domain",
    ),
    "cs_radius_overflow": (
        ["compare"],
        CS_COMPARE_CONFIG.format(plots="false").replace("alpha_scale = 1.0", "alpha_scale = 1e308"),
        "alpha must be positive and finite, got inf",
    ),
    "compare_reference_iters_zero": (
        ["compare"],
        CS_COMPARE_CONFIG.format(plots="false").replace("reference_iters = 4000", "reference_iters = 0"),
        "[compare] reference_iters must be >= 1, got 0",
    ),
    "solve_x0_outside_domain": (["solve"], SCALAR_CONFIG.replace("x0 = 0.5", "x0 = 5"), "x0 lies outside the domain"),
    "flow_x0_outside_domain": (["flow"], SCALAR_FLOW_CONFIG.replace("x0 = 0.5", "x0 = 5"), "x0 lies outside the domain"),
    "cs_with_path": (
        ["compare"],
        CS_COMPARE_CONFIG.format(plots="false").replace("kind = cs", "kind = cs\npath = data.svmlight"),
        "[problem] path is not read by kind = cs",
    ),
    # cs and l2_quadratic set their radius by alpha_scale alone
    "cs_with_alpha_and_alpha_scale": (
        ["compare"],
        CS_COMPARE_CONFIG.format(plots="false").replace("alpha_scale = 1.0", "alpha = 1.0\nalpha_scale = 0.05"),
        "[problem] alpha is not read by kind = cs, which reads n_features, m_measurements, sparsity_frac, noise_std, alpha_scale",
    ),
    "l2_quadratic_with_alpha_and_default_alpha_scale": (
        ["solve"],
        "[problem]\nkind = l2_quadratic\nalpha_scale = 1.0\nalpha = 1.0\n[solver]\nmax_iters = 5\n",
        "[problem] alpha is not read by kind = l2_quadratic, which reads alpha_scale",
    ),
    "svmlight_with_alpha_scale": (
        ["solve"],
        SVMLIGHT_CONFIG.replace("alpha = 1.0", "alpha = 1.0\nalpha_scale = 2"),
        "[problem] alpha_scale is not read by kind = svmlight",
    ),
    # checked before the file is read, so its non-ASCII byte is never reached
    "svmlight_n_features_hint_negative": (
        ["solve"],
        SVMLIGHT_CONFIG.replace("alpha = 1.0", "alpha = 1.0\nn_features_hint = -5"),
        "n_features_hint must be >= 1, got -5",
    ),
    "svmlight_n_features_hint_zero": (
        ["solve"],
        SVMLIGHT_CONFIG.replace("alpha = 1.0", "alpha = 1.0\nn_features_hint = 0"),
        "n_features_hint must be >= 1, got 0",
    ),
    "scalar1d_flow_with_n_features": (
        ["flow"],
        SCALAR_FLOW_CONFIG.replace("kind = scalar1d", "kind = SCALAR1D\nn_features = 5"),
        "[problem] n_features is not read by kind = scalar1d, which reads alpha",
    ),
    "svmlight_non_ascii": (["solve"], SVMLIGHT_CONFIG, "line 2: non-ASCII byte"),
    "svmlight_non_finite_solve": (["solve"], SVMLIGHT_CONFIG, "line 2: non-finite feature value '1:nan'"),
    "svmlight_non_finite_sweep": (["sweep"], SVMLIGHT_CONFIG, "line 2: non-finite feature value '1:nan'"),
    # int() and float() read "1_0" as 10: the digit separator is no part of either format
    "svmlight_digit_separator": (["solve"], SVMLIGHT_CONFIG, "line 1: bad token '1_0:0.5'"),
    "diag_trace_digit_separator": (["diag", "{trace}"], None, "line 3: bad numeric field"),
    "config_int_digit_separator": (
        ["solve"],
        SCALAR_CONFIG.replace("max_iters = 50", "max_iters = 1_0"),
        "[solver] max_iters must be an integer, got '1_0'",
    ),
    "config_float_digit_separator": (
        ["solve"],
        SCALAR_CONFIG.replace("alpha = 1.0", "alpha = 1_0"),
        "[problem] alpha must be a finite number, got '1_0'",
    ),
    "x0_digit_separator": (["solve"], SCALAR_CONFIG.replace("x0 = 0.5", "x0 = 0_5"), "[solver] x0 must be 'lmo'"),
    "seed_digit_separator": (["solve", "--seed", "1_0"], SCALAR_CONFIG, "argument --seed: invalid integer value: '1_0'"),
    "window_lo_digit_separator": (["diag", "{trace}", "--window-lo", "1_0"], None, "argument --window-lo: invalid"),
    "window_hi_digit_separator": (["diag", "{trace}", "--window-hi", "1_0"], None, "argument --window-hi: invalid"),
    "gen_data_m_digit_separator": (["gen-data", "--m", "1_0"], None, "argument --m: invalid integer value: '1_0'"),
    "gen_data_n_digit_separator": (["gen-data", "--n", "2_0"], None, "argument --n: invalid integer value: '2_0'"),
    "gen_data_density_digit_separator": (
        ["gen-data", "--density", "0.0_1"],
        None,
        "argument --density: invalid number value: '0.0_1'",
    ),
    "svmlight_label_digit_separator": (["solve"], SVMLIGHT_CONFIG, "line 1: bad token '1_0'"),
    "svmlight_value_digit_separator": (["solve"], SVMLIGHT_CONFIG, "line 1: bad token '1:1_0'"),
    "diag_trace_float_digit_separator": (["diag", "{trace}"], None, "line 3: bad numeric field"),
    # a missing file keeps the message of the reader that wanted it
    "config_not_found": (["solve", "--config", "absent.ini"], None, "config file not found: absent.ini"),
    "svmlight_not_found": (["solve"], SVMLIGHT_CONFIG.replace("{data}", "absent.svmlight"), "svmlight file not found: absent.svmlight"),
    "diag_trace_not_found": (["diag", "absent.csv"], None, "trace file not found: absent.csv"),
    # diag writes nothing and reads no seed, so it takes none of the global flags
    "diag_out_flag": (["diag", "{trace}", "--out", "dir"], None, "unrecognized arguments: --out dir"),
    "diag_seed_flag": (["diag", "{trace}", "--seed", "5"], None, "unrecognized arguments: --seed 5"),
    "diag_quiet_flag": (["diag", "{trace}", "--quiet"], None, "unrecognized arguments: --quiet"),
    # every input file is ASCII, comments included: a config exits 2 before anything runs
    "config_non_ascii_key": (["solve"], SCALAR_CONFIG.replace("max_iters", "max_it\u00e9rs"), "line 10: non-ASCII byte"),
    "config_non_ascii_section": (["solve"], SCALAR_CONFIG.replace("[solver]", "[s\u00f6lver]"), "line 6: non-ASCII byte"),
    "config_non_ascii_value": (["solve"], SCALAR_CONFIG.replace("kind = scalar1d", "kind = scalar1d\u00e9"), "line 3: non-ASCII byte"),
    "config_non_ascii_comment": (["solve"], SCALAR_CONFIG + "# caf\u00e9\n", "line 15: non-ASCII byte"),
    # a config line is read stripped: an indented line is no continuation of the value above
    "config_indented_line": (["solve"], SCALAR_CONFIG + "dir = out\n  sub\n", "cannot parse config"),
    # a step count that overflows a float is no count
    "flow_forced_t_end_overflow": (
        ["flow"],
        FORCED_FLOW_CONFIG.replace("t_end = 6.0", "t_end = 1e308"),
        "t_end / dt = 1e+308 / 0.001 overflows the Euler step count",
    ),
    "flow_record_every_overflow": (
        ["flow"],
        SCALAR_FLOW_CONFIG.replace("record_every = 1.0", "record_every = 1e308"),
        "record_every / dt = 1e+308 / 0.001 overflows the Euler step count",
    ),
    "flow_dt_subnormal": (["flow"], SCALAR_FLOW_CONFIG.replace("dt = 1e-3", "dt = 1e-320"), "t_end / dt = 50 / 9.99989e-321 overflows"),
    "cs_empty_ground_truth": (
        ["compare"],
        CS_COMPARE_CONFIG.format(plots="false").replace("kind = cs", "kind = cs\nsparsity_frac = 0.0001\nn_features = 50"),
        "sparsity_frac * n_features must round to 1..n_features: 0.0001 * 50",
    ),
}
SVMLIGHT_BODIES = {
    "svmlight_non_finite_solve": NON_FINITE_SVMLIGHT,
    "svmlight_non_finite_sweep": NON_FINITE_SVMLIGHT,
    "sweep_single_sample_empty_split": b"+1 1:0.5 2:1.0\n",
    "svmlight_digit_separator": b"+1 1_0:0.5 2:1_0.0\n-1 1:0.2 2:0.3\n",
    "svmlight_label_digit_separator": b"1_0 1:0.5\n-1 1:0.2\n",
    "svmlight_value_digit_separator": b"+1 1:1_0\n-1 1:0.2\n",
}
TRACE_BODIES = {
    "diag_window_lo_before_the_first_row": "".join(f"{k},1.0,1.0,1.0,1\n" for k in range(5, 10)),
    "diag_trace_k_decreasing": "5,1.0,1.0,1.0,1\n3,1.0,1.0,1.0,1\n4,1.0,1.0,1.0,1\n",
    "diag_trace_k_repeated": "0,1.0,1.0,1.0,1\n0,1.0,1.0,1.0,1\n",
    "diag_trace_k_negative": "-3,1.0,1.0,1.0,1\n-2,1.0,1.0,1.0,1\n",
    "diag_trace_atom_id_partial": "".join(f"{k},1.0,1.0,1.0,{'' if k == 7 else 1}\n" for k in range(30)),
    "diag_trace_atom_id_late": "0,1.0,1.0,1.0,\n1,1.0,1.0,1.0,1\n",
    "diag_trace_atom_id_strided": "".join(f"{k},1.0,1.0,1.0,1\n" for k in range(0, 20, 2)),
    "diag_trace_digit_separator": "0,1.0,1.0,1.0,1\n1_0,1.0,1.0,1.0,1\n",
    "diag_trace_float_digit_separator": "0,1.0,1.0,1.0,1\n1,1_0,1.0,1.0,1\n",
}

# int() and float() read other scripts' digits too: each number reader
# refuses Arabic-Indic 10 and full-width 1, a flag through argparse and a
# file as a non-ASCII line (the reader, its command line, and the line)
OTHER_DIGITS = {"arabic_indic": "\u0661\u0660", "fullwidth": "\uff11"}
NUMBER_READERS = {
    "config_int": (["solve"], SCALAR_CONFIG.replace("max_iters = 50", "max_iters = {digits}"), "line 10"),
    "config_float": (["solve"], SCALAR_CONFIG.replace("alpha = 1.0", "alpha = {digits}"), "line 4"),
    "x0": (["solve"], SCALAR_CONFIG.replace("x0 = 0.5", "x0 = {digits}"), "line 11"),
    "seed_flag": (["solve", "--seed", "{digits}"], SCALAR_CONFIG, "argument --seed: invalid integer value"),
    "window_lo_flag": (["diag", "{trace}", "--window-lo", "{digits}"], None, "argument --window-lo: invalid integer value"),
    "gen_data_m_flag": (["gen-data", "--m", "{digits}"], None, "argument --m: invalid integer value"),
    "gen_data_density_flag": (["gen-data", "--density", "{digits}"], None, "argument --density: invalid number value"),
    "svmlight_label": (["solve"], SVMLIGHT_CONFIG, "line 1"),
    "svmlight_index": (["solve"], SVMLIGHT_CONFIG, "line 1"),
    "svmlight_value": (["solve"], SVMLIGHT_CONFIG, "line 1"),
    "diag_trace_k": (["diag", "{trace}"], None, "line 3"),
    "diag_trace_float": (["diag", "{trace}"], None, "line 3"),
}
for form, digits in OTHER_DIGITS.items():
    for reader, (argv, text, where) in NUMBER_READERS.items():
        case = f"{reader}_{form}"
        message = f"{where}: {digits!r}" if where.startswith("argument") else f"{where}: non-ASCII byte"
        BAD_INPUTS[case] = ([a.replace("{digits}", digits) for a in argv], text and text.replace("{digits}", digits), message)
    SVMLIGHT_BODIES[f"svmlight_label_{form}"] = f"{digits} 1:0.5\n-1 1:0.2\n".encode()
    SVMLIGHT_BODIES[f"svmlight_index_{form}"] = f"+1 {digits}:0.5\n-1 1:0.2\n".encode()
    SVMLIGHT_BODIES[f"svmlight_value_{form}"] = f"+1 1:{digits}\n-1 1:0.2\n".encode()
    TRACE_BODIES[f"diag_trace_k_{form}"] = f"0,1.0,1.0,1.0,1\n{digits},1.0,1.0,1.0,1\n"
    TRACE_BODIES[f"diag_trace_float_{form}"] = f"0,1.0,1.0,1.0,1\n1,{digits},1.0,1.0,1\n"


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_with_message(tmp_path, capsys, case):
    argv, text, message = BAD_INPUTS[case]
    trace = tmp_path / "trace.csv"
    rows = TRACE_BODIES.get(case, "".join(f"{k},1.0,1.0,1.0,1\n" for k in range(10)))
    trace.write_text("k,f,gap,disc_err,atom_id\n" + rows, encoding="utf-8")
    argv = [str(trace) if a == "{trace}" else a for a in argv]
    if text is not None:
        data = tmp_path / "data.svmlight"
        data.write_bytes(SVMLIGHT_BODIES.get(case, b"+1 1:0.5 2:1.0\n-1 1:0.2 2:\xb50.3\n"))
        cfg = sweep_config(tmp_path, text.replace("{data}", str(data)))
        argv = argv + ["--config", cfg]
    prefix = "config error:"
    if argv[0] != "diag":  # diag takes none of the global flags
        argv = argv + ["--out", str(tmp_path / "o"), "--quiet"]
    try:
        code = run_cli(*argv)
    except SystemExit as stop:  # argparse rejects a flag's value itself, and the top parser an unknown flag
        code, prefix = stop.code, "usage: avgfw [-h]" if "unrecognized arguments" in message else f"usage: avgfw {argv[0]}"
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix) and message in err


def test_default_window_of_a_very_short_run_reports_no_fit(tmp_path, capsys):
    # max_iters = 2 gives the default window (1, 1), and a one-row trace
    # (1, 0): no fit, and no error either, as the user set no window
    cfg = write_config(tmp_path / "cfg.ini", SCALAR_CONFIG.replace("max_iters = 50", "max_iters = 2"))
    assert run_cli("compare", "--config", cfg, "--out", str(tmp_path / "c"), "--quiet") == 0
    summary = dict(line.split(" = ") for line in (tmp_path / "c" / "summary.txt").read_text().splitlines())
    assert summary["slope_gap_fw"] == summary["slope_disc_avgfw"] == "none"
    cfg = write_config(tmp_path / "one.ini", SCALAR_CONFIG.replace("max_iters = 50", "max_iters = 1"))
    assert run_cli("solve", "--config", cfg, "--out", str(tmp_path / "s"), "--quiet") == 0
    assert run_cli("diag", str(tmp_path / "s" / "trace.csv")) == 0
    report = dict(line.split(" = ") for line in capsys.readouterr().out.strip().splitlines())
    assert (report["window_lo"], report["window_hi"], report["slope_gap"]) == ("1", "0", "none")


def test_compare_refuses_a_subsampled_base(tmp_path, monkeypatch):
    # the rows of a trace_every = 7 run skip iterations and hold no atom
    # history, which the support entries need: refused before any solve;
    # the same base recording every row identifies the support at radius
    # 0.05 ||x0||_1 at k_bar = 297
    text = CS_COMPARE_CONFIG.format(plots="false").replace("alpha_scale = 1.0", "alpha_scale = 0.05")
    cfg, _ = _read_config(write_config(tmp_path / "cfg.ini", text.replace("max_iters = 2000", "max_iters = 300")))
    obj, domain, _ = _build_problem(cfg, 2)
    base = _build_solver_config(cfg, domain)
    _, summary = cli.compare(obj, domain, base, (100, 299), 20000)
    assert summary["k_bar"] == 297
    assert isinstance(summary["support_first_fw"], int) and isinstance(summary["support_first_avgfw"], int)
    monkeypatch.setattr(cli, "solve", lambda *args: pytest.fail("compare solved a subsampled base"))
    with pytest.raises(ConfigError, match="trace_every must be 1, got 7"):
        cli.compare(obj, domain, replace(base, trace_every=7), (100, 299), 20000)


SUBSAMPLED_FLOW_CONFIG = """
[problem]
kind = cs
n_features = 50
m_measurements = 20
noise_std = 0.0
alpha_scale = 0.5

[flow]
t_end = 0.3
dt = 1e-3
record_every = {record_every}

[output]
seed = 2
"""


def test_diag_support_metrics_undefined_on_subsampled_trace(tmp_path, capsys):
    # a flow recorded every 7 Euler steps skips iterations, so its rows hold
    # no atom history: its atom_id column is empty, diag reports the entry
    # that counts atoms as undefined, and no support chart is drawn; the
    # flow recorded at every step has all three
    traces = {}
    for name, every in (("full", "1e-3"), ("sub", "7e-3")):
        cfg = write_config(tmp_path / f"{name}.ini", SUBSAMPLED_FLOW_CONFIG.format(record_every=every))
        assert run_cli("flow", "--config", cfg, "--out", str(tmp_path / name), "--quiet") == 0
        traces[name] = read_trace_csv(str(tmp_path / name / "flow_trace.csv"))
    full_rows = read_csv_rows(tmp_path / "full" / "flow_trace.csv")[1]
    sub_rows = read_csv_rows(tmp_path / "sub" / "flow_trace.csv")[1]
    assert len(sub_rows) < len(full_rows)
    assert all(row[4] for row in full_rows) and not any(row[4] for row in sub_rows)
    support_first = {}
    for name in traces:
        assert run_cli("diag", str(tmp_path / name / "flow_trace.csv")) == 0
        support_first[name] = report_entries(capsys.readouterr().out)["support_first"]
    assert support_first["full"] != "none" and support_first["sub"] == "none"
    for name, trace in traces.items():
        cli._emit_compare_plots(str(tmp_path / name), {"avgfw": trace})
    assert (tmp_path / "full" / "support.svg").exists() and (tmp_path / "sub" / "gap.svg").exists()
    assert not (tmp_path / "sub" / "support.svg").exists()


def report_entries(text):
    return dict(line.split(" = ") for line in text.strip().splitlines())


def test_compare_window_outside_the_run_exits_2_before_any_solve(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "solve", lambda *args: pytest.fail("compare solved before it checked its window"))
    text = SCALAR_CONFIG + "\n[compare]\nwindow_lo = 10\nwindow_hi = 50\n"
    out = tmp_path / "out"
    assert run_cli("compare", "--config", write_config(tmp_path / "c.ini", text), "--out", str(out), "--quiet") == 2
    assert capsys.readouterr().err == (
        "config error: [compare] window_lo and window_hi must satisfy 0 <= lo < hi <= 49, got 10 and 50\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("problem", ["cs", "logistic"])
def test_diag_without_a_window_reprints_the_summary(tmp_path, capsys, problem):
    # compare and diag share one default window, so diag on either trace of
    # a compare prints the summary's window and fits for that variant
    if problem == "cs":
        cfg = write_config(tmp_path / "cfg.ini", SMALL_CS_CONFIG.format(x0="", reference_iters=500))
    else:
        cfg = sweep_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("compare", "--config", cfg, "--out", str(out), "--quiet") == 0
    summary = report_entries((out / "summary.txt").read_text())
    keys = ("window_lo", "window_hi", "slope_gap", "r2_gap", "slope_disc", "r2_disc")
    for variant in ("fw", "avgfw"):
        assert run_cli("diag", str(out / f"{variant}_trace.csv")) == 0
        report = report_entries(capsys.readouterr().out)
        expected = {key: summary[key if key.startswith("window") else f"{key}_{variant}"] for key in keys}
        assert {key: report[key] for key in keys} == expected
        assert "none" not in expected.values()


IMPORT_CHECK = """
import json, sys
from avgfw.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print(json.dumps(sorted(name for name in sys.modules if name.startswith("scipy"))))
"""


def test_dense_commands_never_import_scipy(tmp_path, fresh_python):
    # scipy is loaded on first use, by sparse data and the logistic loss
    # only: a scipy import at the top of any module avgfw.cli loads, or on
    # the dense solve, compare and forced-flow paths, fails this
    cs = (
        CS_COMPARE_CONFIG.format(plots="true")
        .replace("max_iters = 2000", "max_iters = 200")
        .replace("window_hi = 1999", "window_hi = 199")
        .replace("reference_iters = 4000", "reference_iters = 400")
    )
    runs = [
        ["solve", "--config", write_config(tmp_path / "scalar.ini", SCALAR_CONFIG)],
        ["compare", "--config", write_config(tmp_path / "cs.ini", cs)],
        ["flow", "--config", write_config(tmp_path / "flow.ini", FORCED_FLOW_CONFIG)],
    ]
    runs = [argv + ["--out", str(tmp_path / argv[0]), "--quiet"] for argv in runs]
    assert json.loads(fresh_python(IMPORT_CHECK, json.dumps(runs))) == []
    assert (tmp_path / "compare" / "gap.svg").exists()


def test_gen_data_round_trips(tmp_path):
    out = tmp_path / "data"
    assert run_cli("gen-data", "--out", str(out), "--m", "40", "--n", "60", "--density", "0.05", "--quiet") == 0
    from avgfw.experiments import load_svmlight

    data = load_svmlight(str(out / "synthetic_logistic.svmlight"), n_features_hint=60)
    assert data.Z.shape == (40, 60)


def test_read_trace_csv_round_trip(tmp_path):
    cfg = write_config(tmp_path / "cfg.ini", SCALAR_CONFIG)
    out = tmp_path / "out"
    run_cli("solve", "--config", cfg, "--out", str(out), "--quiet")
    trace = read_trace_csv(str(out / "trace.csv"))
    assert trace.ks[0] == 0
    assert trace.gap[0] == pytest.approx(0.75)
    assert trace.state is None  # a CSV holds no checkpoint


@pytest.mark.parametrize("case", ["every_1", "every_7", "resumed_at_5"])
def test_read_trace_csv_is_bitwise_the_run_it_was_written_from(tmp_path, case):
    # both producers build the trace from one packed layout, so a trace CSV
    # reads back bitwise in every field, the atom history included
    every = 7 if case == "every_7" else 1
    path = write_config(tmp_path / "cfg.ini", CS_COMPARE_CONFIG.format(plots="false").replace("max_iters = 2000", "max_iters = 300"))
    cfg, _ = _read_config(path)
    obj, domain, _ = _build_problem(cfg, 2)
    base = replace(_build_solver_config(cfg, domain), trace_every=every)
    if case == "every_1":
        run = solve(obj, domain, base)
        assert run_cli("solve", "--config", path, "--out", str(tmp_path), "--quiet") == 0
    else:  # runs no command records, written as cmd_solve writes a trace
        if case == "resumed_at_5":
            run = resume(solve(obj, domain, replace(base, max_iters=5)).state, obj, domain, replace(base, max_iters=40))
        else:
            run = solve(obj, domain, base)
        cli._write_csv(str(tmp_path / "trace.csv"), {}, cli.TRACE_COLUMNS, cli._trace_columns(run))
    read = read_trace_csv(str(tmp_path / "trace.csv"))
    assert (read.vertex_ids is None) == (every > 1) and int(read.ks[0]) == (5 if case == "resumed_at_5" else 0)
    for name in ("ks", "f", "gap", "disc_err", "vertex_ids"):
        got, want = getattr(read, name), getattr(run, name)
        assert got is want is None or (got.dtype == want.dtype and got.tobytes() == want.tobytes())
    assert read.state is None  # a CSV holds no checkpoint


def test_read_trace_csv_keeps_the_first_k_of_a_resumed_run(tmp_path):
    # a trace whose rows start at k = 5, as a resumed run writes it
    path = tmp_path / "trace.csv"
    rows = [(5, 2), (6, -1), (7, 1), (8, 1), (9, 1)]
    lines = ["k,f,gap,disc_err,atom_id"]
    lines += [f"{k},1.0,1.0,1.0,{vid}" for k, vid in rows]
    path.write_text("\n".join(lines) + "\n")
    trace = read_trace_csv(str(path))
    assert trace.ks.tolist() == [5, 6, 7, 8, 9]
    # f = 0.5 ||x - (10, 0)||^2 on the unit l1 ball: x* = e_1, whose
    # support is the vertex +e_1 (id 1), emitted from k = 7 on
    obj = QuadraticLS(np.eye(2), np.array([10.0, 0.0]))
    star = support_set(obj.gradient(np.array([1.0, 0.0])), DomainSet(Kind.L1_BALL, 1.0, 2))
    assert star == {1}
    assert identify_manifold(trace.ks, trace.vertex_ids, star) == 7


@pytest.mark.parametrize(
    "row", ["3,1.0,1.0,x,1", "9223372036854775808,1.0,1.0,1.0,1", "3,1.0,1.0,1.0,-9223372036854775809"],
    ids=["float", "k_past_int64", "atom_id_past_int64"],
)
def test_diag_bad_numeric_field_exits_2(tmp_path, capsys, row):
    path = tmp_path / "trace.csv"
    path.write_text(f"k,f,gap,disc_err,atom_id\n2,1.0,1.0,1.0,1\n{row}\n")
    assert run_cli("diag", str(path)) == 2
    assert capsys.readouterr().err == "config error: line 3: bad numeric field\n"


def long_trace(rows):
    rng = np.random.default_rng(4)
    ks = np.arange(rows)
    floats = [rng.standard_normal(rows) for _ in range(3)]
    return IterateTrace(ks, *floats, vertex_ids=rng.integers(-500, 500, rows), state=None)


def test_write_csv_holds_less_than_the_file_it_writes(tmp_path):
    # rows are formatted and written in blocks, never joined into one text
    trace, path = long_trace(50000), str(tmp_path / "trace.csv")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cli._write_csv(path, {"seed": 0}, cli.TRACE_COLUMNS, cli._trace_columns(trace))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < os.path.getsize(path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[:2] == ["# seed = 0", cli.TRACE_COLUMNS] and len(lines) == 2 + 50000
    k, f = 49999, trace.f[49999]
    assert lines[-1].split(",")[:2] == [str(k), repr(float(f))]
    assert lines[-1].split(",")[-1] == str(int(trace.vertex_ids[k]))


def traced_peak_rise(call):
    """How far tracemalloc's peak rises above what is allocated when ``call()`` starts."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def positive_trace(rows, seed):
    # a run's shape: positive gap and disc_err, every row's atom id
    rng = np.random.default_rng(seed)
    ks = np.arange(rows)
    f, gap, disc_err = (rng.random(rows) + 0.1 for _ in range(3))
    return IterateTrace(ks, f, gap, disc_err, rng.integers(-500, 500, rows), state=None)


def test_compare_plots_hold_no_series_as_python_numbers(tmp_path):
    # three charts of 2 x 5000 points each: the points are formatted a block
    # at a time and streamed into the files, never held as lists or one string
    traces = {"fw": positive_trace(5000, 1), "avgfw": positive_trace(5000, 2)}
    peak = traced_peak_rise(lambda: cli._emit_compare_plots(str(tmp_path), traces))
    assert sorted(os.listdir(tmp_path)) == ["disc_err.svg", "gap.svg", "support.svg"]
    assert peak < 0.25 * 2**20


def test_write_csv_of_5000_rows_holds_under_150_kb(tmp_path):
    trace = long_trace(5000)
    path = str(tmp_path / "trace.csv")
    peak = traced_peak_rise(lambda: cli._write_csv(path, {"seed": 0}, cli.TRACE_COLUMNS, cli._trace_columns(trace)))
    assert read_trace_csv(path).gap.tolist() == trace.gap.tolist()
    assert peak < 0.15 * 2**20


def test_compare_holds_one_atom_image_store(cs_instance):
    # each 1000-step run at 100 x 500 meets more than ATOM_CACHE vertices,
    # so the fw run fills a store of ATOM_CACHE images; the averaged run
    # continues a copy of it, which shares those images and has no slot
    # left, and compare then empties the fw run's own, so one store's
    # images are held at a time. The margin holds both 1000-row records
    # (40 bytes a row) and a step's transient arrays; a second store of
    # its own for either run adds one store and passes it
    _, obj, dom, _ = cs_instance
    base = SolverConfig(Variant.AVGFW, Schedule(3.0, 1.0), 1000)
    result = []
    peak = traced_peak_rise(lambda: result.append(cli.compare(obj, dom, base, (100, 999), 2000)))
    traces = result[0][0]
    assert all(np.unique(trace.vertex_ids).size > ATOM_CACHE for trace in traces.values())
    store = ATOM_CACHE * obj.image_size * 8
    assert peak < store + 0.3 * 2**20
    assert len(traces["avgfw"].state.atom_images) == ATOM_CACHE and not traces["fw"].state.atom_images


def test_compare_hands_the_fw_store_to_the_averaged_run(cs_instance, monkeypatch):
    # the averaged run continues the fw run's store, and the reference
    # continuation the averaged run's: compare computes the images one
    # keep-first store misses over the three vertex histories in turn,
    # and the averaged run is bitwise the one an empty store gives
    _, obj, dom, _ = cs_instance
    base = SolverConfig(Variant.AVGFW, Schedule(3.0, 1.0), 1000)
    alone = solve(obj, dom, base)
    continued = solve(obj, dom, replace(base, max_iters=2000))  # rows 1000-1999 are the reference's
    met = []
    atom_image = QuadraticLS.atom_image

    def counted(self, domain, atom):
        met.append(atom.vertex_id)
        return atom_image(self, domain, atom)

    monkeypatch.setattr(QuadraticLS, "atom_image", counted)
    traces, _ = cli.compare(obj, dom, base, (100, 999), 2000)
    assert met == keep_first_misses(traces["fw"].vertex_ids.tolist() + continued.vertex_ids.tolist(), ATOM_CACHE)
    avg = traces["avgfw"]
    for name in ("ks", "f", "gap", "disc_err", "vertex_ids"):
        assert getattr(avg, name).tobytes() == getattr(alone, name).tobytes(), name
    for name in ("x", "s_bar", "x_image", "s_bar_image"):
        assert getattr(avg.state, name).tobytes() == getattr(alone.state, name).tobytes(), name


def test_compare_command_frees_the_store_before_it_writes(tmp_path, monkeypatch):
    # no output reads the averaged run's store, so cmd_compare empties it
    # before its first write
    cfg = write_config(tmp_path / "cfg.ini", SMALL_CS_CONFIG.format(x0="", reference_iters=500))
    states, held_at_return, held_at_write = [], [], []
    compare, write_csv = cli.compare, cli._write_csv

    def kept_compare(*args):
        traces, entries = compare(*args)
        states.append(traces["avgfw"].state)
        held_at_return.append(len(states[0].atom_images))
        return traces, entries

    def checked_write_csv(*args):
        held_at_write.append(len(states[0].atom_images))
        write_csv(*args)

    monkeypatch.setattr(cli, "compare", kept_compare)
    monkeypatch.setattr(cli, "_write_csv", checked_write_csv)
    assert run_cli("compare", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet") == 0
    assert held_at_return[0] > 0 and held_at_write == [0, 0]


# numpy routines that call LAPACK: ``polyfit`` and these of ``linalg``, with ``eig*``
LAPACK_LINALG = {"lstsq", "solve", "inv", "pinv", "svd", "qr", "cholesky", "det", "slogdet", "matrix_rank"}


def test_src_calls_no_lapack_routine():
    # the rate fit is closed-form, so no command loads LAPACK; np.linalg.norm calls none
    def lapack(name, owner):
        return name == "polyfit" or (owner == "linalg" and (name in LAPACK_LINALG or name.startswith("eig")))

    found = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(errors.__file__), "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):  # np.polyfit, np.linalg.solve, linalg.svd
                names = [(node.attr, getattr(node.value, "attr", getattr(node.value, "id", None)))]
            elif isinstance(node, ast.ImportFrom):  # from numpy.linalg import lstsq
                names = [(alias.name, (node.module or "").split(".")[-1]) for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [(node.id, None)]
            else:
                continue
            found += [(os.path.basename(path), node.lineno, name) for name, owner in names if lapack(name, owner)]
    assert found == []


@pytest.mark.parametrize("loglog", [True, False])
def test_line_chart_draws_the_same_bytes_from_lists_or_arrays(loglog):
    # int x, and y with non-finite, zero and negative points to drop
    xs = np.arange(1, 3001)
    ys = [np.linspace(-1.0, 50.0, 3000) ** 2 - 4.0, 1.0 / xs]
    ys[0][[5, 70]] = np.nan, np.inf
    from_arrays, from_lists = io.StringIO(), io.StringIO()
    _svg.line_chart([("a", xs, ys[0]), ("b", xs, ys[1])], "t", "x", "y", loglog=loglog, out=from_arrays)
    _svg.line_chart([("a", xs.tolist(), ys[0].tolist()), ("b", xs.tolist(), ys[1].tolist())], "t", "x", "y", loglog=loglog, out=from_lists)
    from_arrays, from_lists = from_arrays.getvalue(), from_lists.getvalue()
    assert from_arrays == from_lists
    assert from_arrays.count("<polyline") == 2


def test_diag_non_ascii_trace_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.ini", SCALAR_CONFIG)
    out = tmp_path / "out"
    run_cli("solve", "--config", cfg, "--out", str(out), "--quiet")
    path = out / "trace.csv"
    lines = path.read_bytes().splitlines(keepends=True)
    lines[-1] = lines[-1].replace(b",", b",\xb5", 1)
    path.write_bytes(b"".join(lines))
    assert run_cli("diag", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"line {len(lines)}: non-ASCII byte" in err


@pytest.mark.parametrize("where", ["flag", "config"])
def test_out_dir_naming_a_file_exits_2(tmp_path, capsys, where):
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n")
    text = SCALAR_CONFIG + (f"dir = {afile}\n" if where == "config" else "")
    argv = ["solve", "--config", write_config(tmp_path / "cfg.ini", text), "--quiet"]
    if where == "flag":
        argv += ["--out", str(afile)]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot create output directory")


def test_non_ascii_output_dir_exits_2_and_makes_no_directory(tmp_path, capsys):
    target = tmp_path / "caf\u00e9"
    cfg = write_config(tmp_path / "cfg.ini", SCALAR_CONFIG + f"dir = {target}\n")
    assert run_cli("solve", "--config", cfg, "--quiet") == 2
    assert capsys.readouterr().err == "config error: line 15: non-ASCII byte\n"
    assert not target.exists()


def test_config_percent_sign_is_text(tmp_path):
    target = tmp_path / "od" / "50%"
    cfg = write_config(tmp_path / "cfg.ini", SCALAR_CONFIG + f"dir = {target}\n")
    assert run_cli("solve", "--config", cfg, "--quiet") == 0
    assert (target / "trace.csv").exists()


def test_config_interpolation_syntax_is_no_substitution(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.ini", SCALAR_CONFIG.replace("x0 = 0.5", "x0 = %(max_iters)s"))
    assert run_cli("solve", "--config", cfg, "--quiet") == 2
    assert capsys.readouterr().err == (
        "config error: [solver] x0 must be 'lmo' or comma-separated finite floats, got '%(max_iters)s'\n"
    )


@pytest.mark.parametrize(
    "command, text",
    [
        ("solve", SCALAR_CONFIG.replace("kind = scalar1d", "kind = nope")),
        ("compare", SCALAR_CONFIG.replace("x0 = 0.5", "x0 = 5")),
    ],
    ids=["unknown_kind", "x0_outside"],
)
def test_run_that_exits_2_leaves_no_output_directory(tmp_path, capsys, command, text):
    out = tmp_path / "od" / "x"
    assert run_cli(command, "--config", write_config(tmp_path / "cfg.ini", text), "--out", str(out), "--quiet") == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "od").exists()


def test_default_out_dir_is_the_working_directory(tmp_path, monkeypatch):
    # with neither --out nor [output] dir, a command writes where it runs;
    # $AVGFW_OUT is not read
    cfg = write_config(tmp_path / "cfg.ini", SCALAR_CONFIG)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("AVGFW_OUT", str(tmp_path / "envout"))
    assert run_cli("solve", "--config", cfg, "--quiet") == 0
    assert (tmp_path / "trace.csv").exists()
    assert not (tmp_path / "envout").exists()


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path / "cfg.ini", CS_COMPARE_CONFIG.format(plots="false").replace("max_iters = 2000", "max_iters = 200"))
    out1, out2 = tmp_path / "s2", tmp_path / "s5"
    run_cli("solve", "--config", cfg, "--out", str(out1), "--quiet")
    run_cli("solve", "--config", cfg, "--out", str(out2), "--seed", "5", "--quiet")
    a = read_trace_csv(str(out1 / "trace.csv"))
    b = read_trace_csv(str(out2 / "trace.csv"))
    assert not np.array_equal(a.f, b.f)

import json
from dataclasses import replace

import numpy as np
import pytest

from avgfw import cli
from avgfw.cli import _build_problem, _build_solver_config, _read_config, main, read_trace_csv
from avgfw.diagnostics import identify_manifold, render_report
from avgfw.domains import DomainSet, Kind
from avgfw.errors import NumericalBlowup
from avgfw.objectives import Logistic, Objective, QuadraticLS
from avgfw.solvers import Variant, solve


def run_cli(*argv):
    return main(list(argv))


def write_config(path, text):
    path.write_text(text)
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
trace_every = 1
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
[problem]
kind = scalar1d

[solver]
c = 3
p = 1

[flow]
variant = avgfw
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
c = 2
p = 1

[flow]
variant = fw
t_end = 50.0
dt = 1e-3
record_every = 1.0
x0 = 0.5

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
    assert float(rows[0][2]) == pytest.approx(1.5)
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
    assert data_lines[0] == "k,f,gap,disc_err,gamma,beta,atom_id"
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
    report = identify_manifold(solve(obj, domain, base), obj, domain, reference.state.x)
    entries = {
        "reference_iters": iters,
        "f_star_estimate": reference.f[-1] - reference.gap[-1],
        "k_bar": "none" if report.k_bar is None else report.k_bar,
        "delta": "none" if report.delta is None else report.delta,
        "support_star_size": len(report.support_star),
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
    value_and_gradient = Objective.value_and_gradient

    def counted(self, *args):
        calls.append(1)
        return value_and_gradient(self, *args)

    monkeypatch.setattr(Objective, "value_and_gradient", counted)
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
    window = (min(100, max(1, base.max_iters // 10)), base.max_iters - 1)
    reference_iters = cfg["compare"]["reference_iters"] or min(100000, 10 * base.max_iters)
    return base, domain, cli.compare(obj, domain, base, window, reference_iters)


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


def test_failed_compare_writes_nothing(tmp_path, monkeypatch, capsys):
    # both variants run before anything is written, so a blowup in the
    # second leaves an empty output directory
    calls = []

    def fails_second(obj, domain, cfg):
        calls.append(cfg.variant)
        if len(calls) == 2:
            raise NumericalBlowup(7)
        return solve(obj, domain, cfg)

    monkeypatch.setattr(cli, "solve", fails_second)
    cfg = write_config(tmp_path / "cfg.ini", SMALL_CS_CONFIG.format(x0="", reference_iters=500))
    out = tmp_path / "out"
    assert run_cli("compare", "--config", cfg, "--out", str(out), "--quiet") == 3
    assert calls == [Variant.FW, Variant.AVGFW]
    assert "numerical error: non-finite value encountered at iteration 7" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("command, config", [("solve", SCALAR_CONFIG), ("flow", SCALAR_FLOW_CONFIG)], ids=["solve", "flow"])
def test_overflowing_1d_value_exits_3(tmp_path, capsys, command, config):
    # x moves from 0 toward a vertex at +-1e200, and x^2 overflows: a
    # numerical error, not a traceback from the float power
    text = config.replace("alpha = 1.0", "alpha = 1e200").replace("x0 = 0.5", "x0 = 0.0")
    text = text.replace("max_iters = 50", "max_iters = 10")
    cfg = write_config(tmp_path / "cfg.ini", text)
    assert run_cli(command, "--config", cfg, "--out", str(tmp_path / "o"), "--quiet") == 3
    assert capsys.readouterr().err.startswith("numerical error: non-finite value encountered at iteration")


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
    _, rows = read_csv_rows(out / "flow_trace.csv")
    h0 = float(rows[0][4])
    h_end = float(rows[-1][4])
    assert h0 == pytest.approx(0.25)
    assert h_end <= 1.05 * h0 * (2.0 / 52.0) ** 2


def test_flow_oversized_dt_exits_3(tmp_path):
    cfg = write_config(tmp_path / "cfg.ini", SCALAR_FLOW_CONFIG.replace("dt = 1e-3", "dt = 0.5"))
    assert run_cli("flow", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet") == 3


def test_flow_non_numeric_x0_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.ini", SCALAR_FLOW_CONFIG.replace("x0 = 0.5", "x0 = half"))
    assert run_cli("flow", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet") == 2
    assert "config error: [flow] x0" in capsys.readouterr().err


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
kind = synthetic_logistic
m = 60
n = 40
density = 0.1

[solver]
variant = avgfw
c = 3
p = 1
max_iters = 150

[sweep]
alpha_lo = 1
alpha_hi = 100
points = 3
train_frac = 0.6

[output]
seed = 0
"""


def test_sweep_reports_validation_loss_grid(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.ini", SWEEP_CONFIG)
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", cfg, "--out", str(out)) == 0
    assert "best alpha" in capsys.readouterr().out
    _, rows = read_csv_rows(out / "sweep.csv")
    assert len(rows) == 3
    for row in rows:
        assert np.isfinite(float(row[2]))  # validation loss column


def test_sweep_rejects_non_classification_problem(tmp_path):
    cfg = write_config(tmp_path / "cfg.ini", SCALAR_CONFIG + "\n[sweep]\npoints = 2\n")
    assert run_cli("sweep", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet") == 2


def test_sweep_evaluates_the_loss_four_times_per_radius(tmp_path, monkeypatch):
    # each radius records two rows, k = 0 and its last, whatever the
    # configured trace_every, and then reads the train and validation loss
    # at the final x; no other step evaluates the loss
    phi = Logistic._phi
    valued = []

    def counted(self, u, value=True):
        valued.append(value)
        return phi(self, u, value)

    monkeypatch.setattr(Logistic, "_phi", counted)
    cfg = write_config(tmp_path / "cfg.ini", SWEEP_CONFIG.replace("max_iters = 150", "max_iters = 150\ntrace_every = 7"))
    assert run_cli("sweep", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet") == 0
    assert len(valued) == 3 * (1 + 150 + 2) and valued.count(True) == 3 * 4


def test_sweep_without_points_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.ini", SWEEP_CONFIG.replace("points = 3", "points = 0"))
    assert run_cli("sweep", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet") == 2
    assert "config error: [sweep] points" in capsys.readouterr().err


SVMLIGHT_CONFIG = "[problem]\nkind = svmlight\npath = {data}\nalpha = 1.0\n[solver]\nmax_iters = 5\n"
NON_FINITE_SVMLIGHT = b"+1 1:0.5 2:1.0\n-1 1:nan 2:0.3\n+1 1:0.1 2:inf\n"

# each case: argv with {cfg} for the config path, config text with {data}
# for an svmlight file (holding a non-ASCII byte unless SVMLIGHT_BODIES
# names the case), and the message expected
BAD_INPUTS = {
    "unknown_key": (["solve"], SCALAR_CONFIG.replace("max_iters = 50", "max_iter = 5"), "unknown key [solver] max_iter"),
    "unknown_section": (["solve"], SCALAR_CONFIG + "\n[extra]\nk = 1\n", "unknown section [extra]"),
    "flow_t_end_nan": (["flow"], SCALAR_FLOW_CONFIG.replace("t_end = 50.0", "t_end = nan"), "[flow] t_end"),
    "flow_dt_inf": (["flow"], SCALAR_FLOW_CONFIG.replace("dt = 1e-3", "dt = inf"), "[flow] dt"),
    "solve_emit_plots_maybe": (["solve"], SCALAR_CONFIG + "emit_plots = maybe\n", "[output] emit_plots"),
    "config_seed_negative": (["solve"], SWEEP_CONFIG.replace("seed = 0", "seed = -1"), "seed must be >= 0"),
    "gen_data_seed_negative": (["gen-data", "--seed", "-3"], None, "seed must be >= 0"),
    "logistic_n_below_20": (["solve"], SWEEP_CONFIG.replace("n = 40", "n = 19"), "n >= 20"),
    "gen_data_n_below_20": (["gen-data", "--m", "5", "--n", "10"], None, "n >= 20"),
    "logistic_m_zero": (["solve"], SWEEP_CONFIG.replace("m = 60", "m = 0"), "m >= 1"),
    "logistic_density_above_1": (["solve"], SWEEP_CONFIG.replace("density = 0.1", "density = 1.5"), "density in (0, 1]"),
    "logistic_density_negative": (["solve"], SWEEP_CONFIG.replace("density = 0.1", "density = -1"), "density in (0, 1]"),
    "sweep_alpha_lo_zero": (["sweep"], SWEEP_CONFIG.replace("alpha_lo = 1", "alpha_lo = 0"), "[sweep] alpha_lo"),
    "sweep_train_frac_one": (
        ["sweep"],
        SWEEP_CONFIG.replace("train_frac = 0.6", "train_frac = 1.0"),
        "[sweep] train_frac must lie in (0, 1), got 1.0",
    ),
    "sweep_train_frac_empty_split": (["sweep"], SWEEP_CONFIG.replace("train_frac = 0.6", "train_frac = 0.0001"), "empty split"),
    "diag_window_inverted": (
        ["diag", "{trace}", "--window-lo", "50", "--window-hi", "10"],
        None,
        "--window-lo and --window-hi must satisfy lo < hi, got 50 and 10",
    ),
    "diag_window_lo_past_the_trace_end": (["diag", "{trace}", "--window-lo", "900"], None, "got 900 and 9"),
    "compare_window_inverted": (
        ["compare"],
        CS_COMPARE_CONFIG.format(plots="false").replace("window_lo = 100", "window_lo = 500").replace("1999", "100"),
        "[compare] window_lo and window_hi must satisfy lo < hi, got 500 and 100",
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
    "cs_with_alpha_and_alpha_scale": (
        ["compare"],
        CS_COMPARE_CONFIG.format(plots="false").replace("alpha_scale = 1.0", "alpha = 1.0\nalpha_scale = 0.05"),
        "[problem] alpha and alpha_scale are both set; kind = cs reads one or the other",
    ),
    "l2_quadratic_with_alpha_and_default_alpha_scale": (  # keyed on the keys present: 1.0 is the default
        ["solve"],
        "[problem]\nkind = l2_quadratic\nalpha_scale = 1.0\nalpha = 1.0\n[solver]\nmax_iters = 5\n",
        "[problem] alpha and alpha_scale are both set; kind = l2_quadratic",
    ),
    "svmlight_with_alpha_scale": (
        ["solve"],
        SVMLIGHT_CONFIG.replace("alpha = 1.0", "alpha = 1.0\nalpha_scale = 2"),
        "[problem] alpha_scale is not read by kind = svmlight",
    ),
    "scalar1d_flow_with_n_features": (
        ["flow"],
        SCALAR_FLOW_CONFIG.replace("kind = scalar1d", "kind = Scalar1D\nn_features = 5"),
        "[problem] n_features is not read by kind = scalar1d, which reads alpha",
    ),
    "svmlight_non_ascii": (["solve"], SVMLIGHT_CONFIG, "line 2: non-ASCII byte"),
    "svmlight_non_finite_solve": (["solve"], SVMLIGHT_CONFIG, "line 2: non-finite feature value '1:nan'"),
    "svmlight_non_finite_sweep": (
        ["sweep"],
        SVMLIGHT_CONFIG + "[sweep]\ntrain_frac = 0.5\n",
        "line 2: non-finite feature value '1:nan'",
    ),
}
SVMLIGHT_BODIES = {"svmlight_non_finite_solve": NON_FINITE_SVMLIGHT, "svmlight_non_finite_sweep": NON_FINITE_SVMLIGHT}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_with_message(tmp_path, capsys, case):
    argv, text, message = BAD_INPUTS[case]
    trace = tmp_path / "trace.csv"
    trace.write_text("k,f,gap,disc_err,gamma,beta,atom_id\n" + "".join(f"{k},1.0,1.0,1.0,0.5,0.5,1\n" for k in range(10)))
    argv = [str(trace) if a == "{trace}" else a for a in argv]
    if text is not None:
        data = tmp_path / "data.svmlight"
        data.write_bytes(SVMLIGHT_BODIES.get(case, b"+1 1:0.5 2:1.0\n-1 1:0.2 2:\xb50.3\n"))
        cfg = write_config(tmp_path / "cfg.ini", text.replace("{data}", str(data)))
        argv = argv + ["--config", cfg]
    assert run_cli(*argv, "--out", str(tmp_path / "o"), "--quiet") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err


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


def test_diag_support_metrics_undefined_on_subsampled_trace(tmp_path, capsys):
    text = CS_COMPARE_CONFIG.format(plots="false").replace("max_iters = 2000", "max_iters = 300")
    full, sub = tmp_path / "full", tmp_path / "sub"
    run_cli("compare", "--config", write_config(tmp_path / "a.ini", text), "--out", str(full), "--quiet")
    text = text.replace("max_iters = 300", "max_iters = 300\ntrace_every = 7")
    run_cli("compare", "--config", write_config(tmp_path / "b.ini", text), "--out", str(sub), "--quiet")
    # the atom_id column of a subsampled trace is the vertex id at each recorded k
    full_ids = {row[0]: row[6] for row in read_csv_rows(full / "fw_trace.csv")[1]}
    sub_rows = read_csv_rows(sub / "fw_trace.csv")[1]
    assert len(sub_rows) < len(full_ids)
    assert all(row[6] == full_ids[row[0]] for row in sub_rows)
    # the summary still counts from the full history; diag cannot
    summary = (sub / "summary.txt").read_text()
    assert int(dict(line.split(" = ") for line in summary.splitlines())["support_first_fw"]) >= 1
    assert run_cli("diag", str(sub / "fw_trace.csv")) == 0
    entries = dict(line.split(" = ") for line in capsys.readouterr().out.strip().splitlines())
    assert entries["support_first"] == "undefined"


def report_entries(text):
    return dict(line.split(" = ") for line in text.strip().splitlines())


def test_fit_window_past_the_run_is_clipped_with_a_warning(tmp_path, capsys):
    text = (
        CS_COMPARE_CONFIG.format(plots="false")
        .replace("max_iters = 2000", "max_iters = 50")
        .replace("window_lo = 100", "window_lo = 10")
        .replace("window_hi = 1999", "window_hi = 500")
        .replace("reference_iters = 4000", "reference_iters = 100")
    )
    out = tmp_path / "out"
    assert run_cli("compare", "--config", write_config(tmp_path / "c.ini", text), "--out", str(out), "--quiet") == 0
    assert capsys.readouterr().err == (
        "warning: [compare] window_lo and window_hi ask for 10..500,"
        " outside the recorded iterations 0..49; fitting over 10..49\n"
    )
    summary = report_entries((out / "summary.txt").read_text())
    assert (summary["window_lo"], summary["window_hi"]) == ("10", "49")
    trace = str(out / "fw_trace.csv")
    assert run_cli("diag", trace, "--window-lo", "10", "--window-hi", "49") == 0
    inside = capsys.readouterr()
    assert inside.err == ""
    # the summary's slopes are the fit over the clipped window
    assert report_entries(inside.out)["slope_gap"] == summary["slope_gap_fw"] != "none"
    assert run_cli("diag", trace, "--window-lo", "10", "--window-hi", "500") == 0
    past = capsys.readouterr()
    assert past.err == (
        "warning: --window-lo and --window-hi ask for 10..500,"
        " outside the recorded iterations 0..49; fitting over 10..49\n"
    )
    assert past.out == inside.out
    # a window wholly past the run clips to an empty one: no fit, exit 0
    assert run_cli("diag", trace, "--window-lo", "60", "--window-hi", "900") == 0
    report = report_entries(capsys.readouterr().out)
    assert (report["window_lo"], report["window_hi"], report["slope_gap"], report["r2_disc"]) == ("49", "49", "none", "none")


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
    assert trace.gap[0] == pytest.approx(1.5)
    assert trace.state is None  # a CSV holds no checkpoint


def test_read_trace_csv_keeps_k_start_of_a_resumed_run(tmp_path):
    # a trace whose rows start at k = 5, as a resumed run writes it
    path = tmp_path / "trace.csv"
    rows = [(5, 2), (6, -1), (7, 1), (8, 1), (9, 1)]
    lines = ["k,f,gap,disc_err,gamma,beta,atom_id"]
    lines += [f"{k},1.0,1.0,1.0,0.5,0.5,{vid}" for k, vid in rows]
    path.write_text("\n".join(lines) + "\n")
    trace = read_trace_csv(str(path))
    assert trace.k_start == 5
    assert trace.ks.tolist() == [5, 6, 7, 8, 9]
    # f = 0.5 ||x - (10, 0)||^2 on the unit l1 ball: x* = e_1, whose
    # support is the vertex +e_1 (id 1), emitted from k = 7 on
    obj = QuadraticLS(np.eye(2), np.array([10.0, 0.0]))
    report = identify_manifold(trace, obj, DomainSet(Kind.L1_BALL, 1.0, 2), np.array([1.0, 0.0]))
    assert report.support_star == {1}
    assert report.k_bar == 7


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


def test_env_var_default_out_dir(tmp_path, monkeypatch):
    cfg_text = SCALAR_CONFIG  # no [output] dir key
    cfg = write_config(tmp_path / "cfg.ini", cfg_text)
    target = tmp_path / "envout"
    monkeypatch.setenv("AVGFW_OUT", str(target))
    assert run_cli("solve", "--config", cfg, "--quiet") == 0
    assert (target / "trace.csv").exists()


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path / "cfg.ini", CS_COMPARE_CONFIG.format(plots="false").replace("max_iters = 2000", "max_iters = 200"))
    out1, out2 = tmp_path / "s2", tmp_path / "s5"
    run_cli("solve", "--config", cfg, "--out", str(out1), "--quiet")
    run_cli("solve", "--config", cfg, "--out", str(out2), "--seed", "5", "--quiet")
    a = read_trace_csv(str(out1 / "trace.csv"))
    b = read_trace_csv(str(out2 / "trace.csv"))
    assert not np.array_equal(a.f, b.f)

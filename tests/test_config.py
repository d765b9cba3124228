"""Config loading: the shipped configs satisfy the schema, and generated
configs end in exit code 0, 2 or 3, never in an escaped exception."""

import glob
import os

import pytest
from hypothesis import given, settings, strategies as st

from avgfw.cli import PROBLEM_KEYS, SCHEMA, _read_config, main
from avgfw.experiments import generate_sparse_logistic, write_svmlight

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED = sorted(glob.glob(os.path.join(ROOT, "configs", "*.ini"))) + [os.path.join(ROOT, "bench", "cs_large.ini")]


@pytest.mark.parametrize("path", SHIPPED, ids=os.path.basename)
def test_shipped_config_loads_under_schema(path):
    values, echo = _read_config(path)
    assert set(values) == set(SCHEMA)
    assert echo


# Values that are malformed, non-finite, out of range or of the wrong type
# somewhere in the schema. Any of them may replace any key's value.
BAD = ["", "abc", "nan", "inf", "-1", "0", "1,2", "true"]

# Small valid values per key; None leaves the key out. Keys that set the
# size of a run are always present, so no example goes past desk scale.
# DATA stands for a small svmlight file.
GOOD = {
    ("problem", "kind"): ["cs", "scalar1d", "l2_quadratic", "svmlight", "synthetic_logistic"],
    ("problem", "n_features"): ["5", "30"],
    ("problem", "m_measurements"): ["4", "20"],
    ("problem", "sparsity_frac"): [None, "0.1", "1"],
    ("problem", "noise_std"): [None, "0", "0.05"],
    ("problem", "alpha"): [None, "0.5", "10"],
    ("problem", "alpha_scale"): [None, "0.05", "1"],
    ("problem", "path"): ["DATA", "absent.svmlight"],
    ("problem", "n_features_hint"): [None, "3", "40"],
    ("problem", "m"): ["30"],
    ("problem", "n"): ["20", "25"],
    ("problem", "density"): [None, "0.2", "1"],
    ("solver", "variant"): [None, "fw", "avgfw"],
    ("solver", "c"): [None, "1", "3"],
    ("solver", "p"): [None, "0.5", "1"],
    ("solver", "max_iters"): ["1", "30"],
    ("solver", "trace_every"): [None, "1", "7"],
    ("solver", "x0"): [None, "lmo", "0.5"],
    ("flow", "variant"): [None, "fw", "avgfw"],
    ("flow", "t_end"): ["0.5", "2"],
    ("flow", "dt"): [None, "1e-2", "0.5"],
    ("flow", "record_every"): [None, "0.1"],
    ("flow", "x0"): [None, "lmo", "0.5"],
    ("flow", "forced_signal"): [None, "none", "one"],
    ("compare", "window_lo"): [None, "1", "10"],
    ("compare", "window_hi"): [None, "5", "29"],
    ("compare", "reference_iters"): [None, "10", "100"],
    ("sweep", "train_frac"): [None, "0.5"],
    ("sweep", "alpha_lo"): [None, "0.1", "1"],
    ("sweep", "alpha_hi"): [None, "10"],
    ("sweep", "points"): ["1", "3"],
    ("output", "dir"): [None, "unused"],
    ("output", "emit_plots"): [None, "true", "false"],
    ("output", "seed"): [None, "0", "3"],
}

# an unknown key or section, or a [problem] key the kind may not read, in
# about one example in three
UNKNOWN = [None] * 6 + [("solver", "max_iter"), ("extra", "k"), ("problem", "density")]


def test_fuzz_pools_cover_the_schema():
    assert sorted(GOOD) == sorted((section, key) for section, keys in SCHEMA.items() for key in keys)


@st.composite
def configs(draw):
    values = {key: draw(st.sampled_from(pool)) for key, pool in GOOD.items()}
    kind = values[("problem", "kind")]  # keep only the keys the kind reads, so that examples reach the run
    values = {(s, k): v for (s, k), v in values.items() if s != "problem" or k == "kind" or k in PROBLEM_KEYS[kind]}
    for key in draw(st.lists(st.sampled_from(sorted(GOOD)), max_size=2, unique=True)):
        values[key] = draw(st.sampled_from(BAD))
    unknown = draw(st.sampled_from(UNKNOWN))
    if unknown is not None:
        values[unknown] = "5"
    sections: dict = {}
    for (section, key), val in values.items():
        if val is not None:
            sections.setdefault(section, []).append(f"{key} = {val}")
    command = draw(st.sampled_from(["solve", "compare", "flow", "sweep"]))
    return command, "".join(f"[{s}]\n" + "\n".join(lines) + "\n\n" for s, lines in sections.items())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    write_svmlight(generate_sparse_logistic(m=12, n=20, density=0.2, seed=1), str(root / "data.svmlight"))
    return root


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(case=configs())
def test_generated_configs_exit_cleanly(workdir, case):
    command, text = case
    cfg = workdir / "cfg.ini"
    cfg.write_text(text.replace("DATA", str(workdir / "data.svmlight")))
    rc = main([command, "--config", str(cfg), "--out", str(workdir / "out"), "--quiet"])
    assert rc in (0, 2, 3)

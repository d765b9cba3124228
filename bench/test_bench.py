"""Tests of the benchmark's own arithmetic, on synthetic inputs; no solver runs."""

import json
import os
import statistics

import pytest

from child import Recorder
from run import END_TO_END, PER_LAYER, layer_metrics
from stats import Ledger, covered_length, fingerprint_mismatches, self_times, spread, tail
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


# ---------------------------------------------------------------- percentiles

@pytest.mark.parametrize(
    "n, level",
    [
        (19, None),  # even the median has only 9 samples above it
        (20, 50.0),
        (99, 50.0),
        (100, 90.0),
        (999, 90.0),  # p99 is rank 990, leaving 9 beyond
        (1000, 99.0),
        (10000, 99.9),
        (100000, 99.99),
    ],
)
def test_tail_is_highest_level_with_ten_beyond(n, level):
    got_level, value = tail(range(n))
    assert got_level == level
    if level is not None:
        # nearest rank: value has rank ceil(p n), and at least ten values lie above it
        assert sum(1 for v in range(n) if v > value) >= 10
        assert value == -(-int(level * 1000) * n // 100000) - 1


def test_tail_ignores_input_order():
    values = [5.0] * 15 + [1.0] * 15
    assert tail(values) == tail(sorted(values)) == (50.0, 1.0)


# ---------------------------------------------------------------- self time

def test_self_time_subtracts_direct_children_only():
    # root [0,100] > a [10,40] > a1 [15,20];  root > b [50,70]
    starts = [0, 10, 15, 50]
    ends = [100, 40, 20, 70]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == [50, 25, 5, 20]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    starts = [0, 10, 30, 90]
    ends = [100, 40, 60, 120]  # children overlap on [30,40]; the last runs past its parent
    parents = [-1, 0, 0, 0]
    assert self_times(starts, ends, parents)[0] == 100 - 50 - 10


def test_covered_length_of_disjoint_nested_and_empty_intervals():
    assert covered_length([], 0, 10) == 0
    assert covered_length([(0, 2), (5, 7), (6, 9)], 0, 10) == 2 + 4
    assert covered_length([(0, 10), (2, 3)], 0, 10) == 10
    assert covered_length([(-5, 3), (8, 20)], 0, 10) == 3 + 2


# ---------------------------------------------------------------- failures

def test_ledger_counts_each_failed_operation_once():
    ledger = Ledger()
    for op in ("a", "b", "c", "d"):
        ledger.attempt(op)
    ledger.fail("a", "nonzero exit")
    ledger.fail("a", "traceback")
    assert ledger.check("b", True, "unused")
    assert not ledger.check("c", False, "output check")
    assert ledger.failed == 2
    assert ledger.fail_frac == 0.5
    assert ledger.failures["a"] == ["nonzero exit", "traceback"]


def test_ledger_rejects_unknown_and_repeated_operations():
    ledger = Ledger()
    ledger.attempt("a")
    with pytest.raises(ValueError):
        ledger.attempt("a")
    with pytest.raises(ValueError):
        ledger.fail("b", "never attempted")
    assert Ledger().fail_frac == 0.0


# ---------------------------------------------------------------- fingerprints

def test_fingerprint_floats_compare_within_tolerance():
    want = {"slope": -1.2945738668222968, "gap": 1e-13}
    assert fingerprint_mismatches(want, {"slope": -1.2945738668222968 * (1 + 5e-7), "gap": 1.5e-13}, 1e-6, 1e-12) == []
    bad = fingerprint_mismatches(want, {"slope": -1.2945738668222968 * (1 + 5e-6), "gap": 1e-13}, 1e-6, 1e-12)
    assert len(bad) == 1 and bad[0].startswith("slope")


def test_fingerprint_ints_and_strings_must_match_exactly():
    want = {"k_bar": 12, "delta": "none", "iters": 20404}
    assert fingerprint_mismatches(want, dict(want), 1e-6, 1e-12) == []
    assert len(fingerprint_mismatches(want, {"k_bar": 13, "delta": "none", "iters": 20404}, 1e-6, 1e-12)) == 1
    assert len(fingerprint_mismatches(want, {"k_bar": "none", "delta": 0.5, "iters": 20404.0}, 1e-6, 1e-12)) == 3
    assert fingerprint_mismatches({"x": 1.0}, {"x": True}, 1e-6, 1e-12) != []


def test_fingerprint_missing_keys_on_either_side_mismatch():
    bad = fingerprint_mismatches({"a": 1.0, "b": 2}, {"a": 1.0, "c": 3}, 1e-6, 1e-12)
    assert [m.split(":")[0] for m in bad] == ["b", "c"]


# ---------------------------------------------------------------- spread

def test_spread_is_interquartile_distance_over_median():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.1, 9.9]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / med)
    assert spread([3.0] * 10) == 0.0


# ---------------------------------------------------------------- span recording and layer metrics

def test_recorder_nests_spans_and_layer_metrics_find_the_reference_solve(tmp_path):
    rec = Recorder()
    vg = rec.wrap("objectives.vg", lambda: None, value=lambda a, k, r: 8e6)
    lmo = rec.wrap("domains.lmo", lambda: None)
    grad = rec.wrap("objectives.gradient", lambda: None)

    def body(iters):
        grad()  # the start point's gradient, outside the loop
        for _ in range(iters):
            vg()
            lmo()

    solve = rec.wrap("solvers.solve", body, value=lambda a, k, r: a[0])
    command = rec.wrap("cli.command", lambda: [solve(n) for n in (30, 30, 40)])
    command()
    path = tmp_path / "spans.json"
    rec.dump(str(path), {"argv": ["compare"], "import_s": 0.5, "missing": []})
    doc = json.loads(path.read_text())

    assert len(doc["name"]) == 1 + 3 + 3 + 2 * 100
    names = [doc["names"][i] for i in doc["name"]]
    assert names[0] == "cli.command" and doc["parent"][0] == -1
    for i, nm in enumerate(names):
        assert 0 <= doc["self_ns"][i] <= doc["end_ns"][i] - doc["start_ns"][i]
        if nm in ("objectives.vg", "domains.lmo", "objectives.gradient"):
            assert names[doc["parent"][i]] == "solvers.solve"

    m, table = layer_metrics([doc])
    assert m["solvers.iters"] == 100
    assert m["solvers.reference_iters"] == 40  # the third solve of a compare
    assert m["objectives.vg_calls"] == m["domains.lmo_calls"] == 100
    assert m["objectives.gradient_calls"] == 3
    assert 0 < m["objectives.vg_share"] < 1 and 0 < m["domains.lmo_share"] < 1
    assert m["cli.import_s"] == 0.5
    assert table["objectives.vg"]["n"] == 100 and table["objectives.vg"]["tail_pct"] == 90.0


# ---------------------------------------------------------------- the benchmark's description

def test_benchmark_json_names_what_the_benchmark_reports():
    with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    m, _ = layer_metrics([])
    measured_elsewhere = {"objectives.vg_us_1t", "solvers.iters_to_gap", "cli.output_bytes",
                          "trace.overhead_s", "trace.overhead_frac"}
    assert set(m) | measured_elsewhere == {name for name, _, _ in PER_LAYER}

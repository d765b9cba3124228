import numpy as np
import pytest
import scipy.sparse as sp

from avgfw.diagnostics import fit_rate
from avgfw.domains import DomainSet, Kind
from avgfw.errors import ConfigError, ParseError
from avgfw.experiments import (
    SyntheticCSSpec,
    generate_cs,
    generate_l2ball_quadratic,
    generate_sparse_logistic,
    load_svmlight,
    train_val_split,
    write_svmlight,
)
from avgfw.objectives import Logistic, QuadraticLS
from avgfw.schedules import Schedule
from avgfw.solvers import SolverConfig, Variant, solve
from oracles import l1_vertex, scripted_run

L1_POOL = [
    l1_vertex(1.0, 2, 0, +1),
    l1_vertex(1.0, 2, 1, +1),
    l1_vertex(1.0, 2, 0, -1),
    l1_vertex(1.0, 2, 1, -1),
]


def test_generate_cs_is_seed_deterministic():
    a = generate_cs(SyntheticCSSpec(seed=5))
    b = generate_cs(SyntheticCSSpec(seed=5))
    assert np.array_equal(a[0].A, b[0].A)
    assert np.array_equal(a[0].y, b[0].y)
    assert np.array_equal(a[2], b[2])


def test_generate_cs_default_nonzero_count():
    _, _, x0 = generate_cs(SyntheticCSSpec())
    assert np.count_nonzero(x0) == 50
    _, _, x0 = generate_cs(SyntheticCSSpec(n_features=40, sparsity_frac=0.25, seed=1))
    assert np.count_nonzero(x0) == 10


def test_generate_cs_default_radius_contains_truth():
    obj, dom, x0 = generate_cs(SyntheticCSSpec(noise_std=0.0, seed=4))
    assert dom.kind is Kind.L1_BALL
    assert dom.alpha == pytest.approx(np.sum(np.abs(x0)))
    assert obj.value(x0) == 0.0  # noiseless: exact fit at the truth


def test_generate_cs_noiseless_reference_run_grinds_objective_down(cs_instance, cs_rate_traces):
    _, _, _, x0 = cs_instance
    _, avg = cs_rate_traces
    assert avg.f[-1] <= 1e-1  # f* = 0 anchor; 5001 averaged iterations get close
    assert avg.f[-1] < avg.f[0] * 1e-3


def test_noiseless_cs_certifies_f_star_zero(cs_rate_traces):
    # the certified interval [f - gap, f] from any iterate must contain the
    # known optimum value 0 of the noiseless instance
    for trace in cs_rate_traces:
        assert trace.f[-1] >= 0.0
        assert trace.f[-1] - trace.gap[-1] <= 0.0


def test_scripted_repeating_cycle_distance_decays():
    trace = scripted_run(L1_POOL, Schedule(3.0, 1.0), steps=10**4)
    fit = fit_rate(trace.ks, trace.disc_err, (100, 10**4))
    assert fit.slope <= -0.7


def test_scripted_random_vertices_distance_does_not_decay():
    # sub-linear averaging exponent: an iid vertex stream defeats the average
    trace = scripted_run(L1_POOL, Schedule(3.0, 0.5), steps=10**4, seed=0)
    fit = fit_rate(trace.ks, trace.disc_err, (100, 10**4))
    assert fit.slope >= -0.3


def test_scripted_single_vertex_pool_collapses():
    trace = scripted_run([l1_vertex(1.0, 2, 0, +1)], Schedule(3.0, 1.0), steps=10**4)
    assert trace.disc_err[-1] < 1e-2
    # geometric envelope (c/(c+k))^c: distance from the vertex contracts by 1-gamma_k
    k = trace.ks[-1]
    assert trace.disc_err[-1] <= 2.0 * (3.0 / (3.0 + k)) ** 3.0


def test_scripted_trace_has_nan_objective_columns():
    trace = scripted_run(L1_POOL, Schedule(3.0, 1.0), steps=10)
    assert np.all(np.isnan(trace.f))
    assert np.all(np.isnan(trace.gap))
    assert np.all(np.isfinite(trace.disc_err))


def test_l2_quadratic_regimes():
    sched = Schedule(3.0, 1.0)
    obj, dom, x_unc = generate_l2ball_quadratic(seed=0)
    assert np.linalg.norm(x_unc) == pytest.approx(2.44)
    trace = solve(obj, DomainSet(Kind.L2_BALL, 0.5 * 2.44, dom.n), SolverConfig(Variant.FW, sched, 3000))
    boundary = fit_rate(trace.ks, trace.disc_err, (100, 3000))
    assert boundary.slope <= -0.4
    trace = solve(obj, DomainSet(Kind.L2_BALL, 2.0 * 2.44, dom.n), SolverConfig(Variant.FW, sched, 3000))
    interior = fit_rate(trace.ks, trace.disc_err, (100, 3000))
    assert interior.slope >= -0.1


def test_l2_quadratic_reproducible():
    a = generate_l2ball_quadratic(seed=9)
    b = generate_l2ball_quadratic(seed=9)
    assert np.array_equal(a[0].A, b[0].A)
    assert np.array_equal(a[2], b[2])


def test_svmlight_single_line_parse(tmp_path):
    path = tmp_path / "one.svm"
    path.write_text("+1 3:0.5 7:-2\n")
    data = load_svmlight(str(path))
    assert data.m == 1
    assert data.Z.nnz == 2
    assert data.n >= 7
    assert data.Z[0, 2] == 0.5
    assert data.Z[0, 6] == -2.0
    assert data.labels[0] == 1.0


def test_svmlight_empty_feature_line(tmp_path):
    path = tmp_path / "empty.svm"
    path.write_text("-1\n+1 2:1.5\n")
    data = load_svmlight(str(path))
    assert data.m == 2
    assert data.Z[0].nnz == 0


def test_svmlight_zero_label_maps_to_minus_one(tmp_path):
    path = tmp_path / "zero.svm"
    path.write_text("0 1:1\n1 2:1\n")
    data = load_svmlight(str(path))
    np.testing.assert_array_equal(data.labels, [-1.0, 1.0])


def test_svmlight_malformed_line_reports_number(tmp_path):
    path = tmp_path / "bad.svm"
    path.write_text("+1 1:1\n+1 oops\n")
    with pytest.raises(ParseError) as err:
        load_svmlight(str(path))
    assert err.value.line_no == 2


@pytest.mark.parametrize("token", ["1:nan", "2:inf", "1:-inf", "2:NaN"])
def test_svmlight_non_finite_feature_value_reports_line(tmp_path, token):
    path = tmp_path / "nonfinite.svm"
    path.write_text(f"+1 1:0.5 2:1.0\n-1 {token}\n")
    with pytest.raises(ParseError, match=f"line 2: non-finite feature value '{token}'") as err:
        load_svmlight(str(path))
    assert err.value.line_no == 2


def test_svmlight_repeated_index_on_one_line_rejected(tmp_path):
    path = tmp_path / "dup.svm"
    path.write_text("-1 3:1.0\n+1 1:0.5 3:1.0 3:2.0\n")
    with pytest.raises(ParseError, match="line 2: feature index 3 repeated") as err:
        load_svmlight(str(path))
    assert err.value.line_no == 2


def test_svmlight_dimension_hint_too_large_to_allocate_rejected(tmp_path):
    path = tmp_path / "hint.svm"
    path.write_text("+1 2:1\n")
    with pytest.raises(ParseError, match="n_features_hint = 999999999999 is too large"):
        load_svmlight(str(path), n_features_hint=999999999999)


def test_svmlight_bad_label_rejected(tmp_path):
    path = tmp_path / "lab.svm"
    path.write_text("+3 1:1\n")
    with pytest.raises(ParseError, match="label must be -1, 0, or \\+1") as err:
        load_svmlight(str(path))
    assert err.value.line_no == 1


def test_svmlight_dimension_hint_extends(tmp_path):
    path = tmp_path / "hint.svm"
    path.write_text("+1 2:1\n")
    assert load_svmlight(str(path), n_features_hint=10).n == 10
    assert load_svmlight(str(path), n_features_hint=1).n == 2


def test_svmlight_round_trip_is_lossless(tmp_path):
    data = generate_sparse_logistic(m=800, n=1000, density=0.01, seed=0)
    path = tmp_path / "rt.svm"
    write_svmlight(data, str(path))
    back = load_svmlight(str(path), n_features_hint=1000)
    assert back.Z.shape == data.Z.shape
    np.testing.assert_array_equal(back.labels, data.labels)
    a, b = data.Z.tocsr(), back.Z.tocsr()
    np.testing.assert_array_equal(a.indptr, b.indptr)
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.data, b.data)  # bitwise via repr round-trip


def test_train_val_split_sizes_and_disjointness():
    data = generate_sparse_logistic(m=10, n=20, density=0.2, seed=3)
    train, val = train_val_split(data, 0.6, seed=1)
    assert train.m == 6 and val.m == 4
    a = train_val_split(data, 0.6, seed=1)
    np.testing.assert_array_equal(a[0].labels, train.labels)
    # disjoint: row multisets partition the original
    joined = np.vstack([train.Z.toarray(), val.Z.toarray()])
    original = data.Z.toarray()
    assert sorted(map(tuple, joined)) == sorted(map(tuple, original))


def test_train_val_split_rejects_an_empty_split():
    # floor(0.0001 * 800) = 0 training rows: a 0-row problem has no mean loss
    data = generate_sparse_logistic(m=800, n=1000, density=0.01, seed=0)
    with pytest.raises(ConfigError, match="empty split"):
        train_val_split(data, 0.0001, seed=0)
    train, val = train_val_split(data, 0.002, seed=0)
    assert train.m == 1 and val.m == 799


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("cls", [Logistic, QuadraticLS])
def test_objectives_reject_a_data_matrix_without_rows(cls, sparse):
    M = np.zeros((0, 3))
    with pytest.raises(ConfigError, match="no rows"):
        cls(sp.csr_matrix(M) if sparse else M, np.zeros(0))


def test_sparse_logistic_generator_shape_and_labels():
    data = generate_sparse_logistic(m=50, n=200, density=0.05, seed=2)
    assert data.Z.shape == (50, 200)
    assert data.Z.nnz == 50 * 10
    assert set(np.unique(data.labels)) <= {-1.0, 1.0}

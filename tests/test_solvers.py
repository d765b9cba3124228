import numpy as np
import pytest

from avgfw.domains import DomainSet, Kind, contains, diameter, l1_vertex, lmo
from avgfw.errors import ConfigError, NumericalBlowup
from avgfw.objectives import QuadraticLS, Scalar1D
from avgfw.schedules import Schedule, apply_weights, gamma, unrolled_weights
from avgfw.solvers import SolverConfig, SolverState, Variant, resume, solve
from avgfw.diagnostics import Series, fit_rate

BOX1 = DomainSet(Kind.BOX, 1.0, 1)


def small_quadratic(seed=3, m=10, n=20, alpha=2.0):
    rng = np.random.default_rng(seed)
    obj = QuadraticLS(rng.standard_normal((m, n)), rng.standard_normal(m))
    return obj, DomainSet(Kind.L1_BALL, alpha, n)


def test_fw_scalar_discretization_error_never_decays():
    cfg = SolverConfig(Variant.FW, Schedule(2.0, 1.0), max_iters=200, x0=np.array([0.5]))
    trace = solve(Scalar1D(), BOX1, cfg)
    assert trace.ks.size == 200
    assert np.all(trace.disc_err >= 1.0)


def test_avgfw_scalar_discretization_error_decays_sampled():
    cfg = SolverConfig(Variant.AVGFW, Schedule(3.0, 1.0), max_iters=501, x0=np.array([0.5]))
    trace = solve(Scalar1D(), BOX1, cfg)
    d = dict(zip(trace.ks.tolist(), trace.disc_err))
    assert d[500] < d[50] < d[5]


def test_single_step_unrolls_to_one_lmo_move():
    obj, dom = small_quadratic()
    v = np.zeros(dom.n)
    sched = Schedule(3.0, 1.0)
    trace = solve(obj, dom, SolverConfig(Variant.FW, sched, max_iters=1, x0=v))
    s0 = lmo(dom, obj.gradient(v)).vector
    expected = v + gamma(sched, 0) * (s0 - v)
    np.testing.assert_array_equal(trace.state.x, expected)


def test_default_x0_is_lmo_at_origin_gradient():
    obj, dom = small_quadratic()
    trace = solve(obj, dom, SolverConfig(Variant.FW, Schedule(2.0, 1.0), max_iters=1))
    s = lmo(dom, obj.gradient(np.zeros(dom.n)))
    # gamma_0 = 1 so x_1 lands on the first atom; the recorded start is the vertex
    assert trace.vertex_ids is not None
    np.testing.assert_array_equal(trace.state.x, s.vector + 1.0 * (lmo(dom, obj.gradient(s.vector)).vector - s.vector))


@pytest.mark.parametrize("variant", [Variant.FW, Variant.AVGFW])
def test_iterates_and_averages_stay_feasible(variant):
    obj, dom = small_quadratic()
    cfg = SolverConfig(variant, Schedule(3.0, 1.0), max_iters=300)
    trace = solve(obj, dom, cfg)
    tol = 1e-9 * dom.alpha
    assert contains(dom, trace.state.x, tol)
    assert contains(dom, trace.state.s_bar if variant is Variant.AVGFW else trace.state.s_last.vector, tol)
    # spot-check interior iterates by replaying prefixes
    for k in (10, 100):
        prefix = solve(obj, dom, SolverConfig(variant, Schedule(3.0, 1.0), max_iters=k))
        assert contains(dom, prefix.state.x, tol)


def test_avgfw_average_is_convex_combination_of_atom_history():
    obj, dom = small_quadratic()
    sched = Schedule(3.0, 1.0)
    trace = solve(obj, dom, SolverConfig(Variant.AVGFW, sched, max_iters=201))
    # l1 vertex ids are +-(i + 1); rebuild the dense atom history from them
    atoms = np.array([l1_vertex(dom.alpha, dom.n, abs(v) - 1, int(np.sign(v))).vector for v in trace.vertex_ids])
    for k in (0, 7, 64, 200):
        w = unrolled_weights(sched, k)
        direct = apply_weights(w, atoms[: k + 1])
        replay = solve(obj, dom, SolverConfig(Variant.AVGFW, sched, max_iters=k + 1))
        assert np.max(np.abs(direct - replay.state.s_bar)) <= 1e-10


def test_fw_smoothness_descent_bound(small_l1_quadratic):
    obj, dom, _ = small_l1_quadratic
    sched = Schedule(2.0, 1.0)
    trace = solve(obj, dom, SolverConfig(Variant.FW, sched, max_iters=400))
    L = obj.lipschitz_bound()
    D = diameter(dom)
    f = trace.f
    g = trace.gamma
    assert np.all(f[1:] <= f[:-1] + L * g[:-1] ** 2 * D**2 / 2 + 1e-9)


def test_gap_rates_on_cs_instance(cs_rate_traces):
    fw, avg = cs_rate_traces
    fit_fw = fit_rate(fw, Series.GAP, (100, 5000))
    fit_avg = fit_rate(avg, Series.GAP, (100, 5000))
    assert -1.35 <= fit_fw.slope <= -0.75
    assert fit_avg.slope <= fit_fw.slope - 0.2


def test_trace_every_records_sparse_rows_plus_final():
    obj, dom = small_quadratic()
    trace = solve(obj, dom, SolverConfig(Variant.AVGFW, Schedule(3.0, 1.0), max_iters=100, trace_every=30))
    assert trace.ks.tolist() == [0, 30, 60, 90, 99]
    assert trace.vertex_ids.size == 100  # full atom-id history regardless of trace_every


def test_resume_split_run_is_bitwise_identical():
    obj, dom = small_quadratic()
    sched = Schedule(3.0, 1.0)
    for variant in (Variant.FW, Variant.AVGFW):
        full = solve(obj, dom, SolverConfig(variant, sched, max_iters=1000))
        head = solve(obj, dom, SolverConfig(variant, sched, max_iters=500))
        tail = resume(head.state, obj, dom, SolverConfig(variant, sched, max_iters=500))
        np.testing.assert_array_equal(tail.state.x, full.state.x)
        np.testing.assert_array_equal(tail.state.s_bar, full.state.s_bar)
        assert tail.state.k == full.state.k == 1000


def test_resume_from_fresh_state_equals_solve():
    obj, dom = small_quadratic()
    cfg = SolverConfig(Variant.AVGFW, Schedule(3.0, 1.0), max_iters=50, x0=np.zeros(dom.n))
    fresh = SolverState(k=0, x=np.zeros(dom.n), s_last=None, s_bar=np.zeros(dom.n))
    a = solve(obj, dom, cfg)
    b = resume(fresh, obj, dom, cfg)
    np.testing.assert_array_equal(a.state.x, b.state.x)


def test_resume_rejects_dimension_mismatch():
    obj, dom = small_quadratic()
    bad = SolverState(k=0, x=np.zeros(dom.n + 1), s_last=None, s_bar=np.zeros(dom.n + 1))
    with pytest.raises(ConfigError):
        resume(bad, obj, dom, SolverConfig(Variant.FW, Schedule(2.0, 1.0), max_iters=1))


def test_dimension_mismatch_rejected():
    obj, _ = small_quadratic()
    with pytest.raises(ConfigError):
        solve(obj, DomainSet(Kind.L1_BALL, 1.0, obj.n + 1), SolverConfig())


@pytest.mark.filterwarnings("ignore:overflow")
def test_numerical_blowup_reports_iteration():
    obj = QuadraticLS(np.array([[1e200]]), np.array([0.0]))
    dom = DomainSet(Kind.L1_BALL, 1.0, 1)
    with pytest.raises(NumericalBlowup) as err:
        solve(obj, dom, SolverConfig(Variant.FW, Schedule(2.0, 1.0), max_iters=5, x0=np.array([1.0])))
    assert err.value.k == 0


def test_config_validation():
    with pytest.raises(ConfigError):
        SolverConfig(max_iters=0)
    with pytest.raises(ConfigError):
        SolverConfig(trace_every=0)


def test_trace_row_invariants(cs_rate_traces):
    for trace in cs_rate_traces:
        assert np.all(np.diff(trace.ks) > 0)
        assert np.all(trace.gap >= 0)
        assert np.all(trace.disc_err >= 0)
        assert np.all(np.isfinite(trace.f))


def test_solver_is_deterministic():
    obj, dom = small_quadratic()
    cfg = SolverConfig(Variant.AVGFW, Schedule(3.0, 1.0), max_iters=200)
    a = solve(obj, dom, cfg)
    b = solve(obj, dom, cfg)
    np.testing.assert_array_equal(a.state.x, b.state.x)
    np.testing.assert_array_equal(a.gap, b.gap)

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from avgfw.domains import DomainSet, Kind, contains, diameter, l1_vertex, lmo
from avgfw.errors import ConfigError, NumericalBlowup
from avgfw.objectives import Logistic, QuadraticLS, Scalar1D
from avgfw.schedules import Schedule, apply_weights, beta, gamma, unrolled_weights
from avgfw.solvers import IMAGE_REFRESH, SolverConfig, SolverState, Variant, resume, solve
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
    if variant is Variant.AVGFW:
        assert contains(dom, trace.state.s_bar, tol)
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
    fresh = SolverState(k=0, x=np.zeros(dom.n), s_bar=np.zeros(dom.n))
    a = solve(obj, dom, cfg)
    b = resume(fresh, obj, dom, cfg)
    np.testing.assert_array_equal(a.state.x, b.state.x)


def test_resume_rejects_dimension_mismatch():
    obj, dom = small_quadratic()
    bad = SolverState(k=0, x=np.zeros(dom.n + 1), s_bar=np.zeros(dom.n + 1))
    with pytest.raises(ConfigError):
        resume(bad, obj, dom, SolverConfig(Variant.FW, Schedule(2.0, 1.0), max_iters=1))


def outside_point(dom, excess):
    """A point at distance about ``excess`` outside the domain."""
    x = np.full(dom.n, dom.alpha) if dom.kind is Kind.BOX else np.zeros(dom.n)
    x[0] = dom.alpha + excess
    return x


@pytest.mark.parametrize("kind", list(Kind))
def test_start_point_outside_the_domain_is_rejected_at_entry(kind):
    # feasibility is checked only where a point enters the loop, within
    # 1e-6 * alpha: an explicit x0 and a resumed checkpoint's x
    rng = np.random.default_rng(11)
    dom = DomainSet(kind, 2.0, 6)
    obj = QuadraticLS(rng.standard_normal((4, 6)), rng.standard_normal(4))
    cfg = SolverConfig(Variant.AVGFW, Schedule(3.0, 1.0), max_iters=3)
    far, near = outside_point(dom, 1e-3 * dom.alpha), outside_point(dom, 1e-7 * dom.alpha)
    with pytest.raises(ConfigError, match="x0 lies outside the domain"):
        solve(obj, dom, dataclasses.replace(cfg, x0=far))
    with pytest.raises(ConfigError, match="checkpoint x lies outside the domain"):
        resume(SolverState(k=0, x=far, s_bar=np.zeros(dom.n)), obj, dom, cfg)
    assert solve(obj, dom, dataclasses.replace(cfg, x0=near)).state.k == 3
    assert resume(SolverState(k=0, x=near, s_bar=np.zeros(dom.n)), obj, dom, cfg).state.k == 3


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


# ---------------------------------------------------------------- carried images

TRACE_FIELDS = ("ks", "f", "gap", "disc_err", "gamma", "beta", "vertex_ids")


def chunked(obj, dom, variant, total, chunk):
    """solve + resume in chunks; the concatenated trace columns and the final state."""
    cfg = SolverConfig(variant, Schedule(3.0, 1.0), max_iters=chunk)
    trace = solve(obj, dom, cfg)
    parts = [trace]
    while trace.state.k < total:
        cfg = SolverConfig(variant, Schedule(3.0, 1.0), max_iters=min(chunk, total - trace.state.k))
        trace = resume(trace.state, obj, dom, cfg)
        parts.append(trace)
    return {f: np.concatenate([getattr(p, f) for p in parts]) for f in TRACE_FIELDS}, trace.state


@pytest.mark.parametrize("variant", [Variant.FW, Variant.AVGFW])
@pytest.mark.parametrize("chunk", [7, IMAGE_REFRESH + 1])
def test_chunked_resume_is_bitwise_across_image_refreshes(variant, chunk):
    obj, dom = small_quadratic()
    total = 3 * IMAGE_REFRESH + 10
    full = solve(obj, dom, SolverConfig(variant, Schedule(3.0, 1.0), max_iters=total))
    cols, state = chunked(obj, dom, variant, total, chunk)
    for f in TRACE_FIELDS:
        np.testing.assert_array_equal(cols[f], getattr(full, f))
    for f in ("x", "s_bar", "x_image", "s_bar_image"):
        np.testing.assert_array_equal(getattr(state, f), getattr(full.state, f))


@pytest.mark.parametrize("k", [10, IMAGE_REFRESH])
def test_resume_from_a_state_without_images(k):
    obj, dom = small_quadratic()
    cfg = SolverConfig(Variant.AVGFW, Schedule(3.0, 1.0), max_iters=k)
    head = solve(obj, dom, cfg).state
    bare = SolverState(k=head.k, x=head.x, s_bar=head.s_bar)
    a = resume(head, obj, dom, cfg)
    b = resume(bare, obj, dom, cfg)
    assert b.ks[0] == k and b.state.k == 2 * k
    np.testing.assert_allclose(b.state.x_image, obj.A @ b.state.x, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(b.state.s_bar_image, obj.A @ b.state.s_bar, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(a.vertex_ids, b.vertex_ids)
    if k % IMAGE_REFRESH == 0:  # both recompute the images exactly at their first step
        np.testing.assert_array_equal(a.f, b.f)
        np.testing.assert_array_equal(a.state.x_image, b.state.x_image)
    else:
        np.testing.assert_allclose(a.f, b.f, rtol=1e-12)


def test_resume_rejects_images_of_the_wrong_shape():
    obj, dom = small_quadratic()
    cfg = SolverConfig(Variant.AVGFW, Schedule(3.0, 1.0), max_iters=5)
    state = solve(obj, dom, cfg).state
    for bad in (dict(x_image=np.zeros(obj.m + 1)), dict(s_bar_image=np.zeros((obj.m, 1)))):
        with pytest.raises(ConfigError):
            resume(dataclasses.replace(state, **bad), obj, dom, cfg)


def exact_run(obj, dom, variant, iters):
    """The method with f and grad f evaluated from x on every step: the
    yardstick for the carried images. Returns (vertex ids, gaps, final x)."""
    sched = Schedule(3.0, 1.0)
    x = lmo(dom, obj.gradient(np.zeros(dom.n))).vector.copy()
    s_bar = np.zeros(dom.n)
    ids, gaps = [], []
    for k in range(iters):
        _, g = obj.value_and_gradient(x)
        atom = lmo(dom, g)
        ids.append(atom.vertex_id)
        gaps.append(max(float(np.dot(g, x - atom.vector)), 0.0))
        if variant is Variant.AVGFW:
            s_bar = s_bar + beta(sched, k) * (atom.vector - s_bar)
        direction = s_bar if variant is Variant.AVGFW else atom.vector
        x = x + gamma(sched, k) * (direction - x)
    return ids, np.array(gaps), x


def image_cases():
    rng = np.random.default_rng(5)
    A, y = rng.standard_normal((12, 40)), rng.standard_normal(12)
    Z = sp.random(30, 40, density=0.2, random_state=6, format="csr")
    labels = np.where(rng.standard_normal(30) >= 0, 1.0, -1.0)
    return {
        "l1": (QuadraticLS(A, y), DomainSet(Kind.L1_BALL, 2.0, 40)),
        "simplex": (QuadraticLS(A, y), DomainSet(Kind.SIMPLEX, 2.0, 40)),
        "box": (QuadraticLS(A, y), DomainSet(Kind.BOX, 0.5, 40)),
        # the unconstrained minimum-norm solution has norm 0.56: radius 0.5
        # puts the optimum on the boundary. Inside, the LMO -g/|g| amplifies
        # any rounding as g -> 0, so two exact evaluations that only sum in
        # a different order already part ways there.
        "l2_ball": (QuadraticLS(A, y), DomainSet(Kind.L2_BALL, 0.5, 40)),
        "csr_l1": (QuadraticLS(sp.csr_matrix(A), y), DomainSet(Kind.L1_BALL, 2.0, 40)),
        "logistic_csr_l1": (Logistic(Z, labels), DomainSet(Kind.L1_BALL, 5.0, 40)),
        "logistic_dense_simplex": (Logistic(Z.toarray(), labels), DomainSet(Kind.SIMPLEX, 5.0, 40)),
    }


@pytest.mark.parametrize("variant", [Variant.FW, Variant.AVGFW])
@pytest.mark.parametrize("case", list(image_cases()))
def test_carried_images_match_exact_evaluation(variant, case):
    obj, dom = image_cases()[case]
    iters = 5 * IMAGE_REFRESH + 3
    trace = solve(obj, dom, SolverConfig(variant, Schedule(3.0, 1.0), max_iters=iters))
    ids, gaps, x = exact_run(obj, dom, variant, iters)
    if dom.is_polyhedral:
        assert trace.vertex_ids.tolist() == ids
    np.testing.assert_allclose(trace.gap, gaps, rtol=1e-9, atol=1e-12 * gaps[0])
    np.testing.assert_allclose(trace.state.x, x, rtol=1e-9, atol=1e-12 * dom.alpha)


@pytest.mark.parametrize("variant", [Variant.FW, Variant.AVGFW])
def test_carried_images_match_exact_evaluation_where_f_star_is_zero(cs_instance, variant):
    # noiseless 100x500 at radius ||x0||_1: f -> 0, where an image carried
    # without refreshes would lose its relative accuracy first
    _, obj, dom, _ = cs_instance
    iters = 2000
    trace = solve(obj, dom, SolverConfig(variant, Schedule(3.0, 1.0), max_iters=iters))
    ids, gaps, _ = exact_run(obj, dom, variant, iters)
    assert trace.vertex_ids.tolist() == ids
    np.testing.assert_allclose(trace.gap, gaps, rtol=1e-9)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("variant", [Variant.FW, Variant.AVGFW])
def test_overflowing_carried_image_raises_numerical_blowup(variant):
    # x0 = 0 has a finite image; the first atom's image alpha * A[:, 0]
    # overflows, so the carried image of x_1 is inf
    obj = QuadraticLS(np.array([[1e300]]), np.array([0.0]))
    dom = DomainSet(Kind.L1_BALL, 1e10, 1)
    with pytest.raises(NumericalBlowup) as err:
        solve(obj, dom, SolverConfig(variant, Schedule(2.0, 1.0), max_iters=5, x0=np.array([0.0])))
    assert err.value.k == 1


def test_csr_logistic_solve_never_transposes(monkeypatch):
    # scipy builds a new transpose object on every Z.T; the objective keeps
    # a CSR copy of Z^T from construction, so a run needs no transpose
    rng = np.random.default_rng(8)
    Z = sp.random(40, 60, density=0.1, random_state=9, format="csr")
    obj = Logistic(Z, np.where(rng.standard_normal(40) >= 0, 1.0, -1.0))
    dom = DomainSet(Kind.L1_BALL, 5.0, 60)
    cfg = SolverConfig(Variant.AVGFW, Schedule(3.0, 1.0), max_iters=50)
    reference = solve(obj, dom, cfg)

    def no_transpose(*args, **kwargs):
        raise AssertionError("transpose built during a solve")

    monkeypatch.setattr(type(obj.Z), "transpose", no_transpose)
    trace = solve(obj, dom, cfg)
    assert trace.ks.size == 50
    np.testing.assert_array_equal(trace.gap, reference.gap)
    np.testing.assert_array_equal(trace.state.x, reference.state.x)

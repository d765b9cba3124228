import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from avgfw.domains import Atom, DomainSet, Kind, contains, lmo
from avgfw.errors import ConfigError, NumericalBlowup
from avgfw.experiments import SyntheticCSSpec, generate_cs
from avgfw.flows import FlowConfig, force_signal, integrate
from avgfw.objectives import Logistic, QuadraticLS
from avgfw.schedules import Schedule, beta, gamma
from avgfw.solvers import ATOM_CACHE, IMAGE_REFRESH, IterateTrace, SolverConfig, SolverState, Variant, resume, solve
from avgfw.diagnostics import fit_rate
from oracles import apply_weights, diameter, keep_first_misses, l1_vertex, scalar_probe, scripted_run, unrolled_weights

BOX1 = DomainSet(Kind.BOX, 1.0, 1)


def small_quadratic(seed=3, m=10, n=20, alpha=2.0):
    rng = np.random.default_rng(seed)
    obj = QuadraticLS(rng.standard_normal((m, n)), rng.standard_normal(m))
    return obj, DomainSet(Kind.L1_BALL, alpha, n)


def test_fw_scalar_discretization_error_never_decays():
    cfg = SolverConfig(Variant.FW, Schedule(2.0, 1.0), max_iters=200, x0=np.array([0.5]))
    trace = solve(scalar_probe(), BOX1, cfg)
    assert trace.ks.size == 200
    assert np.all(trace.disc_err >= 1.0)


def test_avgfw_scalar_discretization_error_decays_sampled():
    cfg = SolverConfig(Variant.AVGFW, Schedule(3.0, 1.0), max_iters=501, x0=np.array([0.5]))
    trace = solve(scalar_probe(), BOX1, cfg)
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
    L = np.linalg.norm(obj.A, 2) ** 2
    D = diameter(dom)
    f = trace.f
    g = np.array([gamma(sched, k) for k in trace.ks])
    assert np.all(f[1:] <= f[:-1] + L * g[:-1] ** 2 * D**2 / 2 + 1e-9)


def test_gap_rates_on_cs_instance(cs_rate_traces):
    fw, avg = cs_rate_traces
    fit_fw = fit_rate(fw.ks, fw.gap, (100, 5000))
    fit_avg = fit_rate(avg.ks, avg.gap, (100, 5000))
    assert -1.35 <= fit_fw.slope <= -0.75
    assert fit_avg.slope <= fit_fw.slope - 0.2


def test_trace_every_records_sparse_rows_plus_final():
    obj, dom = small_quadratic()
    trace = solve(obj, dom, SolverConfig(Variant.AVGFW, Schedule(3.0, 1.0), max_iters=100, trace_every=30))
    assert trace.ks.tolist() == [0, 30, 60, 90, 99]
    assert trace.vertex_ids is None  # the rows skip iterations, so they hold no atom history


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

TRACE_FIELDS = ("ks", "f", "gap", "disc_err", "vertex_ids")


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


def exact_image(obj, v):
    """The least-squares image of v from the formula: (A v, A^T (A v - y))."""
    u = obj.A @ v
    return np.concatenate((u, obj.A.T @ (u - obj.y)))


@pytest.mark.parametrize("k", [10, IMAGE_REFRESH])
def test_resume_from_a_state_without_images(k):
    obj, dom = small_quadratic()
    cfg = SolverConfig(Variant.AVGFW, Schedule(3.0, 1.0), max_iters=k)
    head = solve(obj, dom, cfg).state
    bare = SolverState(k=head.k, x=head.x, s_bar=head.s_bar)
    a = resume(head, obj, dom, cfg)
    b = resume(bare, obj, dom, cfg)
    assert b.ks[0] == k and b.state.k == 2 * k
    np.testing.assert_allclose(b.state.x_image, exact_image(obj, b.state.x), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(b.state.s_bar_image, exact_image(obj, b.state.s_bar), rtol=1e-12, atol=1e-12)
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


def count_atom_images(monkeypatch):
    """The vertex ids of the atoms whose image a least-squares run computes, in order."""
    calls = []
    atom_image = QuadraticLS.atom_image

    def counted(self, domain, atom):
        calls.append(atom.vertex_id)
        return atom_image(self, domain, atom)

    monkeypatch.setattr(QuadraticLS, "atom_image", counted)
    return calls


@pytest.mark.parametrize("variant", [Variant.FW, Variant.AVGFW])
@pytest.mark.parametrize("layout", ["dense", "csr"])
def test_kept_atom_images_leave_a_run_bitwise_unchanged(cs_instance, monkeypatch, layout, variant):
    # noiseless 100x500 at radius ||x0||_1 meets more than ATOM_CACHE
    # vertices in 2000 steps, so the store fills and then stops growing;
    # a kept image is the same floats as a fresh one, so the run equals
    # the run that keeps none
    _, obj, dom, _ = cs_instance
    if layout == "csr":
        obj = QuadraticLS(sp.csr_matrix(obj.A), obj.y)
    cfg = SolverConfig(variant, Schedule(3.0, 1.0), max_iters=2000)
    calls = count_atom_images(monkeypatch)
    kept = solve(obj, dom, cfg)
    distinct = np.unique(kept.vertex_ids).size
    assert distinct > ATOM_CACHE and distinct < len(calls) < cfg.max_iters
    del calls[:]
    monkeypatch.setattr("avgfw.solvers.ATOM_CACHE", 0)
    fresh = solve(obj, dom, cfg)
    assert len(calls) == cfg.max_iters
    for f in TRACE_FIELDS:
        assert_bitwise(getattr(kept, f), getattr(fresh, f))
    for f in ("k", "x", "s_bar", "x_image", "s_bar_image"):
        assert_bitwise(getattr(kept.state, f), getattr(fresh.state, f))


@pytest.mark.parametrize("variant", [Variant.FW, Variant.AVGFW])
def test_atom_store_keeps_the_first_vertices_and_evicts_none(cs_instance, monkeypatch, variant):
    # the 2000-step run above meets more than ATOM_CACHE vertices, and
    # some outside the first ATOM_CACHE recur; a step computes its atom's
    # image exactly when its vertex is not among the first ATOM_CACHE
    # distinct ones, so at most ATOM_CACHE images are kept, none is
    # evicted, and only a vertex outside them is computed again
    _, obj, dom, _ = cs_instance
    calls = count_atom_images(monkeypatch)
    trace = solve(obj, dom, SolverConfig(variant, Schedule(3.0, 1.0), max_iters=2000))
    expected = keep_first_misses(trace.vertex_ids.tolist(), ATOM_CACHE)
    assert len(expected) > len(set(expected)) > ATOM_CACHE
    assert calls == expected


@pytest.mark.parametrize("variant", [Variant.FW, Variant.AVGFW])
@pytest.mark.parametrize("run", ["cs_solve", "probe_flow"])
def test_atom_image_is_computed_once_per_distinct_atom(cs_manifold_pipeline, monkeypatch, run, variant):
    # the 4000-step runs at radius 0.05 ||x0||_1 meet fewer than ATOM_CACHE
    # vertices, so every atom's image is computed once, at its first step;
    # the 1-D probe's flow, recorded at each of its 50 001 steps, meets
    # the box's two corners and computes two images
    calls = count_atom_images(monkeypatch)
    if run == "cs_solve":
        obj, dom, _, analyzed = cs_manifold_pipeline
        trace = solve(obj, dom, SolverConfig(variant, Schedule(3.0, 1.0), max_iters=analyzed.ks.size))
    else:
        cfg = FlowConfig(variant, Schedule(2.0, 1.0), t_end=50.0, dt=1e-3, record_every=1e-3, x0=np.array([0.5]))
        trace = integrate(scalar_probe(), BOX1, cfg)
        assert trace.ks.size == 50001 and len(calls) == 2
    ids = trace.vertex_ids.tolist()
    assert len(set(ids)) <= ATOM_CACHE
    assert calls == list(dict.fromkeys(ids))


@pytest.mark.parametrize("variant", [Variant.FW, Variant.AVGFW])
def test_resume_computes_products_only_at_refreshes_and_first_atoms(cs_manifold_pipeline, monkeypatch, variant):
    # A 200-step resume from k = 300 crosses the refreshes at 320, 384 and
    # 448. resume builds no image, and a step computes no product: A and
    # A^T run only in the exact images of a refresh (x alone for a vanilla
    # run) and, for A^T, once for each atom the store it inherits from the
    # first 300 steps has not kept yet. The CSR copy of the instance makes
    # the products countable.
    dense, dom, _, _ = cs_manifold_pipeline
    obj = QuadraticLS(sp.csr_matrix(dense.A), dense.y)
    cfg = SolverConfig(variant, Schedule(3.0, 1.0), max_iters=300)
    state = solve(obj, dom, cfg).state
    calls = []
    matmul = type(obj.A).__matmul__

    def counted(self, other):
        calls.append("A" if self.shape == obj.A.shape else "A^T")
        return matmul(self, other)

    monkeypatch.setattr(type(obj.A), "__matmul__", counted)
    trace = resume(state, obj, dom, dataclasses.replace(cfg, max_iters=200))
    images = 3 * (2 if variant is Variant.AVGFW else 1)
    assert calls.count("A") == images
    new_atoms = set(trace.vertex_ids.tolist()) - set(state.atom_images)
    assert len(new_atoms) < np.unique(trace.vertex_ids).size
    assert calls.count("A^T") == images + len(new_atoms)


@pytest.mark.parametrize("variant", [Variant.FW, Variant.AVGFW])
@pytest.mark.parametrize("chunk", [1, 20, IMAGE_REFRESH, 333])
def test_a_chunked_run_computes_the_atom_images_of_the_uninterrupted_run(cs_instance, monkeypatch, variant, chunk):
    # the store travels in the checkpoint, so a resume inherits the images
    # its run kept before the cut: chunks of any size compute the same
    # atom images, in the same order, as one 1000-step run, and hold the
    # same floats
    _, obj, dom, _ = cs_instance
    calls = count_atom_images(monkeypatch)
    full = solve(obj, dom, SolverConfig(variant, Schedule(3.0, 1.0), max_iters=1000))
    uninterrupted = list(calls)
    del calls[:]
    cols, state = chunked(obj, dom, variant, 1000, chunk)
    assert calls == uninterrupted
    assert len(state.atom_images) == ATOM_CACHE < len(uninterrupted) < 1000
    assert list(state.atom_images) == list(full.state.atom_images)
    for f in TRACE_FIELDS:
        assert_bitwise(cols[f], getattr(full, f))
    for f in ("k", "x", "s_bar", "x_image", "s_bar_image"):
        assert_bitwise(getattr(state, f), getattr(full.state, f))


@pytest.mark.parametrize("elsewhere", ["radius", "objective"])
def test_resume_reads_a_store_only_on_the_run_it_belongs_to(monkeypatch, elsewhere):
    # an atom's image depends on the objective and the radius: a state
    # resumed on a wider l1 ball (its x still feasible) or on a second
    # objective built from the same arrays starts with an empty store,
    # so it computes what a state without one computes, image by image
    obj, dom = small_quadratic()
    cfg = SolverConfig(Variant.AVGFW, Schedule(3.0, 1.0), max_iters=100)
    state = solve(obj, dom, cfg).state
    if elsewhere == "radius":
        dom = DomainSet(Kind.L1_BALL, 2 * dom.alpha, dom.n)
    else:
        obj = QuadraticLS(obj.A, obj.y)
    calls = count_atom_images(monkeypatch)
    trace = resume(state, obj, dom, cfg)
    inherited = list(calls)
    del calls[:]
    empty = resume(dataclasses.replace(state, atom_images={}), obj, dom, cfg)
    assert calls == inherited
    assert set(state.atom_images) & set(inherited)  # a store read here would have skipped these
    for f in TRACE_FIELDS:
        assert_bitwise(getattr(trace, f), getattr(empty, f))
    for f in ("k", "x", "s_bar", "x_image", "s_bar_image"):
        assert_bitwise(getattr(trace.state, f), getattr(empty.state, f))


def test_resume_never_writes_into_the_store_it_was_given(monkeypatch):
    # the resume meets vertices the first 20 steps did not, and keeps
    # them in its own copy; the given state's store keeps its entries
    obj, dom = small_quadratic()
    cfg = SolverConfig(Variant.AVGFW, Schedule(3.0, 1.0), max_iters=20)
    state = solve(obj, dom, cfg).state
    before = dict(state.atom_images)
    calls = count_atom_images(monkeypatch)
    after = resume(state, obj, dom, cfg).state
    assert calls and not set(calls) & set(before)
    assert state.atom_images == before and all(state.atom_images[v] is before[v] for v in before)
    assert set(after.atom_images) == set(before) | set(calls)


@pytest.mark.parametrize("problem", ["same", "radius", "objective"])
def test_solve_reads_another_runs_store_as_resume_does(monkeypatch, problem):
    # solve given a fw run's state continues a copy of its store on the
    # same objective and an equal domain, and starts empty elsewhere; an
    # averaged run then computes no image the fw run kept, and otherwise
    # what it computes from an empty store, with the same bits, and the
    # given store keeps its entries
    obj, dom = small_quadratic()
    cfg = SolverConfig(Variant.FW, Schedule(3.0, 1.0), max_iters=20)
    state = solve(obj, dom, cfg).state
    before = dict(state.atom_images)
    if problem == "radius":
        dom = DomainSet(Kind.L1_BALL, 2 * dom.alpha, dom.n)
    elif problem == "objective":
        obj = QuadraticLS(obj.A, obj.y)
    cfg = dataclasses.replace(cfg, variant=Variant.AVGFW, max_iters=40)
    calls = count_atom_images(monkeypatch)
    empty = solve(obj, dom, cfg)
    fresh = list(calls)
    del calls[:]
    handed = solve(obj, dom, cfg, images_from=state)
    assert len(fresh) < ATOM_CACHE and set(fresh) & set(before)
    assert calls == ([v for v in fresh if v not in before] if problem == "same" else fresh)
    assert state.atom_images == before and all(state.atom_images[v] is before[v] for v in before)
    for f in TRACE_FIELDS:
        assert_bitwise(getattr(handed, f), getattr(empty, f))
    for f in ("k", "x", "s_bar", "x_image", "s_bar_image"):
        assert_bitwise(getattr(handed.state, f), getattr(empty.state, f))


@pytest.mark.parametrize(
    "make",
    [
        lambda x: Atom(x, 1),
        lambda x: SolverConfig(x0=x),
        lambda x: FlowConfig(x0=x),
        lambda x: SolverState(0, x, x),
        lambda x: IterateTrace(np.arange(2), x, x, x, None, None),
    ],
    ids=["Atom", "SolverConfig", "FlowConfig", "SolverState", "IterateTrace"],
)
def test_records_that_hold_arrays_compare_and_hash_by_identity(make):
    # two records of equal arrays are two objects: each can key a dict or
    # join a set, and comparing them never tests an array's truth
    x = np.array([1.0, 0.0])
    a, b = make(x), make(x.copy())
    assert len({a, b}) == 2
    assert [a, b].index(b) == 1
    assert {a: 1, b: 2}[b] == 2
    assert dataclasses.replace(a) is not a


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


@pytest.mark.filterwarnings("ignore:overflow")
def test_finite_value_with_an_overflowing_gradient_raises_numerical_blowup():
    # u = 1e9 gives the finite f = 5e17, but g = 1e300 * u overflows: the
    # one finiteness check of g, lmo's, reports it as a blowup at k = 0
    obj = QuadraticLS(np.array([[1e300]]), np.array([0.0]))
    dom = DomainSet(Kind.L1_BALL, 1.0, 1)
    with pytest.raises(NumericalBlowup) as err:
        solve(obj, dom, SolverConfig(Variant.FW, Schedule(2.0, 1.0), max_iters=5, x0=np.array([1e-291])))
    assert err.value.k == 0 and str(err.value) == "non-finite value encountered at iteration 0"


# ---------------------------------------------------------------- the plain recursion

def assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


def plain_lmo(dom, g):
    """The LMO as (s, vertex id), one fresh array per operation."""
    a, n = dom.alpha, dom.n
    if dom.kind is Kind.L1_BALL:
        i = int(np.argmax(np.abs(g)))
        v = np.zeros(n)
        v[i] = -a if g[i] > 0 else a
        return v, -(i + 1) if g[i] > 0 else i + 1
    if dom.kind is Kind.SIMPLEX:
        i = int(np.argmin(g))
        v = np.zeros(n)
        v[i] = a
        return v, i
    if dom.kind is Kind.BOX:
        neg = g > 0
        return np.where(neg, -a, a).astype(float), int(np.sum(np.left_shift(1, np.nonzero(neg)[0])))
    return a * (-g / float(np.linalg.norm(g))), None


def plain_source(obj, dom):
    def source(x, u, k):
        if isinstance(obj, QuadraticLS):  # u = (A x, A^T (A x - y)) carries the gradient
            r = u[: obj.m] - obj.y
            f, g = 0.5 * float(r.dot(r)), u[obj.m :]
        else:
            f, w = obj._phi(u)
            g = obj._transposed @ w
        s, vid = plain_lmo(dom, g)
        return f, g, s, vid, obj.atom_image(dom, Atom(s, vid))

    return source


def plain_run(source, image, steps, variant, every, state, iters):
    """The iteration loop written plainly, a fresh array for every
    operation: the trace columns (k, f, gap, disc_err), the
    recorded rows' atom ids and the final state."""
    x, s_bar, u, u_bar = state.x, state.s_bar, state.x_image, state.s_bar_image
    k_end = state.k + iters
    rows, ids = [], []
    for k in range(state.k, k_end):
        if u is None or u_bar is None or k % IMAGE_REFRESH == 0:
            u, u_bar = image(x), image(s_bar)
        f, g, s, vid, u_s = source(x, u, k)
        g_k, b_k = steps(k)
        if variant is Variant.AVGFW:
            s_bar = s_bar + b_k * (s - s_bar)
            u_bar = u_bar + b_k * (u_s - u_bar)
            d, u_d = s_bar, u_bar
        else:
            d, u_d = s, u_s
        step = d - x
        if k % every == 0 or k == k_end - 1:
            rows.append((k, f, max(float(g.dot(x - s)), 0.0), math.sqrt(step.dot(step))))
            ids.append(vid)
        x = x + g_k * step
        u = u + g_k * (u_d - u)
    return [np.array(col) for col in zip(*rows)], ids, SolverState(k_end, x, s_bar, u, u_bar)


def assert_trace_is_plain(trace, plain):
    cols, ids, state = plain
    for got, want in zip((trace.ks, trace.f, trace.gap, trace.disc_err), cols):
        assert_bitwise(got, want)
    # the ids are the atom history only on consecutive rows that all have one
    if None in ids or np.any(np.diff(cols[0]) != 1):
        assert trace.vertex_ids is None
    else:
        assert_bitwise(trace.vertex_ids, np.array(ids, dtype=np.int64))
    for f in ("k", "x", "s_bar", "x_image", "s_bar_image"):
        assert_bitwise(getattr(trace.state, f), getattr(state, f))


def guard_cases():
    """Least squares, dense (column slices of A, so strided) and CSR, on
    every kind, the box at n = 1 and n = 5; the logistic loss; the 1-D probe."""
    rng = np.random.default_rng(12)
    A, y = rng.standard_normal((9, 30)), rng.standard_normal(9)
    Z = sp.random(25, 30, density=0.2, random_state=13, format="csr")
    labels = np.where(rng.standard_normal(25) >= 0, 1.0, -1.0)
    domains = ((Kind.L1_BALL, 30, 2.0), (Kind.SIMPLEX, 30, 2.0), (Kind.BOX, 1, 0.5), (Kind.BOX, 5, 0.5), (Kind.L2_BALL, 30, 0.5))
    cases = {}
    for layout, M in (("dense", A), ("csr", sp.csr_matrix(A))):
        for kind, n, alpha in domains:
            cases[f"{layout}_{kind.value}_{n}"] = (QuadraticLS(M[:, :n], y), DomainSet(kind, alpha, n))
    cases["logistic_csr_l1"] = (Logistic(Z, labels), DomainSet(Kind.L1_BALL, 5.0, 30))
    cases["scalar1d_box"] = (scalar_probe(), DomainSet(Kind.BOX, 1.0, 1))
    return cases


GUARD_CASES = guard_cases()
SCHED = Schedule(3.0, 1.0)


def discrete(k):
    return gamma(SCHED, k), beta(SCHED, k)


def plain_start(obj, dom):
    return SolverState(0, plain_lmo(dom, obj.gradient(np.zeros(dom.n)))[0], np.zeros(dom.n))


@pytest.mark.parametrize("every", [1, 7])
@pytest.mark.parametrize("variant", [Variant.FW, Variant.AVGFW])
@pytest.mark.parametrize("case", sorted(GUARD_CASES))
def test_solve_matches_the_plain_recursion_bitwise(case, variant, every):
    obj, dom = GUARD_CASES[case]
    iters = 2 * IMAGE_REFRESH + 11
    trace = solve(obj, dom, SolverConfig(variant, SCHED, max_iters=iters, trace_every=every))
    plain = plain_run(plain_source(obj, dom), obj.image, discrete, variant, every, plain_start(obj, dom), iters)
    assert_trace_is_plain(trace, plain)


@pytest.mark.parametrize("variant", [Variant.FW, Variant.AVGFW])
@pytest.mark.parametrize("case", sorted(GUARD_CASES))
def test_chunked_resume_matches_the_plain_recursion_bitwise(case, variant):
    # chunks of 50 from k = 0 cross the image refreshes at 64, 128, ...
    obj, dom = GUARD_CASES[case]
    cfg = SolverConfig(variant, SCHED, max_iters=50, trace_every=7)
    trace = solve(obj, dom, cfg)
    plain = plain_run(plain_source(obj, dom), obj.image, discrete, variant, 7, plain_start(obj, dom), 50)
    while trace.state.k < 300:
        assert_trace_is_plain(trace, plain)
        trace = resume(trace.state, obj, dom, cfg)
        plain = plain_run(plain_source(obj, dom), obj.image, discrete, variant, 7, plain[2], 50)
    assert_trace_is_plain(trace, plain)


@pytest.mark.parametrize("variant", [Variant.FW, Variant.AVGFW])
@pytest.mark.parametrize("case", ["dense_l1_ball_30", "csr_box_5", "dense_l2_ball_30", "scalar1d_box"])
def test_flow_matches_the_plain_recursion_with_the_euler_rule_bitwise(case, variant):
    obj, dom = GUARD_CASES[case]
    sched, dt = Schedule(2.0, 1.0), 1e-3
    flow = integrate(obj, dom, FlowConfig(variant, sched, t_end=0.3, dt=dt, record_every=0.01))

    def euler(k):
        return dt * gamma(sched, k * dt), 1.0 if k == 0 else dt * beta(sched, k * dt)

    start = plain_start(obj, dom)
    (ks, f, gap, disc), _, state = plain_run(plain_source(obj, dom), obj.image, euler, variant, 10, start, 301)
    for got, want in zip((flow.ks * dt, flow.f, flow.gap, flow.disc_err, flow.f - 0.0), (ks * dt, f, gap, disc, f - 0.0)):
        assert_bitwise(got, want)
    if variant is Variant.AVGFW:
        assert_bitwise(flow.state.s_bar, state.s_bar)


def plain_force_signal(cfg, signal):
    """``force_signal`` as its own Euler loop: the recorded t and
    ||signal(t) - sbar(t)||, and sbar at t_end."""
    n_steps = int(round(cfg.t_end / cfg.dt))
    every = max(1, int(round(cfg.record_every / cfg.dt)))
    s_bar = np.zeros_like(np.atleast_1d(np.asarray(signal(0.0), dtype=float)))
    ts, lags = [], []
    for k in range(n_steps + 1):
        t = k * cfg.dt
        s = np.atleast_1d(np.asarray(signal(t), dtype=float))
        if k % every == 0 or k == n_steps:
            ts.append(t)
            lags.append(float(np.linalg.norm(s - s_bar)))
        if k < n_steps:
            s_bar = s_bar + cfg.dt * beta(cfg.schedule, t) * (s - s_bar)
    return np.array(ts), np.array(lags), s_bar


def wave(t):
    return np.array([np.sin(3.0 * t), -0.0, 1.0 - t])


FORCED_CASES = {  # signal, p, t_end, record_every; dt = 1e-3
    "unit_n1": (lambda t: np.array([1.0]), 1.0, 6.0, 1.0),
    "wave_n3_with_minus_zero": (wave, 0.5, 0.5, 0.01),
    "stride_7_does_not_divide_500": (wave, 1.0, 0.5, 0.007),
    "record_every_past_t_end": (wave, 1.0, 0.2, 1.0),
    "t_end_below_half_dt": (lambda t: np.array([1.0]), 1.0, 4e-4, 0.1),
    "scalar_signal": (lambda t: 2.0 - t, 0.5, 0.3, 0.05),
}


@pytest.mark.parametrize("case", sorted(FORCED_CASES))
def test_force_signal_matches_the_plain_euler_recursion_bitwise(case):
    signal, p, t_end, every = FORCED_CASES[case]
    cfg = FlowConfig(schedule=Schedule(3.0, p), t_end=t_end, dt=1e-3, record_every=every)
    calls, plain_calls = [], []
    trace = force_signal(cfg, lambda t: calls.append(t) or signal(t))
    t, lags, s_bar = plain_force_signal(cfg, lambda t: plain_calls.append(t) or signal(t))
    assert calls == plain_calls
    for got, want in zip((trace.ks * cfg.dt, trace.disc_err, trace.state.x), (t, lags, s_bar)):
        assert_bitwise(got, want)
    for col in (trace.f, trace.gap, trace.f - 0.0):
        assert col.shape == t.shape and np.all(np.isnan(col))


@pytest.mark.parametrize("seed", [None, 4], ids=["repeating_cycle", "random_vertex"])
def test_scripted_run_matches_the_plain_recursion_bitwise(seed):
    pool = [l1_vertex(1.0, 6, i, sign) for i in range(3) for sign in (1, -1)]
    steps = 2 * IMAGE_REFRESH + 11
    trace = scripted_run(pool, SCHED, steps, seed)
    if seed is None:
        picks = np.arange(steps) % len(pool)
    else:
        picks = np.random.default_rng(seed).integers(0, len(pool), size=steps)

    def source(x, u, k):
        atom = pool[picks[k]]
        return np.nan, np.full(6, np.nan), atom.vector, atom.vertex_id, np.empty(0)

    start = SolverState(0, np.zeros(6), np.zeros(6))
    assert_trace_is_plain(trace, plain_run(source, lambda v: np.empty(0), discrete, Variant.AVGFW, 1, start, steps))


def test_runs_write_into_no_array_they_were_given():
    obj, dom = small_quadratic()
    x0 = -dom.alpha * np.eye(dom.n)[3]
    cfg = SolverConfig(Variant.AVGFW, SCHED, max_iters=70, x0=x0)
    trace = solve(obj, dom, cfg)
    assert_bitwise(cfg.x0, -dom.alpha * np.eye(dom.n)[3])

    fields = ("x", "s_bar", "x_image", "s_bar_image")
    kept = {f: getattr(trace.state, f).copy() for f in fields}
    first = resume(trace.state, obj, dom, cfg)
    second = resume(trace.state, obj, dom, cfg)
    for f in fields:
        assert_bitwise(getattr(trace.state, f), kept[f])
        assert_bitwise(getattr(first.state, f), getattr(second.state, f))

    flow_x0 = np.full(1, 0.5)
    integrate(scalar_probe(), BOX1, FlowConfig(Variant.AVGFW, SCHED, t_end=0.1, dt=1e-3, x0=flow_x0))
    assert_bitwise(flow_x0, np.full(1, 0.5))

    pool = [l1_vertex(1.0, 4, i, 1) for i in range(4)]
    scripted_run(pool, SCHED, steps=30)
    for i, atom in enumerate(pool):
        assert_bitwise(atom.vector, np.eye(4)[i])


# ---------------------------------------------------------------- value only on recorded rows

def assert_rows_of(trace, full):
    """``trace`` holds the rows of ``full``, a run from k = 0 that records
    every k, and their atom history when the rows are consecutive."""
    for col in ("ks", "f", "gap", "disc_err"):
        assert_bitwise(getattr(trace, col), getattr(full, col)[trace.ks])
    if np.all(np.diff(trace.ks) == 1):
        assert_bitwise(trace.vertex_ids, full.vertex_ids[trace.ks])
    else:
        assert trace.vertex_ids is None


RECORD_CASES = ["dense_l1_ball_30", "csr_l1_ball_30", "logistic_csr_l1"]


@pytest.mark.parametrize("variant", [Variant.FW, Variant.AVGFW])
@pytest.mark.parametrize("case", RECORD_CASES)
def test_recording_fewer_rows_changes_no_bit_of_the_run(case, variant):
    # f is evaluated only on the recorded rows; every other float a step
    # computes, and so the iterates, images and atoms, is the same
    obj, dom = GUARD_CASES[case]
    iters = 2 * IMAGE_REFRESH + 11
    full = solve(obj, dom, SolverConfig(variant, SCHED, max_iters=iters, trace_every=1))
    for every in (7, iters):
        trace = solve(obj, dom, SolverConfig(variant, SCHED, max_iters=iters, trace_every=every))
        assert trace.ks.tolist() == sorted({*range(0, iters, every), iters - 1})
        assert_rows_of(trace, full)
        assert trace.vertex_ids is None
        for f in ("k", "x", "s_bar", "x_image", "s_bar_image"):
            assert_bitwise(getattr(trace.state, f), getattr(full.state, f))


@pytest.mark.parametrize("variant", [Variant.FW, Variant.AVGFW])
@pytest.mark.parametrize("case", RECORD_CASES)
def test_resume_in_chunks_shorter_than_the_record_stride_changes_no_bit(case, variant):
    # chunks of 5 at trace_every = 7 record k % 7 == 0 and each chunk's last
    # k; across them, the run is the one that records every row
    obj, dom = GUARD_CASES[case]
    full = solve(obj, dom, SolverConfig(variant, SCHED, max_iters=80, trace_every=1))
    trace = solve(obj, dom, SolverConfig(variant, SCHED, max_iters=20, trace_every=20))
    assert trace.vertex_ids is None
    while trace.state.k < 80:  # crosses the image refresh at 64
        start = trace.state.k
        trace = resume(trace.state, obj, dom, SolverConfig(variant, SCHED, max_iters=5, trace_every=7))
        assert trace.ks.tolist() == sorted({k for k in range(start, start + 5) if k % 7 == 0} | {start + 4})
        assert_rows_of(trace, full)  # no history where the rows skip an iteration
    for f in ("k", "x", "s_bar", "x_image", "s_bar_image"):
        assert_bitwise(getattr(trace.state, f), getattr(full.state, f))


def test_logistic_value_is_computed_once_per_recorded_row(monkeypatch):
    obj, dom = GUARD_CASES["logistic_csr_l1"]
    phi = Logistic._phi
    valued = []

    def counted(self, u, value=True):
        valued.append(value)
        return phi(self, u, value)

    monkeypatch.setattr(Logistic, "_phi", counted)
    first = solve(obj, dom, SolverConfig(Variant.AVGFW, SCHED, max_iters=139, trace_every=7))
    second = resume(first.state, obj, dom, SolverConfig(Variant.AVGFW, SCHED, max_iters=30, trace_every=30))
    # one _phi for the start gradient and one per step, with f only on the
    # recorded rows: k = 0, 7, ..., 133, 138, then 150 and 168
    assert (first.ks.size, second.ks.tolist()) == (21, [150, 168])
    assert len(valued) == 1 + 139 + 30 and valued.count(True) == 21 + 2


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("every, k", [(1, 1), (4, 4), (10, 9)])
def test_non_finite_value_is_reported_at_the_first_recorded_row(every, k):
    # x_1 = +-1e200 gives f = inf from k = 1 on, while g = x stays
    # finite: the blowup shows at the first recorded row from k = 1, and
    # the final row is always recorded
    dom = DomainSet(Kind.BOX, 1e200, 1)
    cfg = SolverConfig(Variant.FW, max_iters=10, x0=np.array([0.0]), trace_every=every)
    with pytest.raises(NumericalBlowup) as err:
        solve(scalar_probe(), dom, cfg)
    assert err.value.k == k


@pytest.mark.parametrize(
    "variant, k, iters, images, calls",
    [
        # a state without images gets them once, before step k, which skips its refresh
        (Variant.AVGFW, 0, 10, False, 2),
        (Variant.AVGFW, 0, 200, False, 2 + 2 * 3),
        (Variant.AVGFW, IMAGE_REFRESH, 10, False, 2),
        (Variant.AVGFW, IMAGE_REFRESH, 10, True, 2),
        # a vanilla run never moves sbar, so it refreshes u alone
        (Variant.FW, 0, 200, False, 2 + 3),
        (Variant.FW, IMAGE_REFRESH, 10, True, 1),
    ],
)
def test_each_carried_image_is_computed_only_when_it_can_change(monkeypatch, variant, k, iters, images, calls):
    obj, dom = small_quadratic()
    start = solve(obj, dom, SolverConfig(variant, SCHED, max_iters=max(k, 1))).state
    state = SolverState(k, start.x, start.s_bar, *((start.x_image, start.s_bar_image) if images else ()))
    image, counted = QuadraticLS.image, []

    def image_counted(self, v):
        counted.append(v)
        return image(self, v)

    monkeypatch.setattr(QuadraticLS, "image", image_counted)
    resume(state, obj, dom, SolverConfig(variant, SCHED, max_iters=iters))
    assert len(counted) == calls


def traced_peak_per_step(run, steps):
    """tracemalloc's peak while ``run()`` runs, above what was allocated
    before it, per step; the result stays alive to the end."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result is not None
    return (peak - before) / steps


@pytest.mark.parametrize("every, budget", [(1, 100), (None, 24)], ids=["every_step", "two_rows"])
def test_a_run_keeps_its_record_packed(monkeypatch, every, budget):
    # a recorded row is six 8-byte values and a vertex id one more, so a
    # fully recorded step needs 56 bytes and a step past the rows 8; boxed
    # Python floats and ints take several times that. The atom-image store
    # keeps nothing here (the same floats, each image computed), so the
    # peak is the record's alone; its own bound has a test above
    monkeypatch.setattr("avgfw.solvers.ATOM_CACHE", 0)
    obj, dom, _ = generate_cs(SyntheticCSSpec(n_features=400, m_measurements=10, noise_std=0.0, seed=1))
    state = solve(obj, dom, SolverConfig(Variant.AVGFW, SCHED, max_iters=1)).state
    steps = 20000
    cfg = SolverConfig(Variant.AVGFW, SCHED, max_iters=steps, trace_every=every or steps)
    per_step = traced_peak_per_step(lambda: resume(state, obj, dom, cfg), steps)
    assert per_step <= budget, per_step

"""Acceptance gate: one test per criterion, at its stated tolerance.

Each test prints a single ``[criterion N] PASS/FAIL`` line (run pytest
with -s to stream them) and asserts both the substantive condition and
the stated runtime budget. Tests are self-contained so the reported
elapsed time covers everything the criterion pays for.
"""

import time

import numpy as np

from avgfw.cli import main as cli_main
from avgfw.diagnostics import degeneracy_delta, fit_rate, identify_manifold, support_set, support_trajectory
from avgfw.domains import DomainSet, Kind, lmo
from avgfw.experiments import (
    SyntheticCSSpec,
    generate_cs,
    generate_l2ball_quadratic,
    generate_sparse_logistic,
    load_svmlight,
    write_svmlight,
)
from avgfw.flows import FlowConfig, force_signal, integrate
from avgfw.objectives import Logistic, QuadraticLS
from avgfw.schedules import Schedule, beta
from avgfw.solvers import SolverConfig, Variant, solve
from oracles import accumulation, apply_weights, l1_vertex, lmo_bruteforce, scalar_probe, scripted_run, unrolled_weights

CS_SEED = 2


def _report(number: int, label: str, ok: bool, elapsed: float, budget: float, detail: str = ""):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[criterion {number:2d}] {status} {label}: {elapsed:.2f}s / {budget:.0f}s{suffix}")
    assert ok, f"criterion {number} failed: {label}{suffix}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_01_weight_identity():
    start = time.time()
    rng = np.random.default_rng(0)
    sum_ok, rec_ok = True, True
    for c in (1.5, 2.0, 3.0, 5.0):
        for p in (0.3, 0.5, 0.9, 1.0):
            sched = Schedule(c, p)
            for k in (1, 7, 50, 500):
                w = unrolled_weights(sched, k)
                sum_ok &= abs(float(np.sum(w.weights)) - 1.0) <= 1e-10
                atoms = rng.standard_normal((k + 1, 2))
                s_bar = np.zeros(2)
                for i in range(k + 1):
                    s_bar = s_bar + beta(sched, i) * (atoms[i] - s_bar)
                rec_ok &= float(np.max(np.abs(apply_weights(w, atoms) - s_bar))) <= 1e-12
    _report(1, "averaging weights sum to one and match the recursion", sum_ok and rec_ok, time.time() - start, 1.0)


def test_criterion_02_accumulation_closed_forms():
    start = time.time()
    worst = 0.0
    for c in (1.0, 2.0, 3.0):
        for p in (0.5, 1.0):
            sched = Schedule(c, p)
            for t_end in (1.0, 2.0, 5.0, 10.0):
                cfg = FlowConfig(schedule=sched, t_end=t_end, dt=1e-3, record_every=t_end)
                trace = force_signal(cfg, lambda t: np.array([1.0]))
                worst = max(worst, abs(float(trace.state.x[0]) - accumulation(sched, t_end)))
    _report(2, "forced-signal integration matches closed forms", worst <= 1e-3,
            time.time() - start, 5.0, detail=f"worst err {worst:.1e}")


def test_criterion_03_lmo_against_bruteforce():
    start = time.time()
    ok = True
    for kind in (Kind.L1_BALL, Kind.SIMPLEX, Kind.BOX):
        dom = DomainSet(kind, 1.0, 8)
        rng = np.random.default_rng(7)
        for _ in range(1000):
            g = rng.standard_normal(8)
            ok &= lmo(dom, g).vertex_id == lmo_bruteforce(dom, g).vertex_id
    _report(3, "LMO agrees with brute-force enumeration (3 kinds x 1000)", ok, time.time() - start, 1.0)


def _central_diff(obj, x, h=1e-6):
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (obj.value(x + e) - obj.value(x - e)) / (2 * h)
    return g


def test_criterion_04_gradient_checks():
    start = time.time()
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(100):
        A = rng.standard_normal((8, 5))
        obj = QuadraticLS(A, rng.standard_normal(8))
        x = rng.standard_normal(5)
        g = obj.gradient(x)
        ok &= np.linalg.norm(_central_diff(obj, x) - g) <= 1e-5 * max(1.0, np.linalg.norm(g))
    for _ in range(100):
        Z = rng.standard_normal((9, 6))
        labels = np.where(rng.standard_normal(9) >= 0, 1.0, -1.0)
        obj = Logistic(Z, labels)
        x = rng.standard_normal(6)
        g = obj.gradient(x)
        ok &= np.linalg.norm(_central_diff(obj, x) - g) <= 1e-5 * max(1.0, np.linalg.norm(g))
    scalar = scalar_probe()
    for _ in range(100):
        x = rng.standard_normal(1)
        g = scalar.gradient(x)
        ok &= abs(_central_diff(scalar, x)[0] - g[0]) <= 1e-5 * max(1.0, abs(g[0]))
    _report(4, "central differences match analytic gradients (3 x 100)", ok, time.time() - start, 5.0)


def test_criterion_05_fw_discretization_error_never_decays():
    start = time.time()
    cfg = SolverConfig(Variant.FW, Schedule(2.0, 1.0), max_iters=200, x0=np.array([0.5]))
    trace = solve(scalar_probe(), DomainSet(Kind.BOX, 1.0, 1), cfg)
    ok = bool(np.all(trace.disc_err >= 1.0))
    _report(5, "1-D box run keeps ||x_k - s_k|| >= 1 at all 200 steps", ok, time.time() - start, 10.0)


def test_criterion_06_scripted_trajectory_dichotomy():
    start = time.time()
    pool = [l1_vertex(1.0, 2, 0, +1), l1_vertex(1.0, 2, 1, +1),
            l1_vertex(1.0, 2, 0, -1), l1_vertex(1.0, 2, 1, -1)]
    cycle = scripted_run(pool, Schedule(3.0, 1.0), steps=10**4)
    slope_cycle = fit_rate(cycle.ks, cycle.disc_err, (100, 10**4)).slope
    # the no-decay contrast needs the sub-linear averaging exponent (p < 1):
    # with p = 1 even an iid vertex stream averages out at ~k^-1/2
    random = scripted_run(pool, Schedule(3.0, 0.5), steps=10**4, seed=0)
    slope_random = fit_rate(random.ks, random.disc_err, (100, 10**4)).slope
    ok = slope_cycle <= -0.7 and slope_random >= -0.3
    _report(6, "repeating cycle decays, random vertices do not", ok, time.time() - start, 10.0,
            detail=f"cycle {slope_cycle:+.2f}, random {slope_random:+.2f}")


def test_criterion_07_global_rates_on_cs():
    start = time.time()
    obj, domain, _ = generate_cs(SyntheticCSSpec(noise_std=0.0, seed=CS_SEED))
    sched = Schedule(3.0, 1.0)
    fw = solve(obj, domain, SolverConfig(Variant.FW, sched, 5001))
    avg = solve(obj, domain, SolverConfig(Variant.AVGFW, sched, 5001))
    slope_fw = fit_rate(fw.ks, fw.gap, (100, 5000)).slope
    slope_avg = fit_rate(avg.ks, avg.gap, (100, 5000)).slope
    ok = -1.35 <= slope_fw <= -0.75 and slope_avg <= slope_fw - 0.2
    _report(7, "gap decay: averaged run beats vanilla by >= 0.2 in slope", ok,
            time.time() - start, 60.0, detail=f"fw {slope_fw:+.2f}, avgfw {slope_avg:+.2f}")


def test_criterion_08_flow_polynomial_envelope():
    start = time.time()
    cfg = FlowConfig(variant=Variant.FW, schedule=Schedule(2.0, 1.0), t_end=50.0,
                     dt=1e-3, record_every=1.0, x0=np.array([0.5]))
    h = integrate(scalar_probe(), DomainSet(Kind.BOX, 1.0, 1), cfg).f  # h = f - f_ref, f_ref = 0
    bound = 1.05 * h[0] * (2.0 / 52.0) ** 2
    ok = h[-1] <= bound
    _report(8, "vanilla flow meets h(0)(c/(c+t))^c envelope at t=50", ok,
            time.time() - start, 10.0, detail=f"h(50) {h[-1]:.1e} <= {bound:.1e}")


def test_criterion_09_manifold_identification():
    start = time.time()
    spec = SyntheticCSSpec(noise_std=0.0, seed=CS_SEED)
    obj, _, x0 = generate_cs(spec)
    # solve-time radius deep in the boundary regime: the optimum sits on a
    # low-dimensional facet, the regime the identification theory addresses
    domain = DomainSet(Kind.L1_BALL, 0.05 * float(np.sum(np.abs(x0))), spec.n_features)
    sched = Schedule(3.0, 1.0)
    reference = solve(obj, domain, SolverConfig(Variant.AVGFW, sched, 10**5, trace_every=10**4))
    max_iters = 4000
    analyzed = solve(obj, domain, SolverConfig(Variant.AVGFW, sched, max_iters))
    g_star = obj.gradient(reference.state.x)
    k_bar = identify_manifold(analyzed.ks, analyzed.vertex_ids, support_set(g_star, domain))
    delta = degeneracy_delta(g_star, domain, reference.state.x)
    traj = support_trajectory(analyzed.vertex_ids)
    ok = (
        k_bar is not None
        and k_bar < max_iters / 2
        and delta is not None
        and delta > 0
        and traj[0] <= np.count_nonzero(x0) + 2
    )
    _report(9, "working set identified: finite k_bar, positive margin", ok,
            time.time() - start, 60.0,
            detail=f"k_bar {k_bar}, delta {delta}, support over the run {traj[0]}")


def test_criterion_10_l2_ball_dichotomy():
    start = time.time()
    sched = Schedule(3.0, 1.0)
    obj, domain, _ = generate_l2ball_quadratic(seed=0)
    norm = domain.alpha
    boundary = solve(obj, DomainSet(Kind.L2_BALL, 0.5 * norm, domain.n), SolverConfig(Variant.FW, sched, 3000))
    slope_b = fit_rate(boundary.ks, boundary.disc_err, (100, 3000)).slope
    interior = solve(obj, DomainSet(Kind.L2_BALL, 2.0 * norm, domain.n), SolverConfig(Variant.FW, sched, 3000))
    slope_i = fit_rate(interior.ks, interior.disc_err, (100, 3000)).slope
    ok = slope_b <= -0.4 and slope_i >= -0.1
    _report(10, "smooth-ball boundary decays, interior does not", ok,
            time.time() - start, 30.0, detail=f"boundary {slope_b:+.2f}, interior {slope_i:+.2f}")


SOLVE_CONFIG = """
[problem]
kind = scalar1d
alpha = 1.0

[solver]
variant = avgfw
c = 3
p = 1
max_iters = 120
x0 = 0.5

[output]
seed = 0
"""


def test_criterion_11_determinism_and_format(tmp_path):
    start = time.time()
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(SOLVE_CONFIG)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    code1 = cli_main(["solve", "--config", str(cfg_path), "--out", str(out1), "--quiet"])
    code2 = cli_main(["solve", "--config", str(cfg_path), "--out", str(out2), "--quiet"])
    identical = (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()

    data = generate_sparse_logistic(m=800, n=1000, density=0.01, seed=0)
    path = tmp_path / "rt.svmlight"
    write_svmlight(data, str(path))
    back = load_svmlight(str(path), n_features_hint=1000)
    a, b = data.Z.tocsr(), back.Z.tocsr()
    lossless = (
        np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
        and np.array_equal(data.labels, back.labels)
    )
    ok = code1 == 0 and code2 == 0 and identical and lossless
    _report(11, "byte-identical solve output; lossless svmlight round trip", ok,
            time.time() - start, 60.0)

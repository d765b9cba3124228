import numpy as np
import pytest

import avgfw.flows
from avgfw.domains import DomainSet, Kind, contains, lmo
from avgfw.errors import ConfigError, NumericalBlowup, StepTooLarge
from avgfw.flows import FlowConfig, force_signal, integrate
from avgfw.objectives import QuadraticLS, Scalar1D
from avgfw.schedules import Schedule, accumulation, alpha_t
from avgfw.solvers import SolverConfig, Variant, solve

BOX1 = DomainSet(Kind.BOX, 1.0, 1)


def test_fw_flow_scalar_obeys_polynomial_envelope():
    cfg = FlowConfig(
        variant=Variant.FW,
        schedule=Schedule(2.0, 1.0),
        t_end=50.0,
        dt=1e-3,
        record_every=1.0,
        x0=np.array([0.5]),
        f_ref=0.0,
    )
    trace = integrate(Scalar1D(), BOX1, cfg)
    h0 = trace.h[0]
    assert h0 == pytest.approx(0.25)
    assert trace.h[-1] <= 1.05 * h0 * (2.0 / 52.0) ** 2


def test_forced_constant_signal_matches_accumulation_closed_forms():
    for c in (1.0, 2.0, 3.0):
        for p in (0.5, 1.0):
            sched = Schedule(c, p)
            for t_end in (1.0, 2.0, 5.0, 10.0):
                cfg = FlowConfig(schedule=sched, t_end=t_end, dt=1e-3, record_every=t_end)
                trace = force_signal(cfg, lambda t: np.array([1.0]))
                assert float(trace.final_s_bar[0]) == pytest.approx(accumulation(sched, t_end), abs=1e-3)


def test_forced_signal_p1_example():
    cfg = FlowConfig(schedule=Schedule(3.0, 1.0), t_end=6.0, dt=1e-3, record_every=6.0)
    trace = force_signal(cfg, lambda t: np.array([1.0]))
    assert float(trace.final_s_bar[0]) == pytest.approx(26.0 / 27.0, abs=1e-3)


def test_forced_signal_p_half_example_via_alpha():
    sched = Schedule(1.0, 0.5)
    cfg = FlowConfig(schedule=sched, t_end=3.0, dt=1e-3, record_every=3.0)
    trace = force_signal(cfg, lambda t: np.array([1.0]))
    expected = 1.0 - np.exp(alpha_t(sched, 0.0) - alpha_t(sched, 3.0))
    assert expected == pytest.approx(1.0 - np.exp(-2.0))
    assert float(trace.final_s_bar[0]) == pytest.approx(expected, abs=1e-3)


def test_forced_zero_signal_stays_zero():
    cfg = FlowConfig(schedule=Schedule(2.0, 1.0), t_end=5.0, dt=1e-3, record_every=1.0)
    trace = force_signal(cfg, lambda t: np.zeros(3))
    np.testing.assert_array_equal(trace.final_s_bar, np.zeros(3))


def test_oversized_dt_is_rejected():
    with pytest.raises(StepTooLarge):
        FlowConfig(variant=Variant.FW, t_end=1.0, dt=0.5)


def test_config_validation():
    with pytest.raises(ConfigError):
        FlowConfig(t_end=-1.0)
    with pytest.raises(ConfigError):
        FlowConfig(dt=0.0)


def test_flow_dominates_method_on_shared_fixture(small_l1_quadratic):
    """The continuous trajectory beats the discrete method at matched
    horizons: discretization error is what throttles the method."""
    obj, dom, _ = small_l1_quadratic
    sched = Schedule(2.0, 1.0)
    flow = integrate(
        obj, dom,
        FlowConfig(variant=Variant.FW, schedule=sched, t_end=200.0, dt=1e-3, record_every=1.0, f_ref=0.0),
    )
    method = solve(obj, dom, SolverConfig(Variant.FW, sched, max_iters=201))
    h_method = method.f  # f* = 0 on this fixture
    for k in range(100, 201):
        i = int(np.argmin(np.abs(flow.t - k)))
        assert flow.h[i] <= h_method[k] + 1e-6


def test_averaged_flow_discretization_error_decays(small_l1_quadratic):
    obj, dom, _ = small_l1_quadratic
    trace = integrate(
        obj, dom,
        FlowConfig(variant=Variant.AVGFW, schedule=Schedule(3.0, 1.0),
                   t_end=200.0, dt=1e-3, record_every=1.0, f_ref=0.0),
    )
    at = lambda t: trace.disc_err[int(np.argmin(np.abs(trace.t - t)))]
    assert at(200.0) < at(20.0)


def test_step_halving_first_order_consistency(small_l1_quadratic):
    obj, dom, _ = small_l1_quadratic
    sched = Schedule(3.0, 1.0)
    hs = []
    for dt in (8e-3, 4e-3, 2e-3):
        tr = integrate(
            obj, dom,
            FlowConfig(variant=Variant.FW, schedule=sched, t_end=20.0, dt=dt,
                       record_every=20.0, f_ref=0.0),
        )
        hs.append(tr.h[-1])
    d1 = abs(hs[1] - hs[0])
    d2 = abs(hs[2] - hs[1])
    assert d2 <= 2 * d1 + 1e-12


def test_step_halving_on_smooth_averaging_equation():
    sched = Schedule(2.0, 0.5)
    vals = []
    for dt in (8e-3, 4e-3, 2e-3):
        cfg = FlowConfig(schedule=sched, t_end=4.0, dt=dt, record_every=4.0)
        vals.append(float(force_signal(cfg, lambda t: np.array([1.0])).final_s_bar[0]))
    d1 = abs(vals[1] - vals[0])
    d2 = abs(vals[2] - vals[1])
    assert d2 <= 2 * d1 + 1e-12


def test_flow_samples_are_finite_and_increasing(small_l1_quadratic):
    obj, dom, _ = small_l1_quadratic
    trace = integrate(
        obj, dom,
        FlowConfig(variant=Variant.AVGFW, schedule=Schedule(3.0, 1.0),
                   t_end=5.0, dt=1e-3, record_every=0.5, f_ref=0.0),
    )
    assert np.all(np.diff(trace.t) > 0)
    for col in (trace.f, trace.gap, trace.disc_err, trace.h):
        assert np.all(np.isfinite(col))


def test_flow_rejects_dimension_mismatch(small_l1_quadratic):
    obj, _, _ = small_l1_quadratic
    with pytest.raises(ConfigError):
        integrate(obj, DomainSet(Kind.L1_BALL, 1.0, obj.n + 2), FlowConfig(t_end=1.0))


def test_averaged_flow_anchors_s_bar_at_the_first_atom(small_l1_quadratic):
    obj, dom, _ = small_l1_quadratic
    x0 = np.zeros(dom.n)
    trace = integrate(
        obj, dom,
        FlowConfig(variant=Variant.AVGFW, schedule=Schedule(3.0, 1.0),
                   t_end=2.0, dt=1e-3, record_every=0.5, x0=x0, f_ref=0.0),
    )
    first_atom = lmo(dom, obj.gradient(x0)).vector
    assert trace.disc_err[0] == pytest.approx(np.linalg.norm(first_atom - x0), rel=1e-12)
    assert contains(dom, trace.final_s_bar, 1e-9 * dom.alpha)


@pytest.mark.parametrize("dt", [1e-2, 1e-3])
@pytest.mark.parametrize("variant", [Variant.FW, Variant.AVGFW])
@pytest.mark.parametrize("kind", list(Kind))
def test_euler_iterates_stay_feasible_without_a_runtime_check(monkeypatch, kind, variant, dt):
    # dt <= MAX_DT and gamma, beta <= 1 make every Euler step a convex
    # combination of feasible points, so the flow checks only its start;
    # here every step's x is checked from outside, far below that tolerance
    rng = np.random.default_rng(13)
    dom = DomainSet(kind, 0.5, 30)
    obj = QuadraticLS(rng.standard_normal((15, 30)), rng.standard_normal(15))
    real_source = avgfw.flows._lmo_source
    checked = []

    def checking_source(obj, domain):
        source = real_source(obj, domain)

        def check(x, u, k, record):
            assert contains(domain, x, 1e-9 * domain.alpha), f"x left the domain at step {k}"
            checked.append(k)
            return source(x, u, k, record)

        return check

    monkeypatch.setattr(avgfw.flows, "_lmo_source", checking_source)
    cfg = FlowConfig(variant=variant, schedule=Schedule(3.0, 1.0), t_end=5.0, dt=dt, record_every=1.0)
    trace = integrate(obj, dom, cfg)
    assert checked == list(range(int(round(5.0 / dt)) + 1))
    if variant is Variant.AVGFW:
        assert contains(dom, trace.final_s_bar, 1e-9 * dom.alpha)


def test_flow_numerical_blowup_reports_step():
    # f(0) = 0 is finite; the first Euler step leaves 0 and f overflows at step 1
    obj = QuadraticLS(np.array([[1e200]]), np.array([0.0]))
    dom = DomainSet(Kind.L1_BALL, 1.0, 1)
    cfg = FlowConfig(variant=Variant.FW, schedule=Schedule(2.0, 1.0), t_end=1.0, dt=1e-3, x0=np.array([0.0]))
    with pytest.raises(NumericalBlowup) as err:
        integrate(obj, dom, cfg)
    assert err.value.k == 1

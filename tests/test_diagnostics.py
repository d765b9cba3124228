import numpy as np
import pytest

from avgfw.diagnostics import (
    MIN_FIT_POINTS,
    _geometric_subsample,
    degeneracy_delta,
    fit_rate,
    identify_manifold,
    render_report,
    support_set,
    support_trajectory,
)
from avgfw.domains import DomainSet, Kind, lmo
from avgfw.errors import ConfigError, NonFiniteGradient, UnsupportedKind
from oracles import enumerate_vertices


def test_fit_rate_recovers_exact_power_laws():
    ks = np.arange(1, 2001)
    fit = fit_rate(ks, 1.0 / ks, (1, 2000))
    assert fit.slope == pytest.approx(-1.0, abs=1e-6)
    assert fit.r_squared >= 0.999999
    fit = fit_rate(ks, 5.0 / ks**1.5, (1, 2000))
    assert fit.slope == pytest.approx(-1.5, abs=1e-6)
    assert fit.intercept == pytest.approx(np.log(5.0), abs=1e-6)


def test_fit_rate_drops_nonpositive_entries():
    ks = np.arange(1, 101)
    vals = 1.0 / ks
    vals[::7] = 0.0
    fit = fit_rate(ks, vals, (1, 100))
    assert fit.slope == pytest.approx(-1.0, abs=1e-6)


def polyfit_reference(ks, vals, window):
    """slope, intercept and r^2 of ``np.polyfit`` (LAPACK's least squares)
    over the points ``fit_rate`` fits."""
    keep = (ks >= max(window[0], 1)) & (ks <= window[1]) & np.isfinite(vals) & (vals > 0)
    ks, vals = ks[keep], vals[keep]
    idx = _geometric_subsample(ks)
    if idx.size >= MIN_FIT_POINTS:
        ks, vals = ks[idx], vals[idx]
    logk, logv = np.log(ks.astype(float)), np.log(vals)
    slope, intercept = np.polyfit(logk, logv, 1)
    ss_res = np.sum((logv - (slope * logk + intercept)) ** 2)
    ss_tot = np.sum((logv - np.mean(logv)) ** 2)
    return slope, intercept, 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot


def test_fit_rate_matches_polyfit_on_cs_traces(cs_rate_traces):
    for trace in cs_rate_traces:
        for vals in (trace.gap, trace.disc_err):
            for window in ((1, 5000), (100, 4999)):
                fit = fit_rate(trace.ks, vals, window)
                expected = polyfit_reference(trace.ks, vals, window)
                assert np.abs(np.array([fit.slope, fit.intercept, fit.r_squared]) - expected).max() <= 1e-12


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("slope, noise", [(-1.5, 0.1), (0.7, 0.1), (-1e-9, 0.1), (0.0, 1e-3)])
def test_fit_rate_matches_polyfit_on_random_series(seed, slope, noise):
    # noisy power laws on sparse ks, near-flat ones included
    rng = np.random.default_rng(seed)
    ks = np.unique(rng.integers(1, 20000, 3000))
    vals = 3.0 * ks**slope * np.exp(noise * rng.standard_normal(ks.size))
    fit = fit_rate(ks, vals, (1, 20000))
    expected = polyfit_reference(ks, vals, (1, 20000))
    assert np.abs(np.array([fit.slope, fit.intercept, fit.r_squared]) - expected).max() <= 1e-12


def test_fit_rate_needs_two_distinct_ks():
    ks = np.full(12, 5)
    assert fit_rate(ks, np.linspace(1.0, 2.0, 12), (1, 100)) is None


def test_fit_rate_insufficient_data():
    ks = np.arange(1, 9)
    assert fit_rate(ks, 1.0 / ks, (1, 100)) is None


def test_fit_rate_uses_f_minus_ref():
    # a derived series is one more array: h_k = f_k - f_ref
    ks = np.arange(1, 501)
    f = 2.0 / ks + 1.0
    fit = fit_rate(ks, f - 1.0, (1, 500))
    assert fit.slope == pytest.approx(-1.0, abs=1e-6)


def test_fit_rate_window_validation():
    # an empty or inverted window holds no points, so it determines no fit
    ks = np.arange(1, 100)
    assert fit_rate(ks, 1.0 / ks, (50, 50)) is None
    assert fit_rate(ks, 1.0 / ks, (60, 50)) is None


def test_support_trajectory_hand_example():
    np.testing.assert_array_equal(support_trajectory(np.array([5, 9, 5, 5])), [2, 2, 1, 1])


def test_support_trajectory_constant_sequence():
    np.testing.assert_array_equal(support_trajectory(np.full(6, 3)), [1] * 6)


def test_support_trajectory_is_monotone_and_starts_at_total(cs_manifold_pipeline):
    _, _, _, analyzed = cs_manifold_pipeline
    traj = support_trajectory(analyzed.vertex_ids)
    assert np.all(np.diff(traj) <= 0)
    assert traj[0] == np.unique(analyzed.vertex_ids).size


def test_degeneracy_delta_direct_formula():
    dom = DomainSet(Kind.L1_BALL, 1.0, 4)
    g = np.array([2.0, -2.0, 0.5, 0.1])
    x_star = np.array([0.3, -0.7, 0.0, 0.0])
    assert degeneracy_delta(g, dom, x_star) == pytest.approx(1.5)


def test_degeneracy_delta_zero_when_zero_coordinate_ties_max():
    dom = DomainSet(Kind.L1_BALL, 1.0, 3)
    g = np.array([2.0, -2.0, 0.3])
    x_star = np.array([0.5, 0.0, 0.0])
    assert degeneracy_delta(g, dom, x_star) == 0.0


def test_degeneracy_delta_requires_zero_set():
    dom = DomainSet(Kind.L1_BALL, 1.0, 2)
    g = np.array([1.0, 2.0])
    assert degeneracy_delta(g, dom, np.array([0.5, 0.5])) is None


@pytest.mark.parametrize(
    "g, x_star, error",
    [
        (np.array([1.0, 2.0]), np.array([0.5, 0.0]), ConfigError),  # both 2 entries long on a 5-dim ball
        (np.array([np.nan, 1.0, 0.0, 0.0, 0.0]), np.zeros(5), NonFiniteGradient),
        (np.array([1.0, np.inf, 0.0, 0.0, 0.0]), np.zeros(5), NonFiniteGradient),
        (np.array([1.0, 2.0, 0.0, 0.0, 0.0]), np.array([0.5, 0.0]), ConfigError),
    ],
)
def test_degeneracy_delta_checks_its_inputs(g, x_star, error):
    with pytest.raises(error):
        degeneracy_delta(g, DomainSet(Kind.L1_BALL, 1.0, 5), x_star)


def test_degeneracy_delta_requires_l1_ball():
    g = np.array([1.0, 2.0])
    with pytest.raises(UnsupportedKind):
        degeneracy_delta(g, DomainSet(Kind.BOX, 1.0, 2), np.array([0.5, 0.0]))


# grad f(x*) = (3, -1, 0.2) on the unit l1 ball in R^3: argmax coord 0, so S* = {-1}
STAR = support_set(np.array([3.0, -1.0, 0.2]), DomainSet(Kind.L1_BALL, 1.0, 3))


def test_identify_manifold_all_inside_gives_zero():
    assert identify_manifold(np.arange(4), np.array([-1, -1, -1, -1]), STAR) == 0
    assert -1 in STAR


def test_identify_manifold_out_then_in():
    assert identify_manifold(np.arange(4), np.array([2, -1, -1, -1]), STAR) == 1


def test_identify_manifold_absent_when_last_atom_outside():
    assert identify_manifold(np.arange(3), np.array([-1, -1, 2]), STAR) is None


def test_identify_manifold_prefix_monotone():
    """Truncating the tail after k_bar preserves the identification index."""
    vids = np.array([2, 3, -1, -1, -1, -1])
    full = identify_manifold(np.arange(6), vids, STAR)
    prefix = identify_manifold(np.arange(4), vids[:4], STAR)
    assert full == prefix == 2


def test_support_set_near_ties_within_relative_tolerance():
    dom = DomainSet(Kind.L1_BALL, 1.0, 3)
    star = support_set(np.array([2.0, -2.0 * (1 - 1e-8), 1.0]), dom)
    assert star == frozenset({-1, 2})


@pytest.mark.parametrize("kind", [Kind.L1_BALL, Kind.SIMPLEX, Kind.BOX])
@pytest.mark.parametrize(
    "g, error",
    [
        (np.array([np.nan, 1.0, 0.0, 0.0, 0.0]), NonFiniteGradient),
        (np.array([np.inf, 1.0, 0.0, 0.0, 0.0]), NonFiniteGradient),
        (np.array([1.0, 2.0, 3.0]), ConfigError),
    ],
    ids=["nan", "inf", "short"],
)
def test_support_set_checks_the_gradient_as_lmo_does(kind, g, error):
    dom = DomainSet(kind, 1.0, 5)
    with pytest.raises(error):
        support_set(g, dom)
    with pytest.raises(error):
        lmo(dom, g)


def _near_tie(kind, g, rel, rng):
    """Perturb g so a second vertex's value sits at relative distance
    about rel from the best one (1e-6 is the support tolerance)."""
    g = g.copy()
    if kind is Kind.L1_BALL:
        i = int(np.argmax(np.abs(g)))
        j = int(rng.choice([k for k in range(g.size) if k != i]))
        g[j] = rng.choice([-1.0, 1.0]) * abs(g[i]) * (1 - rel)
    elif kind is Kind.SIMPLEX:
        i = int(np.argmin(g))
        j = int(rng.choice([k for k in range(g.size) if k != i]))
        g[j] = g[i] + rel * abs(g[i])
    else:
        # flipping corner coordinate j costs 2 alpha |g_j|
        j = int(rng.integers(g.size))
        g[j] = rng.choice([-1.0, 1.0]) * 0.5 * rel * (np.sum(np.abs(g)) - abs(g[j]))
    return g


@pytest.mark.parametrize("kind", [Kind.L1_BALL, Kind.SIMPLEX, Kind.BOX])
def test_support_set_matches_bruteforce_enumeration(kind):
    rng = np.random.default_rng(11)
    ties = 0
    for trial in range(300):
        n = int(rng.integers(1, 9))
        dom = DomainSet(kind, float(rng.uniform(0.5, 2.0)), n)
        g = rng.standard_normal(n)
        if n > 1 and trial % 4:
            g = _near_tie(kind, g, (0.0, 0.99e-6, 1.01e-6)[trial % 4 - 1], rng)
        atoms = list(enumerate_vertices(dom))
        vals = np.array([float(np.dot(g, a.vector)) for a in atoms])
        best = float(np.min(vals))
        expected = frozenset(a.vertex_id for a, v in zip(atoms, vals) if v <= best + 1e-6 * abs(best))
        assert support_set(g, dom) == expected
        ties += len(expected) > 1
    assert ties > 0


def test_manifold_pipeline_on_boundary_cs(cs_manifold_pipeline):
    obj, dom, reference, analyzed = cs_manifold_pipeline
    g_star = obj.gradient(reference.state.x)
    k_bar = identify_manifold(analyzed.ks, analyzed.vertex_ids, support_set(g_star, dom))
    delta = degeneracy_delta(g_star, dom, reference.state.x)
    assert k_bar is not None
    assert k_bar < 2000
    assert delta is not None and delta > 0


def test_render_report_is_flat_key_value():
    txt = render_report({"slope_gap": -1.25, "k_bar": 17, "delta": None})
    lines = txt.strip().splitlines()
    assert lines[0].startswith("slope_gap = ")
    assert lines[1] == "k_bar = 17"
    assert lines[2] == "delta = none"

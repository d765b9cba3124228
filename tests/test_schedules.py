import numpy as np
import pytest

from avgfw.errors import ConfigError
from avgfw.schedules import Schedule, beta, gamma
from oracles import WrongBranch, accumulation, alpha_t, apply_weights, unrolled_weights

GRID_C = (1.5, 2.0, 3.0, 5.0)
GRID_P = (0.3, 0.5, 0.9, 1.0)
GRID_K = (1, 7, 50, 500)


def test_gamma_values():
    assert gamma(Schedule(2.0, 1.0), 0) == 1.0
    assert gamma(Schedule(2.0, 1.0), 2) == 0.5
    assert gamma(Schedule(4.0, 1.0), 12) == 0.25


def test_beta_values():
    assert beta(Schedule(2.0, 1.0), 2) == 0.5
    assert beta(Schedule(2.0, 0.5), 2) == pytest.approx(0.7071067812)
    for c in GRID_C:
        for p in GRID_P:
            assert beta(Schedule(c, p), 0) == 1.0


def test_beta_dominates_gamma_for_p_at_most_one():
    for c in GRID_C:
        for p in GRID_P:
            s = Schedule(c, p)
            for k in range(0, 2000, 17):
                assert beta(s, k) >= gamma(s, k)


def test_schedule_validation():
    with pytest.raises(ConfigError):
        Schedule(0.5, 1.0)
    with pytest.raises(ConfigError):
        Schedule(2.0, 0.0)
    with pytest.raises(ConfigError):
        Schedule(2.0, 1.5)


def test_unrolled_weights_base_case():
    w = unrolled_weights(Schedule(3.0, 0.7), 0)
    np.testing.assert_array_equal(w.weights, [1.0])


def test_unrolled_weights_sum_to_one_on_grid():
    for c in GRID_C:
        for p in GRID_P:
            s = Schedule(c, p)
            for k in GRID_K:
                w = unrolled_weights(s, k).weights
                assert np.all(w >= 0)
                assert abs(w.sum() - 1.0) <= 1e-10


def test_unrolled_weights_match_recursion():
    """The recursion sbar_k = sbar_{k-1} + beta_k (s_k - sbar_{k-1}) is the
    independent oracle; the product formula must reproduce it."""
    rng = np.random.default_rng(0)
    atoms = rng.standard_normal((7, 3))
    s = Schedule(3.0, 1.0)
    s_bar = np.zeros(3)
    for k in range(7):
        s_bar = s_bar + beta(s, k) * (atoms[k] - s_bar)
    unrolled = apply_weights(unrolled_weights(s, 6), atoms)
    np.testing.assert_allclose(unrolled, s_bar, atol=1e-14)


def test_unrolled_weights_match_recursion_across_grid():
    rng = np.random.default_rng(1)
    for c in GRID_C:
        for p in GRID_P:
            s = Schedule(c, p)
            for k in GRID_K:
                atoms = rng.standard_normal(k + 1)
                s_bar = 0.0
                for i in range(k + 1):
                    s_bar = s_bar + beta(s, i) * (atoms[i] - s_bar)
                unrolled = float(unrolled_weights(s, k).weights @ atoms)
                assert abs(unrolled - s_bar) <= 1e-12


def test_integer_c_closed_form_cross_check():
    """For p = 1 and integer c the weights telescope to
    w_{k,i} = c/(c+i) * prod_{j=1..c} (i+j)/(k+j) for i >= 1."""
    k = 37
    for c in (1, 2, 3, 4):
        w = unrolled_weights(Schedule(float(c), 1.0), k).weights
        for i in range(1, k + 1):
            closed = (c / (c + i)) * np.prod([(i + j) / (k + j) for j in range(1, c + 1)])
            assert w[i] == pytest.approx(closed, abs=1e-15)


def test_recency_skew_p1():
    # strictly more weight on more recent atoms for p = 1, c > 1
    for c in (2.0, 3.0, 5.0):
        w = unrolled_weights(Schedule(c, 1.0), 50).weights
        assert np.all(np.diff(w[1:]) > 0)


def test_alpha_t_examples():
    assert alpha_t(Schedule(1.0, 0.5), 0.0) == pytest.approx(2.0)
    assert alpha_t(Schedule(1.0, 0.5), 3.0) == pytest.approx(4.0)
    # direct evaluation: 2^0.25 * 16^0.75 / 0.75
    assert alpha_t(Schedule(2.0, 0.25), 14.0) == pytest.approx(2.0**0.25 * 16.0**0.75 / 0.75)
    assert alpha_t(Schedule(2.0, 0.25), 14.0) == pytest.approx(12.6848757, abs=1e-6)


def test_alpha_t_is_antiderivative_of_beta():
    from scipy.integrate import quad

    for c, p in ((2.0, 0.25), (3.0, 0.5), (1.5, 0.9)):
        s = Schedule(c, p)
        integral, _ = quad(lambda t: (s.c / (s.c + t)) ** s.p, 0.0, 14.0)
        assert alpha_t(s, 14.0) - alpha_t(s, 0.0) == pytest.approx(integral, abs=1e-9)


def test_alpha_t_rejects_p_equal_one():
    with pytest.raises(WrongBranch):
        alpha_t(Schedule(2.0, 1.0), 1.0)


def test_accumulation_examples():
    assert accumulation(Schedule(2.0, 1.0), 2.0) == pytest.approx(0.75)
    for c, p in ((2.0, 1.0), (1.0, 0.5), (3.0, 0.3)):
        assert accumulation(Schedule(c, p), 0.0) == 0.0
    assert accumulation(Schedule(1.0, 0.5), 3.0) == pytest.approx(1.0 - np.exp(-2.0))


def _euler_accumulation(s: Schedule, t_end: float, dt: float) -> float:
    """Left-endpoint Euler for d sbar = beta(t) (1 - sbar) dt, vectorized as
    sbar_N = sum_i dt b_i prod_{j>i} (1 - dt b_j)."""
    n = int(round(t_end / dt))
    ts = dt * np.arange(n)
    b = (s.c / (s.c + ts)) ** s.p
    one_minus = 1.0 - dt * b
    tail = np.ones(n)
    if n > 1:
        tail[:-1] = np.cumprod(one_minus[::-1])[:-1][::-1]
    return float(np.sum(dt * b * tail))


def test_accumulation_matches_fine_euler():
    # dt refined to 1e-5 so the first-order Euler bias clears the 1e-5 bar
    for c in (1.0, 2.0, 3.0):
        for p in (0.5, 1.0):
            s = Schedule(c, p)
            for t in (1.0, 5.0, 10.0):
                assert abs(_euler_accumulation(s, t, 1e-5) - accumulation(s, t)) <= 1e-5


def test_weight_index_bounds():
    with pytest.raises(ConfigError):
        unrolled_weights(Schedule(2.0, 1.0), -1)
    with pytest.raises(ConfigError):
        gamma(Schedule(2.0, 1.0), -3)

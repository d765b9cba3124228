import re

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import expit

from avgfw.domains import DomainSet, Kind, lmo
from avgfw.errors import BrokenOracle, ConfigError
from avgfw.objectives import Logistic, QuadraticLS, Scalar1D, gap, gradient, lipschitz_bound, value


def central_diff(obj, x, h=1e-6):
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (obj.value(x + e) - obj.value(x - e)) / (2 * h)
    return g


def random_quadratic(rng, m=8, n=5, sparse=False):
    A = rng.standard_normal((m, n))
    y = rng.standard_normal(m)
    return QuadraticLS(sp.csr_matrix(A) if sparse else A, y)


def random_logistic(rng, m=9, n=6, sparse=False):
    Z = rng.standard_normal((m, n))
    labels = np.where(rng.standard_normal(m) >= 0, 1.0, -1.0)
    return Logistic(sp.csr_matrix(Z) if sparse else Z, labels)


def test_value_examples():
    q = QuadraticLS(np.eye(2), np.array([1.0, 0.0]))
    assert value(q, np.zeros(2)) == pytest.approx(0.5)
    assert value(Scalar1D(), np.array([0.5])) == pytest.approx(0.25)
    logi = Logistic(np.zeros((1, 1)), np.array([1.0]))
    assert value(logi, np.zeros(1)) == pytest.approx(np.log(2.0))


def test_gradient_examples():
    q = QuadraticLS(np.eye(2), np.array([1.0, 0.0]))
    np.testing.assert_allclose(gradient(q, np.zeros(2)), [-1.0, 0.0])
    np.testing.assert_allclose(gradient(Scalar1D(), np.array([0.5])), [1.0])


def test_logistic_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    obj = random_logistic(rng, m=5, n=4)
    x = rng.standard_normal(4)
    fd = central_diff(obj, x)
    np.testing.assert_allclose(obj.gradient(x), fd, atol=1e-6)


@pytest.mark.parametrize("maker", [random_quadratic, random_logistic])
def test_gradient_consistency_100_fixtures(maker):
    rng = np.random.default_rng(123)
    for _ in range(100):
        obj = maker(rng)
        x = rng.standard_normal(obj.n)
        g = obj.gradient(x)
        fd = central_diff(obj, x)
        assert np.linalg.norm(fd - g) <= 1e-5 * max(1.0, np.linalg.norm(g))


def test_scalar_gradient_consistency():
    rng = np.random.default_rng(3)
    obj = Scalar1D()
    for _ in range(100):
        x = rng.standard_normal(1)
        assert abs(central_diff(obj, x)[0] - obj.gradient(x)[0]) <= 1e-5 * max(1.0, abs(obj.gradient(x)[0]))


def test_logistic_value_is_overflow_safe():
    obj = Logistic(np.array([[1.0], [1.0]]), np.array([1.0, -1.0]))
    big = np.array([1e4])
    v = obj.value(big)
    assert np.isfinite(v)
    # one sample has margin 1e4 (loss ~ 0), the other -1e4 (loss ~ 1e4)
    assert v == pytest.approx(0.5e4, rel=1e-10)
    assert np.all(np.isfinite(obj.gradient(big)))


def test_lipschitz_bound_examples():
    assert lipschitz_bound(QuadraticLS(np.eye(2), np.zeros(2))) == pytest.approx(1.0, abs=1e-9)
    assert lipschitz_bound(Scalar1D()) == 2.0
    diag = lipschitz_bound(QuadraticLS(np.diag([3.0, 1.0]), np.zeros(2)))
    assert diag == pytest.approx(9.0, abs=1e-6)


def test_lipschitz_bound_logistic_matches_spectral_norm():
    rng = np.random.default_rng(2)
    Z = rng.standard_normal((12, 7))
    expected = np.linalg.norm(Z, 2) ** 2 / (4 * 12)
    # 50 power iterations resolve a random spectrum to ~1e-6 relative
    assert Logistic(Z, np.ones(12)).lipschitz_bound() == pytest.approx(expected, rel=1e-5)


@pytest.mark.parametrize("maker", [random_quadratic, random_logistic])
def test_lipschitz_dominates_observed_curvature(maker):
    rng = np.random.default_rng(8)
    obj = maker(rng)
    L = obj.lipschitz_bound()
    h = 1e-4
    for _ in range(30):
        x = rng.standard_normal(obj.n)
        d = rng.standard_normal(obj.n)
        d /= np.linalg.norm(d)
        curv = (obj.value(x + h * d) - 2 * obj.value(x) + obj.value(x - h * d)) / h**2
        assert curv <= L + 1e-5


@pytest.mark.parametrize("maker", [random_quadratic, random_logistic])
def test_convexity_probe(maker):
    rng = np.random.default_rng(21)
    obj = maker(rng)
    for _ in range(50):
        a = rng.standard_normal(obj.n)
        b = rng.standard_normal(obj.n)
        lam = rng.uniform()
        lhs = obj.value(lam * a + (1 - lam) * b)
        assert lhs <= lam * obj.value(a) + (1 - lam) * obj.value(b) + 1e-10


@pytest.mark.parametrize("maker", [random_quadratic, random_logistic])
def test_dense_and_sparse_backends_agree(maker):
    rng_d = np.random.default_rng(33)
    rng_s = np.random.default_rng(33)
    dense = maker(rng_d, sparse=False)
    sparse = maker(rng_s, sparse=True)
    x = np.random.default_rng(1).standard_normal(dense.n)
    vd, vs = dense.value(x), sparse.value(x)
    assert abs(vd - vs) <= 1e-12 * max(1.0, abs(vd))
    gd, gs = dense.gradient(x), sparse.gradient(x)
    np.testing.assert_allclose(gs, gd, rtol=1e-12, atol=1e-15)


def test_gap_scalar_example():
    dom = DomainSet(Kind.BOX, 1.0, 1)
    g, atom = gap(Scalar1D(), dom, np.array([0.5]))
    assert g == pytest.approx(1.5)
    np.testing.assert_array_equal(atom.vector, [-1.0])


def test_gap_zero_at_zero_gradient():
    q = QuadraticLS(np.eye(2), np.zeros(2))  # grad f(0) = 0
    for kind in (Kind.L1_BALL, Kind.L2_BALL):
        g, _ = gap(q, DomainSet(kind, 1.0, 2), np.zeros(2))
        assert g == 0.0


def test_gap_near_zero_at_interior_least_squares_solution():
    rng = np.random.default_rng(17)
    A = rng.standard_normal((10, 4))
    y = rng.standard_normal(10)
    obj = QuadraticLS(A, y)
    x_ls, *_ = np.linalg.lstsq(A, y, rcond=None)
    dom = DomainSet(Kind.L1_BALL, 2.0 * float(np.sum(np.abs(x_ls))), 4)
    g, _ = gap(obj, dom, x_ls)
    assert g <= 1e-9


def test_gap_upper_bounds_suboptimality():
    rng = np.random.default_rng(29)
    A = rng.standard_normal((10, 4))
    y = rng.standard_normal(10)
    obj = QuadraticLS(A, y)
    x_ls, *_ = np.linalg.lstsq(A, y, rcond=None)
    f_star = obj.value(x_ls)  # unconstrained minimizer inside a big enough ball
    dom = DomainSet(Kind.L1_BALL, 2.0 * float(np.sum(np.abs(x_ls))), 4)
    for _ in range(25):
        x = rng.uniform(-1, 1, 4)
        x *= dom.alpha / max(np.sum(np.abs(x)), 1.0)
        g, _ = gap(obj, dom, x)
        assert g >= obj.value(x) - f_star - 1e-9


def test_gap_detects_broken_oracle(monkeypatch):
    import avgfw.objectives as mod
    from avgfw.domains import Atom

    dom = DomainSet(Kind.BOX, 1.0, 1)
    monkeypatch.setattr(mod, "lmo", lambda d, g: Atom(np.array([1.0]), 0))  # wrong corner
    with pytest.raises(BrokenOracle):
        gap(Scalar1D(), dom, np.array([0.5]))


@pytest.mark.parametrize("cls", [QuadraticLS, Logistic])
def test_objectives_reject_a_data_vector_of_the_wrong_shape(cls):
    # a column vector has the right length but would make the value an array
    for data in (np.ones((3, 1)), np.ones(2)):
        with pytest.raises(ConfigError, match=re.escape(f"has shape {data.shape}, expected (3,)")):
            cls(np.eye(3), data)


def test_lipschitz_estimate_is_deterministic():
    rng = np.random.default_rng(44)
    A = rng.standard_normal((6, 5))
    obj = QuadraticLS(A, np.zeros(6))
    assert obj.lipschitz_bound() == obj.lipschitz_bound()


@pytest.mark.parametrize("maker", [random_quadratic, random_logistic])
@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("kind", list(Kind))
def test_image_maps_follow_the_composite_form(maker, sparse, kind):
    # f = phi(M x): the atom image is M s (one column for l1/simplex
    # vertices, the same floats), and value_and_gradient from the image
    # M x is the exact evaluation at x
    rng = np.random.default_rng(11)
    obj = maker(rng, sparse=sparse)
    M = obj.A if isinstance(obj, QuadraticLS) else obj.Z
    dom = DomainSet(kind, 1.7, obj.n)
    for _ in range(5):
        x = rng.standard_normal(obj.n)
        atom = lmo(dom, rng.standard_normal(obj.n))
        np.testing.assert_array_equal(obj.atom_image(dom, atom), M @ atom.vector)
        np.testing.assert_array_equal(obj.image(x), M @ x)
        assert obj.image(x).shape == (obj.m,)
        f_u, g_u = obj.value_and_gradient(x, obj.image(x))
        f_x, g_x = obj.value_and_gradient(x)
        assert f_u == f_x
        np.testing.assert_array_equal(g_u, g_x)


def test_scalar_image_is_the_identity():
    obj = Scalar1D()
    dom = DomainSet(Kind.BOX, 1.0, 1)
    x = np.array([0.3])
    u = obj.image(x)
    np.testing.assert_array_equal(u, x)
    assert u is not x and obj.m == 1
    atom = lmo(dom, np.array([2.0]))
    np.testing.assert_array_equal(obj.atom_image(dom, atom), atom.vector)
    f, g = obj.value_and_gradient(x, u)
    assert f == obj.value(x)
    np.testing.assert_array_equal(g, obj.gradient(x))


def textbook_sigma_max_sq(M):
    # the fixed-budget power iteration of lipschitz_bound, with a fresh M.T
    v = np.random.default_rng(0).standard_normal(M.shape[1])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(50):
        w = M.T @ (M @ v)
        lam = float(np.linalg.norm(w))
        v = w / lam
    return lam


def textbook(obj, x):
    """Value, gradient and smoothness bound from the formulas, with M.T
    taken afresh on every product."""
    if isinstance(obj, Scalar1D):
        return float(x[0]) ** 2, np.array([2.0 * float(x[0])]), 2.0
    if isinstance(obj, QuadraticLS):
        r = obj.A @ x - obj.y
        return 0.5 * float(np.dot(r, r)), obj.A.T @ r, textbook_sigma_max_sq(obj.A)
    t = obj.labels * (obj.Z @ x)
    w = -obj.labels * expit(-t) / obj.m
    val = float(np.mean(np.logaddexp(0.0, -t)))
    return val, obj.Z.T @ w, textbook_sigma_max_sq(obj.Z) / (4.0 * obj.m)


def sparse_quadratic(rng, sparse):
    A = sp.random(50, 30, density=0.3, random_state=rng, format="csr")
    return QuadraticLS(A if sparse else A.toarray(), rng.standard_normal(50))


def sparse_logistic(rng, sparse):
    Z = sp.random(50, 30, density=0.3, random_state=rng, format="csr")
    labels = np.where(rng.standard_normal(50) >= 0, 1.0, -1.0)
    return Logistic(Z if sparse else Z.toarray(), labels)


def scalar1d(rng, sparse):
    return Scalar1D()


@pytest.mark.parametrize("maker", [sparse_quadratic, sparse_logistic, scalar1d])
@pytest.mark.parametrize("sparse", [False, True])
def test_evaluations_are_bitwise_the_textbook_formulas(maker, sparse):
    # M^T is built once; every product must stay the same floats as M.T @ w,
    # and the loss the same as the formula, down to the last bit. Large
    # scales reach the overflow-safe branches of the logistic loss. The 1-D
    # probe runs the generic path with M = [[1]] and must give x^2, 2x, 2.0.
    rng = np.random.default_rng(21)
    obj = maker(rng, sparse)
    M = obj.A if isinstance(obj, QuadraticLS) else obj.Z if isinstance(obj, Logistic) else np.ones((1, 1))
    for scale in (0.1, 1.0, 1e3):
        x = scale * rng.standard_normal(obj.n)
        f, g, lip = textbook(obj, x)
        for f_obj, g_obj in (obj.value_and_gradient(x), obj.value_and_gradient(x, M @ x)):
            assert f_obj == f
            np.testing.assert_array_equal(g_obj, g)
        assert obj.value(x) == f
        np.testing.assert_array_equal(obj.gradient(x), g)
        assert obj.lipschitz_bound() == lip


@pytest.mark.parametrize("maker", [sparse_quadratic, sparse_logistic])
@pytest.mark.parametrize("sparse", [False, True])
def test_transpose_is_built_once_without_copying_a_dense_matrix(maker, sparse):
    obj = maker(np.random.default_rng(4), sparse)
    M = obj.A if isinstance(obj, QuadraticLS) else obj.Z
    MT = obj._transposed
    assert MT.shape == (obj.n, obj.m)
    if sparse:
        assert MT.format == "csr"
        np.testing.assert_array_equal(MT.toarray(), M.toarray().T)
        # M and M^T are the only sparse matrices kept: the rows of M^T
        # serve as the columns of M, so no second copy is stored
        assert {id(v) for v in vars(obj).values() if sp.issparse(v)} == {id(M), id(MT)}
    else:
        assert np.shares_memory(MT, M)


LATE_SPARSE_CHECK = """
import sys
import numpy as np
from avgfw.objectives import Logistic, QuadraticLS
assert "scipy.sparse" not in sys.modules
import scipy.sparse as sp

# power-of-two entries and two nonzeros in every row and column of M: each
# entry of M x and of M^T w is one rounding of a sum of two exact products,
# so the dense and the sparse products agree bitwise, in any order
M = 0.5 * np.eye(6) - 2.0 * np.roll(np.eye(6), 1, axis=1)
x = np.linspace(-1.3, 0.7, 6)
data = np.array([1.0, -1.0, -1.0, 1.0, 1.0, -1.0])
for cls in (QuadraticLS, Logistic):
    dense, sparse = cls(M, data), cls(sp.csr_matrix(M), data)
    assert sparse._transposed.format == "csr"
    (f_d, g_d), (f_s, g_s) = dense.value_and_gradient(x), sparse.value_and_gradient(x)
    assert f_s == f_d
    np.testing.assert_array_equal(g_s, g_d)
"""


def test_sparse_matrix_made_after_the_import_is_recognised(fresh_python):
    # avgfw.objectives imports no scipy; a CSR matrix built once scipy.sparse
    # is loaded later still takes the sparse path
    fresh_python(LATE_SPARSE_CHECK)


DENSE_LOGISTIC_CHECK = """
import sys
import numpy as np
from avgfw.objectives import Logistic

rng = np.random.default_rng(3)
Z = rng.standard_normal((9, 6))
labels = np.where(rng.standard_normal(9) >= 0, 1.0, -1.0)
x = rng.standard_normal(6)
f, g = Logistic(Z, labels).value_and_gradient(x)
t = labels * (Z @ x)
assert abs(f - np.mean(np.logaddexp(0.0, -t))) <= 1e-15
np.testing.assert_allclose(g, Z.T @ (-labels / (1.0 + np.exp(t)) / 9), rtol=1e-13)
assert "scipy.special" in sys.modules and "scipy.sparse" not in sys.modules
"""


def test_dense_logistic_loads_scipy_special_only(fresh_python):
    fresh_python(DENSE_LOGISTIC_CHECK)


LAZY_SPECIAL_CHECK = """
import sys
import numpy as np
from avgfw.experiments import generate_sparse_logistic

obj = generate_sparse_logistic(m=30, n=40, density=0.1, seed=1)
assert "scipy.sparse" in sys.modules and "scipy.special" not in sys.modules
obj.value_and_gradient(np.zeros(obj.n))
assert "scipy.special" in sys.modules
"""


def test_logistic_loads_scipy_special_at_its_first_evaluation(fresh_python):
    # gen-data builds a Logistic only to write it, and pays for no scipy.special
    fresh_python(LAZY_SPECIAL_CHECK)

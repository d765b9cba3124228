import numpy as np
import pytest

from avgfw.domains import DomainSet, Kind, contains, lmo, vertex_values
from avgfw.errors import ConfigError, DegenerateGradient, NonFiniteGradient, UnsupportedKind
from oracles import diameter, enumerate_vertices, l1_vertex, lmo_bruteforce

POLYHEDRAL = [Kind.L1_BALL, Kind.SIMPLEX, Kind.BOX]


def test_lmo_l1_picks_largest_magnitude_coordinate():
    dom = DomainSet(Kind.L1_BALL, 1.0, 3)
    atom = lmo(dom, np.array([3.0, -1.0, 2.0]))
    np.testing.assert_array_equal(atom.vector, [-1.0, 0.0, 0.0])
    assert atom.vertex_id == -1


def test_lmo_simplex_picks_smallest_gradient():
    dom = DomainSet(Kind.SIMPLEX, 1.0, 3)
    atom = lmo(dom, np.array([0.2, -0.5, 0.1]))
    np.testing.assert_array_equal(atom.vector, [0.0, 1.0, 0.0])
    assert atom.vertex_id == 1


def test_lmo_l1_all_zero_gradient_tie_breaks_positive_lowest_index():
    dom = DomainSet(Kind.L1_BALL, 2.0, 3)
    atom = lmo(dom, np.zeros(3))
    np.testing.assert_array_equal(atom.vector, [2.0, 0.0, 0.0])
    assert atom.vertex_id == 1


def test_lmo_box_componentwise_sign():
    dom = DomainSet(Kind.BOX, 1.0, 3)
    atom = lmo(dom, np.array([1.0, -2.0, 0.5]))
    np.testing.assert_array_equal(atom.vector, [-1.0, 1.0, -1.0])


def test_lmo_bruteforce_agrees_on_stated_examples():
    dom = DomainSet(Kind.L1_BALL, 1.0, 3)
    g = np.array([3.0, -1.0, 2.0])
    assert lmo(dom, g).vertex_id == lmo_bruteforce(dom, g).vertex_id
    box = DomainSet(Kind.BOX, 1.0, 3)
    np.testing.assert_array_equal(lmo_bruteforce(box, np.array([1.0, -2.0, 0.5])).vector, [-1.0, 1.0, -1.0])


@pytest.mark.parametrize("kind", POLYHEDRAL)
def test_lmo_matches_bruteforce_on_random_gradients(kind):
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        dom = DomainSet(kind, 1.5, n)
        g = rng.standard_normal(n)
        fast = lmo(dom, g)
        brute = lmo_bruteforce(dom, g)
        assert fast.vertex_id == brute.vertex_id
        np.testing.assert_array_equal(fast.vector, brute.vector)


@pytest.mark.parametrize("kind", POLYHEDRAL)
def test_lmo_optimality_certificate(kind):
    dom = DomainSet(kind, 2.0, 6)
    rng = np.random.default_rng(1)
    for _ in range(50):
        g = rng.standard_normal(6)
        best = float(np.dot(g, lmo(dom, g).vector))
        for vertex in enumerate_vertices(dom):
            assert best <= float(np.dot(g, vertex.vector)) + 1e-12


@pytest.mark.parametrize("kind", list(Kind))
def test_lmo_scale_equivariance_and_gradient_scale_invariance(kind):
    rng = np.random.default_rng(5)
    for _ in range(25):
        g = rng.standard_normal(4)
        unit = DomainSet(kind, 1.0, 4)
        scaled = DomainSet(kind, 3.5, 4)
        np.testing.assert_array_equal(lmo(scaled, g).vector, 3.5 * lmo(unit, g).vector)
        a, b = lmo(unit, g), lmo(unit, 7.25 * g)
        assert a.vertex_id == b.vertex_id
        if kind is Kind.L2_BALL:
            # no vertex identity; renormalizing a rescaled gradient is 1-ulp exact
            np.testing.assert_allclose(a.vector, b.vector, atol=1e-12)
        else:
            np.testing.assert_array_equal(a.vector, b.vector)


@pytest.mark.parametrize("kind", list(Kind))
def test_lmo_output_is_member(kind):
    dom = DomainSet(kind, 0.75, 5)
    rng = np.random.default_rng(9)
    for _ in range(100):
        atom = lmo(dom, rng.standard_normal(5))
        assert contains(dom, atom.vector, 1e-12 * dom.alpha)


def test_lmo_zero_gradient_on_l2_ball_is_degenerate():
    with pytest.raises(DegenerateGradient):
        lmo(DomainSet(Kind.L2_BALL, 1.0, 3), np.zeros(3))


@pytest.mark.parametrize(
    "dom",
    [DomainSet(Kind.L1_BALL, 1.7, 7), DomainSet(Kind.SIMPLEX, 1.7, 7), DomainSet(Kind.BOX, 1.7, 7),
     DomainSet(Kind.L2_BALL, 1.7, 7), DomainSet(Kind.BOX, 1.7, 21)],
    ids=lambda d: f"{d.kind.value}{d.n}",
)
def test_vertex_values_lists_the_enumerated_vertices_in_order(dom):
    g = np.random.default_rng(8).standard_normal(dom.n)
    g[2] = 0.0
    g[4] = -g[1]
    if dom.kind is Kind.L2_BALL or dom.n > 20:
        with pytest.raises(UnsupportedKind):
            vertex_values(dom, g)
        return
    atoms = list(enumerate_vertices(dom))
    ids, vals = vertex_values(dom, g)
    assert ids.tolist() == [a.vertex_id for a in atoms]
    dots = np.array([np.dot(g, a.vector) for a in atoms])
    if dom.kind is Kind.BOX:  # a corner's value sums n products, in whatever order the product takes
        np.testing.assert_allclose(vals, dots, rtol=1e-13, atol=1e-13)
    else:
        np.testing.assert_array_equal(vals, dots)


def test_lmo_bruteforce_rejects_l2_ball():
    with pytest.raises(UnsupportedKind):
        lmo_bruteforce(DomainSet(Kind.L2_BALL, 1.0, 3), np.ones(3))


def test_contains_examples():
    l1 = DomainSet(Kind.L1_BALL, 1.0, 3)
    assert contains(l1, np.array([0.5, -0.5, 0.0]), 0.0)
    assert not contains(l1, np.array([0.6, -0.5, 0.0]), 1e-12)
    simplex = DomainSet(Kind.SIMPLEX, 1.0, 3)
    assert contains(simplex, np.array([0.3, 0.3, 0.4]), 1e-12)
    assert not contains(simplex, np.array([0.5, 0.6, -0.1]), 1e-12)


def test_diameter_values():
    assert diameter(DomainSet(Kind.L1_BALL, 1.0, 7)) == 2.0
    assert diameter(DomainSet(Kind.BOX, 1.0, 4)) == pytest.approx(4.0)
    # brute-force over all simplex vertex pairs
    simplex = DomainSet(Kind.SIMPLEX, 1.0, 5)
    verts = [a.vector for a in enumerate_vertices(simplex)]
    worst = max(np.linalg.norm(u - v) for u in verts for v in verts)
    assert diameter(simplex) == pytest.approx(worst)
    assert diameter(DomainSet(Kind.L2_BALL, 2.5, 3)) == 5.0


@pytest.mark.parametrize("kind", POLYHEDRAL)
def test_diameter_bounds_all_vertex_pairs(kind):
    dom = DomainSet(kind, 1.3, 6)
    verts = [a.vector for a in enumerate_vertices(dom)]
    worst = max(np.linalg.norm(u - v) for u in verts for v in verts)
    assert worst <= diameter(dom) + 1e-12


def test_vertex_id_uniquely_determines_vector():
    for kind in POLYHEDRAL:
        dom = DomainSet(kind, 2.0, 5)
        seen = {}
        for atom in enumerate_vertices(dom):
            assert atom.vertex_id not in seen
            seen[atom.vertex_id] = atom.vector


def test_box_vertex_ids_at_the_dimension_cap():
    dom = DomainSet(Kind.BOX, 1.0, 63)
    assert lmo(dom, np.ones(63)).vertex_id == 2**63 - 1
    g = -np.ones(63)
    g[62] = 1.0
    assert lmo(dom, g).vertex_id == 2**62
    with pytest.raises(ConfigError):
        DomainSet(Kind.BOX, 1.0, 64)


def test_domain_validation():
    with pytest.raises(ConfigError):
        DomainSet(Kind.L1_BALL, 0.0, 3)
    with pytest.raises(ConfigError, match="alpha must be positive and finite, got inf"):
        DomainSet(Kind.BOX, float("inf"), 1)
    with pytest.raises(ConfigError):
        DomainSet(Kind.L1_BALL, 1.0, 0)
    with pytest.raises(ConfigError):
        lmo(DomainSet(Kind.BOX, 1.0, 3), np.ones(4))


def test_l1_vertex_helper_matches_enumeration():
    dom = DomainSet(Kind.L1_BALL, 2.0, 4)
    by_id = {a.vertex_id: a.vector for a in enumerate_vertices(dom)}
    atom = l1_vertex(2.0, 4, 2, -1)
    np.testing.assert_array_equal(atom.vector, by_id[atom.vertex_id])


@pytest.mark.parametrize("kind", list(Kind))
def test_an_int_alpha_gives_float_atoms_with_unchanged_ids(kind):
    g = np.random.default_rng(4).standard_normal(5)
    by_int, by_float = lmo(DomainSet(kind, 3, 5), g), lmo(DomainSet(kind, 3.0, 5), g)
    assert DomainSet(kind, 3, 5).alpha == 3.0 and isinstance(DomainSet(kind, 3, 5).alpha, float)
    assert by_int.vector.dtype == np.float64
    assert by_int.vector.tobytes() == by_float.vector.tobytes()
    assert by_int.vertex_id == by_float.vertex_id
    if kind is Kind.BOX:
        assert DomainSet(Kind.BOX, 1, 3) == DomainSet(Kind.BOX, 1.0, 3)
        assert lmo(DomainSet(Kind.BOX, 1, 3), np.array([1.0, -1.0, 0.0])).vector.dtype == np.float64


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 3, 6])
def test_lmo_rejects_a_non_finite_gradient_entry(kind, bad, where):
    # the check reads only the entry of largest magnitude: a huge finite
    # entry elsewhere, before or after, must not hide the bad one
    g = np.random.default_rng(5).standard_normal(7)
    g[6 - where] = -1e308
    g[where] = bad
    for oracle in (lmo, lmo_bruteforce) if kind is not Kind.L2_BALL else (lmo,):
        with pytest.raises(NonFiniteGradient, match="non-finite") as err:
            oracle(DomainSet(kind, 1.0, 7), g)
        assert isinstance(err.value, ConfigError)

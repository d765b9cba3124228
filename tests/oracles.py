"""Reference implementations that the tests compare the package against.

Nothing in ``avgfw`` calls these; each one computes by a second route a
quantity the package computes in its one loop, so a test can check the
two agree:

- schedules: the unrolled averaging weights (``unrolled_weights``,
  ``apply_weights``), which the recursion sbar_k = sbar_{k-1} +
  beta_k (s_k - sbar_{k-1}) must reproduce; and the continuous-time
  ``alpha_t``, the antiderivative of beta(t) (p < 1 branch), with
  ``accumulation(t)``, the closed-form response of the averaging ODE
  d sbar = beta(t) (s - sbar) dt to the constant unit signal, the
  yardstick the flow integrator is validated against.
- domains: vertex enumeration, which builds every vertex and its id from
  the encoding ``domains`` documents, with no package code, in the order
  of ``lmo``'s tie-break; the brute-force LMO, the first least-valued
  vertex of ``domains.vertex_values`` built from its id, so it agrees
  with ``lmo`` atom for atom; ``l1_vertex``, a signed l1-ball vertex
  with its id; and ``diameter``, a bound on the distance between points
  of a domain.
- objectives: the projection-free duality gap ``gap``, a certified upper
  bound on suboptimality for convex objectives; and ``scalar_probe``, no
  second route but the one place the tests build the 1-D probe
  f(x) = x^2 / 2, least squares with A = [[1]] and y = [0], as the CLI
  builds ``kind = scalar1d``.
- solvers: ``keep_first_misses`` replays a vertex history through an
  atom-image store that keeps the first vertices it meets and evicts
  none, the policy of ``solvers._lmo_source``, and lists the vertices
  whose image it computes. ``scripted_run`` is a driver, not a second
  route: it feeds a prescribed atom stream to the loop itself,
  ``solvers._run``, for the discretization-error dichotomy (acceptance
  criterion 6).

The two error classes here are raised only by these oracles, so they
live with them, under the package's exit-code bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from avgfw.domains import BOX_BRUTEFORCE_MAX_DIM, Atom, DomainSet, Kind, lmo, vertex_values
from avgfw.errors import ConfigError, InputError, NumericalError, UnsupportedKind
from avgfw.objectives import Objective, QuadraticLS
from avgfw.schedules import Schedule
from avgfw.solvers import IterateTrace, SolverConfig, SolverState, Variant, _discrete_steps, _run

GAP_NEGATIVE_TOL = 1e-12


class WrongBranch(InputError):
    """Closed form requested on the schedule branch where it does not exist."""


class BrokenOracle(NumericalError):
    """The duality gap came out significantly negative; the LMO violated optimality."""


# ---------------------------------------------------------------- schedules


@dataclass(frozen=True)
class WeightVector:
    """Unrolled averaging weights at iteration k; entry i weights atom s_i."""

    k: int
    weights: np.ndarray


def beta_array(s: Schedule, ks: np.ndarray) -> np.ndarray:
    return (s.c / (s.c + np.asarray(ks, dtype=float))) ** s.p


def unrolled_weights(s: Schedule, k: int) -> WeightVector:
    """Weights w_{k,i} such that sbar_k = sum_i w_{k,i} s_i.

    Product form w_{k,i} = beta_i * prod_{j=i+1..k} (1 - beta_j), which
    reproduces the recursion sbar_k = sbar_{k-1} + beta_k (s_k - sbar_{k-1})
    exactly and sums to one at every k (beta_0 = 1 anchors the telescoping).
    """
    if k < 0:
        raise ConfigError(f"iteration index must be >= 0, got {k}")
    if k > 10**5:
        raise ConfigError("unrolled weights limited to k <= 1e5")
    ks = np.arange(k + 1)
    betas = beta_array(s, ks)
    one_minus = 1.0 - betas
    # tail[i] = prod_{j=i+1..k} (1 - beta_j)
    tail = np.ones(k + 1)
    if k > 0:
        tail[:-1] = np.cumprod(one_minus[::-1])[:-1][::-1]
    return WeightVector(k, betas * tail)


def apply_weights(w: WeightVector, atoms: np.ndarray) -> np.ndarray:
    """Contract a (k+1, n) atom history against the weights."""
    atoms = np.asarray(atoms, dtype=float)
    if atoms.shape[0] != w.k + 1:
        raise ConfigError(f"atom history has {atoms.shape[0]} rows, expected {w.k + 1}")
    return w.weights @ atoms


def alpha_t(s: Schedule, t: float) -> float:
    """Antiderivative of beta(t) for p < 1: c^p (c+t)^(1-p) / (1-p)."""
    if s.p == 1:
        raise WrongBranch("alpha_t is defined only for p != 1")
    if t < 0:
        raise ConfigError(f"t must be >= 0, got {t}")
    return s.c**s.p * (s.c + t) ** (1.0 - s.p) / (1.0 - s.p)


def accumulation(s: Schedule, t: float) -> float:
    """Closed-form sbar(t) of the averaging ODE driven by the constant 1.

    Equals 1 - (c/(c+t))^c for p = 1 and 1 - exp(alpha(0) - alpha(t))
    otherwise; zero at t = 0 on both branches.
    """
    if t < 0:
        raise ConfigError(f"t must be >= 0, got {t}")
    if s.p == 1:
        return 1.0 - (s.c / (s.c + t)) ** s.c
    return 1.0 - np.exp(alpha_t(s, 0.0) - alpha_t(s, t))


# ---------------------------------------------------------------- domains


def _vertex(domain: DomainSet, vertex_id: int) -> np.ndarray:
    """The vertex of a polyhedral domain that ``vertex_id`` names."""
    a = domain.alpha
    if domain.kind is Kind.BOX:  # bit i of the corner code set: coordinate i is -alpha
        return np.array([-a if vertex_id >> i & 1 else a for i in range(domain.n)])
    v = np.zeros(domain.n)
    if domain.kind is Kind.L1_BALL:
        v[abs(vertex_id) - 1] = a if vertex_id > 0 else -a
    else:
        v[vertex_id] = a
    return v


def enumerate_vertices(domain: DomainSet) -> Iterator[Atom]:
    """Yield every extremal vertex of a polyhedral domain.

    The order matches the lmo tie-break: for each index the positive
    vertex precedes the negative one, indices ascending; box corners
    ascend by corner code.
    """
    n = domain.n
    if domain.kind is Kind.L1_BALL:
        ids = [sign * (i + 1) for i in range(n) for sign in (1, -1)]
    elif domain.kind is Kind.SIMPLEX:
        ids = range(n)
    elif domain.kind is Kind.BOX and n <= BOX_BRUTEFORCE_MAX_DIM:
        ids = range(1 << n)
    else:
        raise UnsupportedKind("vertex enumeration needs a polyhedral domain, and a box of n <= 20")
    for vertex_id in ids:
        yield Atom(_vertex(domain, vertex_id), vertex_id)


def lmo_bruteforce(domain: DomainSet, gradient: np.ndarray) -> Atom:
    """Exact LMO by valuing every vertex; test oracle for ``lmo``.

    Keeps the first vertex of least value in the order of
    ``domains.vertex_values``, which reproduces lmo's documented
    tie-break, and builds it from its id. The gradient is checked, and
    the l2 ball rejected, as ``vertex_values`` does.
    """
    ids, vals = vertex_values(domain, gradient)
    vertex_id = int(ids[np.argmin(vals)])  # first occurrence wins ties
    return Atom(_vertex(domain, vertex_id), vertex_id)


def diameter(domain: DomainSet) -> float:
    """Tight upper bound on ||u - v||_2 over the domain."""
    a = domain.alpha
    if domain.kind in (Kind.L1_BALL, Kind.L2_BALL):
        return 2.0 * a
    if domain.kind is Kind.SIMPLEX:
        return a * np.sqrt(2.0)
    return 2.0 * a * np.sqrt(domain.n)


def l1_vertex(alpha: float, n: int, index: int, sign: int) -> Atom:
    """Convenience constructor for a signed l1-ball vertex with its id."""
    if sign not in (-1, 1):
        raise ConfigError("sign must be -1 or +1")
    if not (0 <= index < n):
        raise ConfigError(f"index {index} out of range for dimension {n}")
    v = np.zeros(n)
    v[index] = sign * alpha
    return Atom(v, sign * (index + 1))


# ---------------------------------------------------------------- objectives


def scalar_probe() -> QuadraticLS:
    """The 1-D probe f(x) = x^2 / 2: grad f(x) = x, f_ref = 0."""
    return QuadraticLS(np.ones((1, 1)), np.zeros(1))


def gap(obj: Objective, domain: DomainSet, x: np.ndarray) -> Tuple[float, Atom]:
    """Duality gap grad(x) . (x - s) with s the LMO atom at grad(x).

    Nonnegative for any correct oracle; tiny negative values from
    floating-point cancellation are clamped to zero, anything below
    -1e-12 means the oracle violated optimality and raises.
    """
    x = np.asarray(x, dtype=float)
    g = obj.gradient(x)
    if float(np.linalg.norm(g)) == 0.0 and not domain.is_polyhedral:
        # Any feasible point minimizes a zero linear form; x itself certifies gap 0.
        return 0.0, Atom(x.copy(), None)
    atom = lmo(domain, g)
    val = float(np.dot(g, x - atom.vector))
    if val < -GAP_NEGATIVE_TOL:
        raise BrokenOracle(f"negative duality gap {val:.3e}")
    return max(val, 0.0), atom


# ---------------------------------------------------------------- solvers


def keep_first_misses(vertex_ids: Sequence[int], slots: int) -> List[int]:
    """The vertex ids, in order, that a store keeping the first ``slots``
    distinct ids it meets, and evicting none, does not hold when met."""
    kept, misses = set(), []
    for v in vertex_ids:
        if v not in kept:
            misses.append(v)
            if len(kept) < slots:
                kept.add(v)
    return misses


def scripted_run(pool: Sequence[Atom], schedule: Schedule, steps: int, seed: Optional[int] = None) -> IterateTrace:
    """Averaged updates from x = 0 on a prescribed atom stream instead of an LMO.

    With ``seed`` None the stream walks the pool in order; otherwise it
    draws uniformly with ``default_rng(seed)``. There is no objective, so
    the f and gap columns are NaN and disc_err = ||sbar_k - x_k|| is the
    metric of interest. The trace holds the atom history when every pool
    atom has a vertex id.
    """
    if seed is None:
        picks = np.arange(steps) % len(pool)
    else:
        picks = np.random.default_rng(seed).integers(0, len(pool), size=steps)
    n = pool[0].vector.shape[0]
    no_gradient = np.full(n, np.nan)
    no_image = np.empty(0)  # no objective: the image space is R^0

    def source(x, u, k, record):
        return np.nan, no_gradient, pool[picks[k]], no_image

    cfg = SolverConfig(Variant.AVGFW, schedule, max_iters=steps)
    start = SolverState(k=0, x=np.zeros(n), s_bar=np.zeros(n))
    return _run(source, lambda v: no_image, _discrete_steps(schedule), cfg, start)

"""Differentiable objectives: least squares, logistic loss, and a 1-D probe.

Each objective carries its data, evaluates value and gradient (dense or
CSR-sparse backends transparently), and estimates its own smoothness
constant.

Every objective has the form f(x) = phi(M x) with an m x n matrix M:
M = A for least squares, M = Z for the logistic loss (the margins before
the labels), and the 1 x 1 identity for the 1-D probe. Three methods
expose that form, so the solver can carry u = M x along with x:
``image(v)`` is M v; ``atom_image(domain, atom)`` is M s for an LMO
atom, one scaled column of M (of a CSC copy when M is sparse) for an l1
or simplex vertex; and ``value_and_gradient(x, image=u)`` evaluates phi
at the given image and then needs only M^T, for the gradient.

M^T is built once, at construction: a CSR copy of the transpose for a
sparse M (scipy would otherwise build a new transpose object on every
``M.T``, which costs more than the product itself at desk scale), and the
``.T`` view of a dense M, which copies nothing. The products are the same
floating-point operations in the same order as ``M.T @ w``.

The free function :func:`gap` computes the standard projection-free
duality gap, a certified upper bound on suboptimality for convex
objectives.

Objectives are frozen dataclasses: evaluation is pure and safe to call
from any number of threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .domains import Atom, DomainSet, lmo, vertex_coordinate
from .errors import BrokenOracle, ConfigError

MatrixLike = Union[np.ndarray, sp.spmatrix, sp.sparray]

POWER_ITERATIONS = 50
POWER_SEED = 0
GAP_NEGATIVE_TOL = 1e-12


def _as_operator(M: MatrixLike) -> MatrixLike:
    if sp.issparse(M):
        M = M.tocsr()
    else:
        M = np.asarray(M, dtype=float)
        if M.ndim != 2:
            raise ConfigError("data matrix must be 2-D")
    if M.shape[0] < 1:
        raise ConfigError("data matrix has no rows")
    return M


def _sigma_max_sq(M: MatrixLike, MT: MatrixLike) -> float:
    """Largest squared singular value via fixed-budget power iteration,
    given M and its transpose MT.

    50 iterations from a seed-fixed start vector; deterministic across
    runs so reported constants are reproducible.
    """
    n = M.shape[1]
    rng = np.random.default_rng(POWER_SEED)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(POWER_ITERATIONS):
        w = MT @ (M @ v)
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0
        lam = norm
        v = w / norm
    return lam


def _columns(M: MatrixLike) -> MatrixLike:
    """Column access to M: a dense M itself (a column is a strided view,
    no copy), a CSC copy of a sparse one."""
    return M.tocsc() if sp.issparse(M) else M


def _transpose(M: MatrixLike) -> MatrixLike:
    """M^T for the gradient: a CSR copy of a sparse M's transpose, the
    ``.T`` view of a dense M (no copy)."""
    return M.T.tocsr() if sp.issparse(M) else M.T


def _atom_image(M: MatrixLike, cols: MatrixLike, domain: DomainSet, atom: Atom) -> np.ndarray:
    """M s for an LMO atom s. An l1 or simplex vertex has one nonzero
    coordinate, so one column of M gives the product; it is the same
    number, as the other terms are exact zeros."""
    i = vertex_coordinate(domain, atom)
    if i is None:
        return M @ atom.vector
    c = atom.vector[i]
    if cols is M:
        return c * M[:, i]
    lo, hi = cols.indptr[i], cols.indptr[i + 1]
    return np.bincount(cols.indices[lo:hi], weights=c * cols.data[lo:hi], minlength=M.shape[0])


@dataclass(frozen=True)
class QuadraticLS:
    """f(x) = 0.5 * ||A x - y||_2^2 with dense or CSR-sparse A."""

    A: MatrixLike
    y: np.ndarray
    _cols: MatrixLike = field(init=False, repr=False, compare=False)
    _transposed: MatrixLike = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "A", _as_operator(self.A))
        object.__setattr__(self, "_cols", _columns(self.A))
        object.__setattr__(self, "_transposed", _transpose(self.A))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if self.A.shape[0] != self.y.shape[0]:
            raise ConfigError(
                f"A has {self.A.shape[0]} rows but y has length {self.y.shape[0]}"
            )

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def m(self) -> int:
        return self.A.shape[0]

    def image(self, v: np.ndarray) -> np.ndarray:
        return self.A @ v

    def atom_image(self, domain: DomainSet, atom: Atom) -> np.ndarray:
        return _atom_image(self.A, self._cols, domain, atom)

    def value(self, x: np.ndarray) -> float:
        r = self.A @ x - self.y
        return 0.5 * float(np.dot(r, r))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self._transposed @ (self.A @ x - self.y)

    def value_and_gradient(self, x: np.ndarray, image: Optional[np.ndarray] = None) -> Tuple[float, np.ndarray]:
        """0.5 ||u - y||^2 and A^T (u - y) at u = A x, or at ``image`` when given."""
        r = (self.A @ x if image is None else image) - self.y
        return 0.5 * float(np.dot(r, r)), self._transposed @ r

    def lipschitz_bound(self) -> float:
        return _sigma_max_sq(self.A, self._transposed)


@dataclass(frozen=True)
class Logistic:
    """f(x) = (1/m) sum_i log(1 + exp(-y_i z_i^T x)), labels y_i in {-1, +1}.

    Evaluated through log(1 + e^{-t}) = logaddexp(0, -t), the overflow-safe
    split between the t >= 0 and t < 0 branches.
    """

    Z: MatrixLike
    labels: np.ndarray
    _cols: MatrixLike = field(init=False, repr=False, compare=False)
    _transposed: MatrixLike = field(init=False, repr=False, compare=False)
    _neg_labels: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "Z", _as_operator(self.Z))
        object.__setattr__(self, "_cols", _columns(self.Z))
        object.__setattr__(self, "_transposed", _transpose(self.Z))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=float))
        if self.Z.shape[0] != self.labels.shape[0]:
            raise ConfigError(
                f"Z has {self.Z.shape[0]} rows but labels has length {self.labels.shape[0]}"
            )
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ConfigError("labels must all be -1 or +1")
        object.__setattr__(self, "_neg_labels", -self.labels)

    @property
    def n(self) -> int:
        return self.Z.shape[1]

    @property
    def m(self) -> int:
        return self.Z.shape[0]

    def image(self, v: np.ndarray) -> np.ndarray:
        return self.Z @ v

    def atom_image(self, domain: DomainSet, atom: Atom) -> np.ndarray:
        return _atom_image(self.Z, self._cols, domain, atom)

    def _loss(self, nt: np.ndarray) -> float:
        """(1/m) sum_i log(1 + e^{nt_i}) at the negated margins nt = -y * u."""
        return float(np.add.reduce(np.logaddexp(0.0, nt)) / self.m)

    def _dloss(self, nt: np.ndarray) -> np.ndarray:
        """d loss / d u at the negated margins: -y_i expit(nt_i) / m."""
        w = expit(nt)
        w *= self._neg_labels
        w /= self.m
        return w

    def value(self, x: np.ndarray) -> float:
        return self._loss(self._neg_labels * (self.Z @ x))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self._transposed @ self._dloss(self._neg_labels * (self.Z @ x))

    def value_and_gradient(self, x: np.ndarray, image: Optional[np.ndarray] = None) -> Tuple[float, np.ndarray]:
        """Value and gradient at x, from the image u = Z x when given."""
        nt = self._neg_labels * (self.Z @ x if image is None else image)
        return self._loss(nt), self._transposed @ self._dloss(nt)

    def lipschitz_bound(self) -> float:
        return _sigma_max_sq(self.Z, self._transposed) / (4.0 * self.m)


@dataclass(frozen=True)
class Scalar1D:
    """f(x) = x^2 on the real line; the minimal zig-zag demonstration."""

    @property
    def n(self) -> int:
        return 1

    @property
    def m(self) -> int:
        return 1

    def image(self, v: np.ndarray) -> np.ndarray:
        return np.array(v, dtype=float)  # M is the 1 x 1 identity

    def atom_image(self, domain: DomainSet, atom: Atom) -> np.ndarray:
        return atom.vector

    def value(self, x: np.ndarray) -> float:
        return float(x[0]) ** 2

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return np.array([2.0 * float(x[0])])

    def value_and_gradient(self, x: np.ndarray, image: Optional[np.ndarray] = None) -> Tuple[float, np.ndarray]:
        u = x if image is None else image
        return self.value(u), self.gradient(u)

    def lipschitz_bound(self) -> float:
        return 2.0


Objective = Union[QuadraticLS, Logistic, Scalar1D]


def value(obj: Objective, x: np.ndarray) -> float:
    return obj.value(np.asarray(x, dtype=float))


def gradient(obj: Objective, x: np.ndarray) -> np.ndarray:
    return obj.gradient(np.asarray(x, dtype=float))


def lipschitz_bound(obj: Objective) -> float:
    return obj.lipschitz_bound()


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

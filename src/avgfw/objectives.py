"""Differentiable objectives: least squares, logistic loss, and a 1-D probe.

Every objective is one composite f(x) = phi(M x) with an m x n matrix M:
M = A for least squares, M = Z for the logistic loss (the margins before
the labels), and the 1 x 1 identity for the 1-D probe. The base class
:class:`Objective` writes that form once. A loss supplies only phi and
phi' (``_phi(u)`` returns both) and its curvature; value, gradient,
their images and the smoothness bound sigma_max(M)^2 * sup phi'' follow.

The form lets the solver carry u = M x along with x: ``image(v)`` is
M v; ``atom_image(domain, atom)`` is M s for an LMO atom, one scaled
column of M for an l1 or simplex vertex; and
``value_and_gradient(x, image=u)`` evaluates phi at the given image and
then needs only M^T, for the gradient. With ``value=False`` it skips
phi(u) itself and returns None for f, as ``gradient`` does: the solver
asks for f only on the rows it records, and the gradient weights phi'(u)
are the same floats either way.

M^T is built once, at construction: a CSR copy of the transpose for a
sparse M (scipy would otherwise build a new transpose object on every
``M.T``, which costs more than the product itself at desk scale) and
the ``.T`` view for a dense M, which copies nothing. The products are
the same floating-point operations in the same order as ``M.T @ w``.
Row i of M^T is column i of M and gives the image of a vertex atom, so
no column copy of M is kept.

scipy is loaded on first use only: ``scipy.special`` at the first
evaluation of a :class:`Logistic` (building one, as ``gen-data`` does to
write it, imports nothing), and ``scipy.sparse`` by whoever makes a
sparse matrix (the svmlight reader and the sparse generator in
:mod:`avgfw.experiments`). Dense least squares and the 1-D probe never
import it, so a dense CLI process starts without scipy.

The free function :func:`gap` computes the standard projection-free
duality gap, a certified upper bound on suboptimality for convex
objectives.

Objectives are frozen dataclasses: evaluation is pure and safe to call
from any number of threads.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Tuple, Union

import numpy as np

from .domains import Atom, DomainSet, lmo, vertex_coordinate
from .errors import BrokenOracle, ConfigError

if TYPE_CHECKING:
    import scipy.sparse as sp

MatrixLike = Union[np.ndarray, "sp.spmatrix", "sp.sparray"]

POWER_ITERATIONS = 50
POWER_SEED = 0
GAP_NEGATIVE_TOL = 1e-12


def _issparse(M) -> bool:
    """scipy.sparse.issparse without importing scipy: no sparse matrix can
    exist before ``scipy.sparse`` is loaded."""
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(M)


def _as_operator(M: MatrixLike) -> MatrixLike:
    if _issparse(M):
        M = M.tocsr()
    else:
        M = np.asarray(M, dtype=float)
        if M.ndim != 2:
            raise ConfigError("data matrix must be 2-D")
    if M.shape[0] < 1:
        raise ConfigError("data matrix has no rows")
    return M


class Objective:
    """f(x) = phi(M x). A subclass calls :meth:`_bind` once at
    construction and supplies the loss ``_phi(u, value=True) -> (phi(u),
    phi'(u))``, with None for phi(u) when ``value`` is False, and
    ``_inv_curvature``, the reciprocal of a bound on phi''."""

    _M: MatrixLike
    _transposed: MatrixLike
    _inv_curvature: float

    def _bind(self, M: MatrixLike, data: np.ndarray, name: str) -> Tuple[MatrixLike, np.ndarray]:
        """Store M and M^T; return M and the data vector as floats,
        checked to hold one entry per row of M."""
        M = _as_operator(M)
        data = np.asarray(data, dtype=float)
        if data.shape != (M.shape[0],):
            raise ConfigError(f"{name} has shape {data.shape}, expected ({M.shape[0]},), one entry per row")
        object.__setattr__(self, "_M", M)
        object.__setattr__(self, "_transposed", M.T.tocsr() if _issparse(M) else M.T)
        return M, data

    def _phi(self, u: np.ndarray, value: bool = True) -> Tuple[Optional[float], np.ndarray]:
        raise NotImplementedError

    @property
    def n(self) -> int:
        return self._M.shape[1]

    @property
    def m(self) -> int:
        return self._M.shape[0]

    def image(self, v: np.ndarray) -> np.ndarray:
        return self._M @ v

    def atom_image(self, domain: DomainSet, atom: Atom) -> np.ndarray:
        """M s for an LMO atom s. An l1 or simplex vertex has one nonzero
        coordinate, so one column of M, row i of M^T, gives the product;
        it is the same number, as the other terms are exact zeros."""
        i = vertex_coordinate(domain, atom)
        if i is None:
            return self._M @ atom.vector
        c, T = atom.vector[i], self._transposed
        if isinstance(T, np.ndarray):
            return c * T[i]
        lo, hi = T.indptr[i], T.indptr[i + 1]
        return np.bincount(T.indices[lo:hi], weights=c * T.data[lo:hi], minlength=T.shape[1])

    def value(self, x: np.ndarray) -> float:
        return self._phi(self._M @ x)[0]

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self._transposed @ self._phi(self._M @ x, value=False)[1]

    def value_and_gradient(
        self, x: np.ndarray, image: Optional[np.ndarray] = None, value: bool = True
    ) -> Tuple[Optional[float], np.ndarray]:
        """phi(u) and M^T phi'(u) at u = M x, or at ``image`` when given;
        None in place of phi(u) when ``value`` is False."""
        f, w = self._phi(self._M @ x if image is None else image, value)
        return f, self._transposed @ w

    def lipschitz_bound(self) -> float:
        """sigma_max(M)^2 / _inv_curvature, sigma_max(M)^2 by a fixed-budget
        power iteration: 50 steps from a seed-fixed start vector, so the
        reported constant is reproducible."""
        rng = np.random.default_rng(POWER_SEED)
        v = rng.standard_normal(self.n)
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(POWER_ITERATIONS):
            w = self._transposed @ (self._M @ v)
            norm = float(np.linalg.norm(w))
            if norm == 0.0:
                return 0.0
            lam = norm
            v = w / norm
        return lam / self._inv_curvature


@dataclass(frozen=True)
class QuadraticLS(Objective):
    """f(x) = 0.5 * ||A x - y||_2^2 with dense or CSR-sparse A."""

    A: MatrixLike
    y: np.ndarray
    _inv_curvature = 1.0

    def __post_init__(self):
        A, y = self._bind(self.A, self.y, "y")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "y", y)

    def _phi(self, u: np.ndarray, value: bool = True) -> Tuple[Optional[float], np.ndarray]:
        r = u - self.y
        return 0.5 * float(r.dot(r)) if value else None, r


@dataclass(frozen=True)
class Logistic(Objective):
    """f(x) = (1/m) sum_i log(1 + exp(-y_i z_i^T x)), labels y_i in {-1, +1}.

    Evaluated through log(1 + e^{-t}) = logaddexp(0, -t), the overflow-safe
    split between the t >= 0 and t < 0 branches.
    """

    Z: MatrixLike
    labels: np.ndarray
    _neg_labels: np.ndarray = field(init=False, repr=False, compare=False)
    _expit: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        Z, labels = self._bind(self.Z, self.labels, "labels")
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ConfigError("labels must all be -1 or +1")
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_neg_labels", -labels)

    @property
    def _inv_curvature(self) -> float:
        return 4.0 * self.m  # phi'' <= 1/(4m)

    def _phi(self, u: np.ndarray, value: bool = True) -> Tuple[Optional[float], np.ndarray]:
        """The mean of log(1 + e^{nt_i}) and its derivative -y_i expit(nt_i) / m,
        at the negated margins nt = -y * u. ``expit`` is bound at the first
        call, so building an instance imports no scipy."""
        expit = self._expit
        if expit is None:
            from scipy.special import expit

            object.__setattr__(self, "_expit", expit)
        nt = self._neg_labels * u
        w = expit(nt)
        w *= self._neg_labels
        w /= self.m
        return float(np.add.reduce(np.logaddexp(0.0, nt)) / self.m) if value else None, w


@dataclass(frozen=True)
class Scalar1D(Objective):
    """f(x) = x^2 on the real line, M = [[1]]; the minimal zig-zag demonstration."""

    _inv_curvature = 0.5

    def __post_init__(self):
        self._bind(np.ones((1, 1)), np.zeros(1), "data")

    def _phi(self, u: np.ndarray, value: bool = True) -> Tuple[Optional[float], np.ndarray]:
        # numpy's product overflows to inf, where the float power raises OverflowError
        return float(u[0] * u[0]) if value else None, 2.0 * u


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

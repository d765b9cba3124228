"""Differentiable objectives: least squares and the logistic loss.

Every objective is one composite f(x) = phi(M x) with an m x n matrix M:
M = A for least squares and M = Z for the logistic loss (the margins
before the labels). The 1-D probe, f(x) = x^2 / 2, is least squares
with A = [[1]] and y = [0] and has no class of its own. The base class
:class:`Objective` writes that form once. A loss supplies only phi and
phi' (``_phi(u)`` returns both) and ``_inv_curvature`` = 1 / sup phi'',
the reciprocal of phi's exact smoothness constant; value, gradient and
their images follow.

The form lets the solver carry an image of x along with x: an affine
map of x that the objective chooses, which a convex combination of
points carries to the same combination of their images. ``image(v)``
maps a point, ``image_size`` is the image's length, and
``atom_image(domain, atom)`` maps an LMO atom, from one scaled column of
M for an l1 or simplex vertex. ``value_and_gradient(x, image=w)``
evaluates f and grad f from the given image. The base class carries
u = M x (length m): phi is evaluated at u, and the gradient then needs
M^T only, one product. Least squares carries (A x, A^T (A x - y)) of
length m + n instead: f is read from the first block, as from u, and the
gradient is the second block itself, with no product; the product moves
into ``image`` and ``atom_image``, which the solver calls only at exact
refreshes and for atoms it has not seen. With ``value=False``
``value_and_gradient`` skips phi(u) and returns None for f, as
``gradient`` does: the solver asks for f only on the rows it records,
and the gradient is the same floats either way.

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
:mod:`avgfw.experiments`). Dense least squares, the 1-D probe included,
never imports it, so a dense CLI process starts without scipy.

Objectives are plain classes: the constructor stores M, M^T and the
sizes once, no method changes them afterwards, and evaluation is pure
and safe to call from any number of threads. (``Logistic`` binds scipy's
``expit`` at its first evaluation, the same function in any thread.)
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Callable, Optional, Tuple, Union

import numpy as np

from .domains import Atom, DomainSet, vertex_coordinate
from .errors import ConfigError

if TYPE_CHECKING:
    import scipy.sparse as sp

MatrixLike = Union[np.ndarray, "sp.spmatrix", "sp.sparray"]


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
    """f(x) = phi(M x). A subclass's constructor calls :meth:`_bind` once
    and supplies the loss ``_phi(u, value=True) -> (phi(u), phi'(u))``,
    with None for phi(u) when ``value`` is False, and ``_inv_curvature``,
    the reciprocal of a bound on phi''. Objectives compare and hash by
    identity."""

    _inv_curvature: float

    def _bind(self, M: MatrixLike, data: np.ndarray, name: str) -> Tuple[MatrixLike, np.ndarray]:
        """Store M, M^T, the sizes m and n, and ``image_size``, the length
        of the carried image: m, for u = M x. Return M and the data vector
        as floats, checked to hold one entry per row of M."""
        M = _as_operator(M)
        data = np.asarray(data, dtype=float)
        if data.shape != (M.shape[0],):
            raise ConfigError(f"{name} has shape {data.shape}, expected ({M.shape[0]},), one entry per row")
        self._M = M
        self._transposed = M.T.tocsr() if _issparse(M) else M.T
        self.m, self.n = M.shape
        self.image_size = self.m
        return M, data

    def _phi(self, u: np.ndarray, value: bool = True) -> Tuple[Optional[float], np.ndarray]:
        raise NotImplementedError

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


class QuadraticLS(Objective):
    """f(x) = 0.5 * ||A x - y||_2^2 with dense or CSR-sparse A. It carries
    the image (A x, A^T (A x - y)), of length ``image_size`` = m + n."""

    _inv_curvature = 1.0

    def __init__(self, A: MatrixLike, y: np.ndarray):
        self.A, self.y = self._bind(A, y, "y")
        self.image_size = self.m + self.n

    def _phi(self, u: np.ndarray, value: bool = True) -> Tuple[Optional[float], np.ndarray]:
        r = u - self.y
        return 0.5 * float(r.dot(r)) if value else None, r

    def _with_gradient(self, u: np.ndarray) -> np.ndarray:
        """(u, A^T (u - y)) in one new array: one product with A^T."""
        m = self.m
        w = np.empty(m + self.n)
        w[:m] = u
        w[m:] = self._transposed @ (u - self.y)
        return w

    def image(self, v: np.ndarray) -> np.ndarray:
        """(A v, A^T (A v - y)), affine in v: the residual's image and the
        gradient at v, the same floats as ``value_and_gradient(v)``."""
        return self._with_gradient(self.A @ v)

    def atom_image(self, domain: DomainSet, atom: Atom) -> np.ndarray:
        """(A s, A^T (A s - y)) for an LMO atom s, with A s from
        :meth:`Objective.atom_image` (one column for a vertex)."""
        return self._with_gradient(super().atom_image(domain, atom))

    def value_and_gradient(
        self, x: np.ndarray, image: Optional[np.ndarray] = None, value: bool = True
    ) -> Tuple[Optional[float], np.ndarray]:
        """f and grad f at x, or read from ``image`` = (A x, A^T (A x - y))
        when given: f from its first block, and its second block, a view,
        as the gradient, with no matrix product."""
        if image is None:
            return super().value_and_gradient(x, value=value)
        m = self.m
        return self._phi(image[:m])[0] if value else None, image[m:]


class Logistic(Objective):
    """f(x) = (1/m) sum_i log(1 + exp(-y_i z_i^T x)), labels y_i in {-1, +1}.

    Evaluated through log(1 + e^{-t}) = logaddexp(0, -t), the overflow-safe
    split between the t >= 0 and t < 0 branches.
    """

    _expit: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __init__(self, Z: MatrixLike, labels: np.ndarray):
        self.Z, self.labels = self._bind(Z, labels, "labels")
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ConfigError("labels must all be -1 or +1")
        self._neg_labels = -self.labels
        self._inv_curvature = 4.0 * self.m  # phi'' <= 1/(4m)

    def _phi(self, u: np.ndarray, value: bool = True) -> Tuple[Optional[float], np.ndarray]:
        """The mean of log(1 + e^{nt_i}) and its derivative -y_i expit(nt_i) / m,
        at the negated margins nt = -y * u. ``expit`` is bound at the first
        call, so building an instance imports no scipy."""
        expit = self._expit
        if expit is None:
            from scipy.special import expit

            self._expit = expit
        nt = self._neg_labels * u
        w = expit(nt)
        w *= self._neg_labels
        w /= self.m
        return float(np.add.reduce(np.logaddexp(0.0, nt)) / self.m) if value else None, w


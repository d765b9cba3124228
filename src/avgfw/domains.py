"""Constraint sets and their linear minimization oracles.

Four compact convex sets are supported: the l1-norm ball, the scaled
probability simplex, the centered box [-alpha, alpha]^n, and the l2-norm
ball. The first three are polyhedral: their LMO returns an extremal
vertex identified by a compact integer ``vertex_id``, which downstream
diagnostics use for support-set bookkeeping. The l2 ball is strongly
convex, returns boundary points with no vertex identity, and exists to
reproduce the boundary/interior dichotomy experiment.

Tie-breaking is deterministic everywhere: the lowest coordinate index
wins, and a sign tie at a zero gradient component resolves to the
positive vertex. ``vertex_values`` lists the vertices in an order that
reproduces exactly this rule, so its first minimum is ``lmo``'s atom.
Only this module spells the id encoding: ``lmo`` writes it,
``vertex_values`` lists it and ``vertex_coordinate`` reads it.

vertex_id encoding:
  L1Ball   +alpha*e_i -> +(i+1),  -alpha*e_i -> -(i+1)
  Simplex  alpha*e_i  -> i
  Box      corner code: bit i set iff coordinate i equals -alpha
           (code 0 is the all-positive corner). Codes are int64, so a
           box may have at most 63 coordinates (BOX_MAX_DIM); larger
           boxes are rejected at construction rather than letting the
           ids wrap and collide.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigError, DegenerateGradient, NonFiniteGradient, UnsupportedKind

BOX_BRUTEFORCE_MAX_DIM = 20
BOX_MAX_DIM = 63


class Kind(enum.Enum):
    L1_BALL = "l1_ball"
    SIMPLEX = "simplex"
    BOX = "box"
    L2_BALL = "l2_ball"


POLYHEDRAL_KINDS = (Kind.L1_BALL, Kind.SIMPLEX, Kind.BOX)


@dataclass(frozen=True)
class DomainSet:
    """A compact convex constraint set of scale ``alpha`` in R^n.

    Immutable after construction; all operations on it are pure.
    """

    kind: Kind
    alpha: float
    n: int

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ConfigError(f"alpha must be positive and finite, got {self.alpha}")
        if self.n < 1:
            raise ConfigError(f"dimension must be >= 1, got {self.n}")
        if self.kind is Kind.BOX and self.n > BOX_MAX_DIM:
            raise ConfigError(f"box dimension {self.n} exceeds {BOX_MAX_DIM}, the limit of int64 corner codes")
        object.__setattr__(self, "alpha", float(self.alpha))  # an int alpha would make int box vertices

    @property
    def is_polyhedral(self) -> bool:
        return self.kind in POLYHEDRAL_KINDS


@dataclass(frozen=True, eq=False)
class Atom:
    """An extremal point returned by an LMO.

    ``vertex_id`` is present for polyhedral kinds only and uniquely
    determines ``vector``.
    """

    vector: np.ndarray
    vertex_id: Optional[int] = None


def _check_gradient(domain: DomainSet, gradient: np.ndarray) -> Tuple[np.ndarray, int]:
    """The gradient as floats, checked for shape and finiteness, and the
    lowest index of its largest magnitude, which the l1 LMO picks."""
    g = np.asarray(gradient, dtype=float)
    if g.shape != (domain.n,):
        raise ConfigError(f"gradient has shape {g.shape}, expected ({domain.n},)")
    i = int(np.abs(g).argmax())  # argmax returns the first NaN, else the first inf, so g is finite iff g[i] is
    if not math.isfinite(g[i]):
        raise NonFiniteGradient("gradient has non-finite entries")
    return g, i


def lmo(domain: DomainSet, gradient: np.ndarray) -> Atom:
    """Minimize ``gradient . s`` over the domain and return the minimizer.

    Deterministic tie-breaking: lowest index wins; a zero gradient
    component on a signed vertex resolves to the positive sign.

    Raises
    ------
    NonFiniteGradient
        For a gradient with a NaN or infinite entry, a ConfigError.
    DegenerateGradient
        For an exactly zero gradient on the l2 ball, where the
        minimizing direction is undefined.
    """
    g, i = _check_gradient(domain, gradient)
    a = domain.alpha
    n = domain.n

    if domain.kind is Kind.L1_BALL:
        v = np.zeros(n)
        if g[i] > 0:
            v[i] = -a
            return Atom(v, -(i + 1))
        v[i] = a
        return Atom(v, i + 1)

    if domain.kind is Kind.SIMPLEX:
        i = int(g.argmin())
        v = np.zeros(n)
        v[i] = a
        return Atom(v, i)

    if domain.kind is Kind.BOX:
        neg = g > 0  # -alpha exactly where the gradient is positive; ties go positive
        return Atom(np.where(neg, -a, a), sum(1 << j for j in neg.nonzero()[0].tolist()))

    # l2 ball
    norm = math.sqrt(g.dot(g))  # what np.linalg.norm computes for a 1-D float vector
    if norm == 0.0:
        raise DegenerateGradient("zero gradient on the l2 ball")
    direction = -g / norm
    return Atom(a * direction, None)


def vertex_coordinate(domain: DomainSet, atom: Atom) -> Optional[int]:
    """The one nonzero coordinate of an l1-ball or simplex vertex, read
    from its id; None on the box and the l2 ball, whose atoms are dense."""
    if domain.kind is Kind.L1_BALL:
        return abs(atom.vertex_id) - 1
    if domain.kind is Kind.SIMPLEX:
        return atom.vertex_id
    return None


def vertex_values(domain: DomainSet, gradient: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every vertex's id and its value ``gradient . v``, in the order of
    the lmo tie-break (l1 ball: +(i+1), -(i+1) for each i ascending;
    simplex: i; box: corner codes ascending), so the first minimum is
    lmo's atom. The gradient is checked as ``lmo`` checks it; the l2
    ball and a box of more than BOX_BRUTEFORCE_MAX_DIM coordinates raise
    UnsupportedKind."""
    if not domain.is_polyhedral:
        raise UnsupportedKind("the l2 ball has no vertices")
    if domain.kind is Kind.BOX and domain.n > BOX_BRUTEFORCE_MAX_DIM:
        raise UnsupportedKind(f"box vertex enumeration limited to n <= {BOX_BRUTEFORCE_MAX_DIM}")
    g, _ = _check_gradient(domain, gradient)
    a = domain.alpha
    n = domain.n
    if domain.kind is Kind.L1_BALL:
        ids = np.arange(1, n + 1)
        return np.stack((ids, -ids), axis=1).ravel(), np.stack((a * g, -a * g), axis=1).ravel()
    if domain.kind is Kind.SIMPLEX:
        return np.arange(n), a * g
    codes = np.arange(1 << n)
    bits = np.left_shift(1, np.arange(n))
    # 8192 corners a product, so no corner matrix exceeds 8192 x 20 floats
    vals = [np.where((codes[lo : lo + 8192, None] & bits) != 0, -a, a) @ g for lo in range(0, codes.size, 8192)]
    return codes, np.concatenate(vals)


def contains(domain: DomainSet, x: np.ndarray, tol: float) -> bool:
    """Membership of ``x`` in the domain within additive tolerance ``tol``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (domain.n,):
        raise ConfigError(f"point has shape {x.shape}, expected ({domain.n},)")
    a = domain.alpha
    if domain.kind is Kind.L1_BALL:
        return float(np.sum(np.abs(x))) <= a + tol
    if domain.kind is Kind.SIMPLEX:
        return bool(np.all(x >= -tol)) and abs(float(np.sum(x)) - a) <= tol
    if domain.kind is Kind.BOX:
        return float(np.max(np.abs(x))) <= a + tol
    return float(np.linalg.norm(x)) <= a + tol

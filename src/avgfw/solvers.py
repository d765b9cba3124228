"""Discrete projection-free iterations: vanilla and LMO-averaged.

Both variants share the loop
    s_k    = LMO(grad f(x_k))
    sbar_k = sbar_{k-1} + beta_k (s_k - sbar_{k-1})     (averaged variant)
    x_{k+1} = x_k + gamma_k (d_k - x_k)
with d_k = s_k for the vanilla method and d_k = sbar_k for the averaged
one. Iterations count from k = 0; beta_0 = 1, so sbar_0 = s_0 and the
running average is a true convex combination of atoms from the first
step. Everything is deterministic given the problem and config, and a
run can be checkpointed and resumed with bitwise-identical results.

The loop takes its atoms from a source: the LMO at the current gradient
for :func:`solve` and :func:`resume`, or a prescribed stream for the
forced signal of ``flows.force_signal``. It takes (gamma_k, beta_k)
from a step rule: the discrete schedule here, or the Euler steps of
``flows``, which run the continuous-time equations through this same
loop.

Feasibility is checked once, where a point enters: an explicit x0 and
a resumed checkpoint's x. Every step after that is a convex combination
of feasible points with weights in [0, 1], so it is not checked again.

x and sbar move by convex combinations with one atom per step, so the
loop carries their images u = T(x) and ubar = T(sbar) under an affine
map T that the objective chooses (``Objective.image``), with the same
two updates, from the atom's image T(s_k); f and grad f are then
evaluated from u. For f = phi(M x), T is M, and a step costs one product
with M^T. For least squares T(x) = (A x, A^T (A x - y)) carries the
gradient too, and a step needs no product at all once its atom's image
is known.

The atom source keeps the images of the first ATOM_CACHE distinct
vertices a run meets, by vertex id; it then stops growing and evicts
nothing, and a step whose vertex is kept reuses its image. Atoms
without an id (the l2 ball) are never kept. The store belongs to one
run's source, so it lives as long as that run: at most ATOM_CACHE
images of ``image_size`` floats each, freed when the run returns. For
least squares that is 80 images of (m + n) floats: 7.04 MB at
1000 x 10000 and 0.38 MB at 100 x 500. A 1000-step run at 1000 x 10000
meets 76-115 distinct vertices (seeds 0-19), and 80 slots keep most of
the repeats. The count is not larger because the store is a run's
largest allocation after A: 128 slots raised the peak RSS of a
1000 x 10000 compare by about 6%, and a byte budget large enough to
keep every vertex at 100 x 500 (330-535 per run) raised that process's
peak by about 5%. An image is a function of its atom, so a kept image
is the same floats as a fresh one, and a run computes the same with or
without the store.

Rounding in the carried images is reset by an exact recomputation
(T(x), T(sbar)) whenever k % IMAGE_REFRESH == 0 and when a state comes
without images; such a state's images are computed once, before its
first step, which then skips its refresh. A vanilla run never moves
sbar, so it carries ubar unchanged and refreshes u alone. The refresh
keys on the absolute k and the images are part of the checkpoint, so a
chunked solve/resume matches the uninterrupted run bitwise for any
chunk size.

The loop works in two buffers it owns, (x, u) and (sbar, ubar), copied
from the start state, and updates each in place: one operation moves a
point and its image together, with the float operations of the plain
form v + w (target - v). It never writes into an atom, an atom image,
x0 or the state it was given, and the state it returns holds copies.

A step pays only for the row it records: the loop tells the atom source
whether step k is recorded, and f is evaluated, and checked for
finiteness, only then. The gradient is checked on every step, once, by
``lmo``; the atom source turns that error, like a non-finite f, into
NumericalBlowup(k). So a non-finite f is reported at the first recorded
row where it occurs, or at the first non-finite gradient, whichever
comes first. The final row is always recorded, so a run never returns
a non-finite f without raising.

The record is packed: each row's k and atom id (if any) are int64 entries
of an ``array.array``, and the row's f, gap and disc_err go in turn into
one float64 one, which :meth:`IterateTrace.packed` views; a row's step
weights follow from its k and are not recorded.
"""

from __future__ import annotations

import enum
import math
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .domains import Atom, DomainSet, contains, lmo
from .errors import ConfigError, NonFiniteGradient, NumericalBlowup
from .objectives import Objective
from .schedules import DEFAULT_SCHEDULE, Schedule, beta, gamma

IMAGE_REFRESH = 64  # steps between exact recomputations of the carried images
ATOM_CACHE = 80  # vertex images a run keeps: the first ones it meets, never evicted
FEASIBILITY_TOL_FACTOR = 1e-6  # a start point may lie this far (times alpha) outside the domain


class Variant(enum.Enum):
    FW = "fw"
    AVGFW = "avgfw"


@dataclass(frozen=True)
class SolverConfig:
    """What to run and what to record.

    x0 = None starts from the vertex LMO(grad f(0)), the standard
    projection-free initializer; pass an explicit vector to override.
    """

    variant: Variant = Variant.AVGFW
    schedule: Schedule = DEFAULT_SCHEDULE
    max_iters: int = 1000
    x0: Optional[np.ndarray] = None
    trace_every: int = 1

    def __post_init__(self):
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.trace_every < 1:
            raise ConfigError(f"trace_every must be >= 1, got {self.trace_every}")


@dataclass
class SolverState:
    """Checkpoint of a run: everything needed to continue it exactly.

    ``x`` must lie in the domain. ``s_bar`` need not: a vanilla run
    carries zeros there, and beta_0 = 1 overwrites it at k = 0.
    ``x_image`` and ``s_bar_image`` are the carried images of x and sbar
    under the objective's ``image`` map. A state without them (None) gets
    them recomputed exactly at its first step.
    """

    k: int
    x: np.ndarray
    s_bar: np.ndarray
    x_image: Optional[np.ndarray] = None
    s_bar_image: Optional[np.ndarray] = None


@dataclass
class IterateTrace:
    """Per-iteration record of every run (:func:`solve`, :func:`resume`
    and the Euler flows of ``flows``, whose row k is at t = k dt) and of
    a trace CSV read back by ``cli``.

    Row arrays hold the metrics at the recorded iterations (every
    ``trace_every`` steps plus the final one), all evaluated at x_k
    before the step: objective value, duality gap and discretization error
    ||d_k - x_k||. ``vertex_ids`` is the atom history, the vertex id of
    every iteration's atom from ``ks[0]`` to ``ks[-1]``: None unless every
    row has one and no iteration was skipped. ``ks`` and ``vertex_ids`` are
    int64, the rest float64. ``state`` is the checkpoint after the last
    iteration, None on a trace read back from CSV.
    """

    ks: np.ndarray
    f: np.ndarray
    gap: np.ndarray
    disc_err: np.ndarray
    vertex_ids: Optional[np.ndarray]
    state: Optional[SolverState]

    @classmethod
    def packed(cls, ks: array, rows: array, ids: array, state: Optional[SolverState]) -> IterateTrace:
        """The trace viewing packed buffers without a copy; ``rows`` holds
        each row's f, gap and disc_err in turn, and ``ids`` the rows' vertex
        ids, kept only as a history (every row, no k skipped)."""
        f, gap, disc_err = np.frombuffer(rows).reshape(-1, 3).T
        k = np.frombuffer(ks, dtype=np.int64)
        history = len(ids) == k.size and bool(np.all(np.diff(k) == 1))
        return cls(k, f, gap, disc_err, np.frombuffer(ids, dtype=np.int64) if history else None, state)


AtomSource = Callable[[np.ndarray, np.ndarray, int, bool], Tuple[Optional[float], np.ndarray, Atom, np.ndarray]]
ImageMap = Callable[[np.ndarray], np.ndarray]
StepRule = Callable[[int], Tuple[float, float]]


def _discrete_steps(sched: Schedule) -> StepRule:
    """The method's step rule: k -> (gamma_k, beta_k)."""
    return lambda k: (gamma(sched, k), beta(sched, k))


def _check_feasible(domain: DomainSet, x: np.ndarray, name: str) -> None:
    """Reject a start point that lies outside the domain."""
    if not contains(domain, x, FEASIBILITY_TOL_FACTOR * domain.alpha):
        raise ConfigError(f"{name} lies outside the domain ({domain.kind.value}, alpha = {domain.alpha:g})")


def _start_point(obj: Objective, domain: DomainSet, x0: Optional[np.ndarray]) -> np.ndarray:
    """Check dimensions and return the start: ``x0`` as floats, which must
    lie in the domain, or LMO(grad f(0)) when it is None. The loop copies it."""
    if obj.n != domain.n:
        raise ConfigError(f"objective dimension {obj.n} != domain dimension {domain.n}")
    if x0 is None:
        return lmo(domain, obj.gradient(np.zeros(domain.n))).vector
    x = np.asarray(x0, dtype=float)
    if x.shape != (domain.n,):
        raise ConfigError(f"x0 has shape {x.shape}, expected ({domain.n},)")
    _check_feasible(domain, x, "x0")
    return x


def _lmo_source(obj: Objective, domain: DomainSet) -> AtomSource:
    """The atom source of a real run: the gradient at x_k from its image
    u_k, with the value when the row is recorded (None otherwise), the
    LMO atom there, and the atom's image, kept for the first ATOM_CACHE
    vertex ids the run meets (80 least-squares images: at most 7.04 MB
    at 1000 x 10000)."""
    kept: Dict[int, np.ndarray] = {}

    def source(x: np.ndarray, u: np.ndarray, k: int, record: bool) -> Tuple[Optional[float], np.ndarray, Atom, np.ndarray]:
        f_k, g = obj.value_and_gradient(x, u, record)  # one call a step, by this name: bench/child.py counts it
        if record and not math.isfinite(f_k):
            raise NumericalBlowup(k)
        try:
            atom = lmo(domain, g)  # lmo's check is the one finiteness test of g
        except NonFiniteGradient:
            raise NumericalBlowup(k) from None
        u_s = kept.get(atom.vertex_id)
        if u_s is None:
            u_s = obj.atom_image(domain, atom)
            if atom.vertex_id is not None and len(kept) < ATOM_CACHE:
                kept[atom.vertex_id] = u_s
        return f_k, g, atom, u_s

    return source


def solve(obj: Objective, domain: DomainSet, cfg: SolverConfig) -> IterateTrace:
    """Run exactly ``cfg.max_iters`` iterations from the configured start."""
    x0 = _start_point(obj, domain, cfg.x0)
    state = SolverState(k=0, x=x0, s_bar=np.zeros(domain.n))
    return _run(_lmo_source(obj, domain), obj.image, _discrete_steps(cfg.schedule), cfg, state)


def resume(state: SolverState, obj: Objective, domain: DomainSet, cfg: SolverConfig) -> IterateTrace:
    """Continue from a checkpoint for ``cfg.max_iters`` further iterations.

    Bitwise-identical to the uninterrupted run split at the same point.
    A state whose x lies outside the domain raises ConfigError. A state
    without images gets them recomputed exactly, which matches
    the uninterrupted run bitwise only at a multiple of IMAGE_REFRESH and
    to rounding elsewhere.
    """
    if state.x.shape != (domain.n,) or state.s_bar.shape != (domain.n,):
        raise ConfigError("state dimension does not match the domain")
    if obj.n != domain.n:
        raise ConfigError(f"objective dimension {obj.n} != domain dimension {domain.n}")
    if state.k < 0:
        raise ConfigError(f"state iteration must be >= 0, got {state.k}")
    _check_feasible(domain, state.x, "checkpoint x")
    size = obj.image_size
    if any(u is not None and np.shape(u) != (size,) for u in (state.x_image, state.s_bar_image)):
        raise ConfigError(f"state images do not match the objective: expected shape ({size},)")
    return _run(_lmo_source(obj, domain), obj.image, _discrete_steps(cfg.schedule), cfg, state)


def _run(source: AtomSource, image: ImageMap, steps: StepRule, cfg: SolverConfig, state: SolverState) -> IterateTrace:
    """The iteration loop shared by every run; ``source(x_k, u_k, k, record)``
    returns (f_k, grad f(x_k), s_k, T(s_k)) given u_k = T(x_k), where f_k
    is read only when ``record`` says step k is a trace row (which holds
    s_k's vertex id, if any); ``image(v)`` is the affine T(v), and
    ``steps(k)`` returns (gamma_k, beta_k). The gap row is
    g . (x_k - s_k), so a source without an objective that returns NaN
    for f and g gets NaN gaps."""
    averaged = cfg.variant is Variant.AVGFW
    every = cfg.trace_every

    images = state.x_image, state.s_bar_image
    exact_at = -1  # a step at which the images are already exact, so not refreshed
    if images[0] is None or images[1] is None:  # recomputed exactly, as at a refresh
        images = image(state.x), image(state.s_bar)
        exact_at = state.k
    # The loop owns two buffers, z = (x, u) and z_bar = (sbar, ubar), so that
    # one in-place operation moves a point and its image together; dz holds
    # their steps, and its first half d_k - x_k when a row is recorded.
    n = state.x.shape[0]
    z = np.concatenate((state.x, images[0])).astype(float, copy=False)
    z_bar = np.concatenate((state.s_bar, images[1])).astype(float, copy=False)
    dz = np.empty_like(z)
    x, u, s_bar, u_bar, step, du = z[:n], z[n:], z_bar[:n], z_bar[n:], dz[:n], dz[n:]
    k_end = state.k + cfg.max_iters

    ks, rows, vids = array("q"), array("d"), array("q")

    for k in range(state.k, k_end):
        if k % IMAGE_REFRESH == 0 and k != exact_at:
            u[:] = image(x)
            if averaged:  # a vanilla run never moves sbar, so ubar stays as it came
                u_bar[:] = image(s_bar)
        record = k % every == 0 or k == k_end - 1
        f_k, g, atom, u_s = source(x, u, k, record)
        s = atom.vector
        g_k, b_k = steps(k)
        # each update is v + w * (target - v), the float operations of the plain form
        if averaged:
            np.subtract(s, s_bar, out=step)
            np.subtract(u_s, u_bar, out=du)
            dz *= b_k
            z_bar += dz
            np.subtract(z_bar, z, out=dz)
        else:
            np.subtract(s, x, out=step)
            np.subtract(u_s, u, out=du)

        if record:
            ks.append(k)
            if atom.vertex_id is not None:
                vids.append(atom.vertex_id)
            # disc_err: what np.linalg.norm computes for a 1-D float vector
            rows.extend((f_k, max(float(g.dot(x - s)), 0.0), math.sqrt(step.dot(step))))

        dz *= g_k
        z += dz

    final = SolverState(k=k_end, x=x.copy(), s_bar=s_bar.copy(), x_image=u.copy(), s_bar_image=u_bar.copy())
    return IterateTrace.packed(ks, rows, vids, final)

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
scripted runs of ``experiments.run_scripted_averaging``. It takes
(gamma_k, beta_k) from a step rule: the discrete schedule here, or the
Euler steps (dt gamma(k dt), dt beta(k dt)) of ``flows.integrate``, which
runs the continuous-time flow through this same loop.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .domains import Atom, DomainSet, lmo
from .errors import ConfigError, NumericalBlowup
from .objectives import Objective
from .schedules import DEFAULT_SCHEDULE, Schedule, beta, gamma


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
    """Checkpoint of a run: everything needed to continue it exactly."""

    k: int
    x: np.ndarray
    s_last: Optional[Atom]
    s_bar: np.ndarray


@dataclass
class IterateTrace:
    """Per-iteration record of a run.

    Row arrays hold the metrics at the recorded iterations (every
    ``trace_every`` steps plus the final one), all evaluated at x_k
    before the step: objective value, duality gap, discretization error
    ||d_k - x_k||, and the step values used. ``vertex_ids`` is the
    full per-iteration atom-id history on polyhedral domains (None on
    the l2 ball). ``state`` is the checkpoint after the last iteration,
    None on a trace read back from CSV.
    """

    ks: np.ndarray
    f: np.ndarray
    gap: np.ndarray
    disc_err: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    vertex_ids: Optional[np.ndarray]
    state: Optional[SolverState]
    k_start: int = 0


AtomSource = Callable[[np.ndarray, int], Tuple[float, np.ndarray, Atom]]
StepRule = Callable[[int], Tuple[float, float]]


def _discrete_steps(sched: Schedule) -> StepRule:
    """The method's step rule: k -> (gamma_k, beta_k)."""
    return lambda k: (gamma(sched, k), beta(sched, k))


def _start_point(obj: Objective, domain: DomainSet, x0: Optional[np.ndarray]) -> np.ndarray:
    """Check dimensions and return a fresh start: a copy of ``x0``, or
    LMO(grad f(0)) when it is None."""
    if obj.n != domain.n:
        raise ConfigError(f"objective dimension {obj.n} != domain dimension {domain.n}")
    if x0 is None:
        return lmo(domain, obj.gradient(np.zeros(domain.n))).vector.copy()
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (domain.n,):
        raise ConfigError(f"x0 has shape {x.shape}, expected ({domain.n},)")
    return x


def _lmo_source(obj: Objective, domain: DomainSet) -> AtomSource:
    """The atom source of a real run: value, gradient and LMO atom at x_k."""

    def source(x: np.ndarray, k: int) -> Tuple[float, np.ndarray, Atom]:
        f_k, g = obj.value_and_gradient(x)
        if not (np.isfinite(f_k) and np.all(np.isfinite(g))):
            raise NumericalBlowup(k)
        return f_k, g, lmo(domain, g)

    return source


def solve(obj: Objective, domain: DomainSet, cfg: SolverConfig) -> IterateTrace:
    """Run exactly ``cfg.max_iters`` iterations from the configured start."""
    x0 = _start_point(obj, domain, cfg.x0)
    state = SolverState(k=0, x=x0, s_last=None, s_bar=np.zeros(domain.n))
    return _run(_lmo_source(obj, domain), _discrete_steps(cfg.schedule), domain.is_polyhedral, cfg, state)


def resume(state: SolverState, obj: Objective, domain: DomainSet, cfg: SolverConfig) -> IterateTrace:
    """Continue from a checkpoint for ``cfg.max_iters`` further iterations.

    Bitwise-identical to the uninterrupted run split at the same point.
    """
    if state.x.shape != (domain.n,) or state.s_bar.shape != (domain.n,):
        raise ConfigError("state dimension does not match the domain")
    if obj.n != domain.n:
        raise ConfigError(f"objective dimension {obj.n} != domain dimension {domain.n}")
    if state.k < 0:
        raise ConfigError(f"state iteration must be >= 0, got {state.k}")
    fresh = SolverState(k=state.k, x=state.x.copy(), s_last=state.s_last, s_bar=state.s_bar.copy())
    return _run(_lmo_source(obj, domain), _discrete_steps(cfg.schedule), domain.is_polyhedral, cfg, fresh)


def _run(source: AtomSource, steps: StepRule, record_ids: bool, cfg: SolverConfig, state: SolverState) -> IterateTrace:
    """The iteration loop shared by every run; ``source(x_k, k)`` returns
    (f_k, grad f(x_k), s_k) and ``steps(k)`` returns (gamma_k, beta_k).
    The gap row is g . (x_k - s_k), so a source without an objective that
    returns NaN for f and g gets NaN gaps."""
    averaged = cfg.variant is Variant.AVGFW

    x = state.x
    s_bar = state.s_bar
    k_start = state.k
    k_end = k_start + cfg.max_iters

    rows_k: List[int] = []
    rows_f: List[float] = []
    rows_gap: List[float] = []
    rows_disc: List[float] = []
    rows_gamma: List[float] = []
    rows_beta: List[float] = []
    vids: List[int] = []

    last_atom = state.s_last
    for k in range(k_start, k_end):
        f_k, g, atom = source(x, k)
        last_atom = atom
        g_k, b_k = steps(k)
        if averaged:
            s_bar = s_bar + b_k * (atom.vector - s_bar)
            direction = s_bar
        else:
            direction = atom.vector

        if record_ids:
            vids.append(atom.vertex_id)

        if k % cfg.trace_every == 0 or k == k_end - 1:
            gap_k = float(np.dot(g, x - atom.vector))
            rows_k.append(k)
            rows_f.append(f_k)
            rows_gap.append(max(gap_k, 0.0))
            rows_disc.append(float(np.linalg.norm(direction - x)))
            rows_gamma.append(g_k)
            rows_beta.append(b_k)

        x = x + g_k * (direction - x)

    final = SolverState(k=k_end, x=x, s_last=last_atom, s_bar=s_bar)
    return IterateTrace(
        ks=np.array(rows_k, dtype=int),
        f=np.array(rows_f),
        gap=np.array(rows_gap),
        disc_err=np.array(rows_disc),
        gamma=np.array(rows_gamma),
        beta=np.array(rows_beta),
        vertex_ids=np.array(vids, dtype=int) if record_ids else None,
        state=final,
        k_start=k_start,
    )

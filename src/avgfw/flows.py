"""Fine-step Euler integration of the continuous-time dynamics.

The vanilla flow is  dx/dt = gamma(t) (s(t) - x(t))  with s(t) the LMO
at the current gradient; the averaged flow couples in
ds̄/dt = beta(t) (s(t) - sbar(t)) and steers x toward sbar instead.
An explicit Euler step of size dt is the method's own update with
weights dt gamma(t) and dt beta(t), so :func:`integrate` runs the
solver's iteration loop (``solvers._run``) and atom source with that
step rule; the first weight is 1, which anchors sbar at the first LMO
atom. As dt <= MAX_DT and gamma, beta <= 1, every weight lies in [0, 1],
so the iterates stay feasible with only the start point checked. Only
explicit Euler with a fixed fine step is offered: the LMO makes the
right-hand side discontinuous in x, so higher-order integrators buy
nothing and step-halving checks are the honest accuracy instrument.

``force_signal`` integrates the averaging equation alone from sbar(0) = 0
on the same loop, as vanilla steps toward a prescribed signal with weights
dt beta(t); it is the closed-form check (26/27 at c = 3, p = 1, t = 6).

Both return the loop's own :class:`~avgfw.solvers.IterateTrace`: row k is
Euler step k, at t = k dt, and ``state`` holds the iterates after the step
from t_end (the forced run's x is sbar). Its ``vertex_ids`` are the flow's
atom history on a polyhedral domain when every Euler step is a row, and
None otherwise, as for any run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .domains import Atom, DomainSet
from .errors import ConfigError, NumericalBlowup
from .objectives import Objective
from .schedules import DEFAULT_SCHEDULE, Schedule, beta, gamma
from .solvers import IterateTrace, SolverConfig, SolverState, Variant, _lmo_source, _run, _start_point

MAX_DT = 1e-2


@dataclass(frozen=True)
class FlowConfig:
    variant: Variant = Variant.AVGFW
    schedule: Schedule = DEFAULT_SCHEDULE
    t_end: float = 10.0
    dt: float = 1e-3
    record_every: Optional[float] = None  # None: a row every max(t_end / 200, 1e-3)
    x0: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.dt > MAX_DT:
            raise ConfigError(f"dt = {self.dt:g} exceeds the supported maximum {MAX_DT:g}")
        if self.dt <= 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        for key in ("t_end", "record_every"):  # each over dt counts Euler steps
            val = getattr(self, key)
            if val is None:  # record_every's default
                continue
            if val <= 0:
                raise ConfigError(f"{key} must be positive, got {val}")
            if not np.isfinite(val / self.dt):
                raise ConfigError(f"{key} / dt = {val:g} / {self.dt:g} overflows the Euler step count")


def _euler_steps(cfg: FlowConfig, variant: Variant) -> Tuple[int, SolverConfig]:
    """The number N of Euler steps to t_end, and the loop's config: N + 1
    iterations, the last for the row at t_end, with a row every
    record_every."""
    n_steps = int(round(cfg.t_end / cfg.dt))
    every = max(cfg.t_end / 200.0, 1e-3) if cfg.record_every is None else cfg.record_every
    stride = max(1, int(round(every / cfg.dt)))
    return n_steps, SolverConfig(variant, cfg.schedule, max_iters=n_steps + 1, trace_every=stride)


def integrate(obj: Objective, domain: DomainSet, cfg: FlowConfig) -> IterateTrace:
    """Euler-integrate the configured flow to t_end.

    Step k runs at t = k dt. An explicit x0 outside the domain raises
    ConfigError; each step is a convex combination of feasible points,
    so x is not checked again. A non-finite value raises NumericalBlowup
    at the Euler step where it was first seen: f is evaluated only on
    recorded steps, so that is the first recorded step at or after the
    one where f overflowed, or the first step with a non-finite gradient.
    """
    x0 = _start_point(obj, domain, cfg.x0)
    sched, dt = cfg.schedule, cfg.dt
    _, run_cfg = _euler_steps(cfg, cfg.variant)

    def steps(k: int):
        return dt * gamma(sched, k * dt), 1.0 if k == 0 else dt * beta(sched, k * dt)

    start = SolverState(k=0, x=x0, s_bar=np.zeros(domain.n))
    try:
        return _run(_lmo_source(obj, domain), obj.image, steps, run_cfg, start)
    except NumericalBlowup as err:  # f is evaluated only on recorded steps: say where it was seen, in flow terms
        raise NumericalBlowup(err.k, f"non-finite value first seen at Euler step {err.k} (t = {err.k * dt:g})") from None


def force_signal(cfg: FlowConfig, signal: Callable[[float], np.ndarray]) -> IterateTrace:
    """Integrate only  d sbar = beta(t) (signal(t) - sbar) dt  from sbar(0) = 0.

    The loop runs vanilla steps, so sbar is the trace's x and
    ``state.x`` is sbar at t_end. No objective is involved: the f and gap
    columns are NaN and disc_err records ||signal(t) - sbar(t)||, the
    averaging lag. The signal is read at t_end too, for the last row, and
    a non-finite value there makes the final sbar NaN (0 times inf in the
    zero-weight step).
    """
    sched, dt = cfg.schedule, cfg.dt
    n_steps, run_cfg = _euler_steps(cfg, Variant.FW)
    s_bar = np.zeros_like(np.atleast_1d(np.asarray(signal(0.0), dtype=float)))
    no_gradient = np.full(s_bar.shape, np.nan)
    no_image = np.empty(0)  # no objective: the image space is R^0

    def source(x: np.ndarray, u: np.ndarray, k: int, record: bool) -> Tuple[float, np.ndarray, Atom, np.ndarray]:
        return np.nan, no_gradient, Atom(np.atleast_1d(np.asarray(signal(k * dt), dtype=float))), no_image

    def steps(k: int):
        return (dt * beta(sched, k * dt), 0.0) if k < n_steps else (0.0, 0.0)  # t_end: a row, no step

    return _run(source, lambda v: no_image, steps, run_cfg, SolverState(k=0, x=s_bar, s_bar=s_bar))

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .domains import Atom, DomainSet
from .errors import ConfigError, StepTooLarge
from .objectives import Objective
from .schedules import DEFAULT_SCHEDULE, Schedule, beta, gamma
from .solvers import SolverConfig, SolverState, Variant, _lmo_source, _run, _start_point

MAX_DT = 1e-2


@dataclass(frozen=True)
class FlowConfig:
    variant: Variant = Variant.AVGFW
    schedule: Schedule = DEFAULT_SCHEDULE
    t_end: float = 10.0
    dt: float = 1e-3
    record_every: float = 0.1
    x0: Optional[np.ndarray] = None
    f_ref: float = 0.0

    def __post_init__(self):
        if self.dt > MAX_DT:
            raise StepTooLarge(MAX_DT, f"dt = {self.dt:g} exceeds the supported maximum {MAX_DT:g}")
        if self.dt <= 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.t_end <= 0:
            raise ConfigError(f"t_end must be positive, got {self.t_end}")
        if self.record_every <= 0:
            raise ConfigError(f"record_every must be positive, got {self.record_every}")


@dataclass
class FlowTrace:
    """Sampled flow metrics: t, value, gap, ||direction - x||, and h = f - f_ref.

    ``final_s_bar`` is sbar at t_end for ``force_signal`` and sbar after
    the step from t_end for ``integrate``."""

    t: np.ndarray
    f: np.ndarray
    gap: np.ndarray
    disc_err: np.ndarray
    h: np.ndarray
    final_s_bar: Optional[np.ndarray]


def integrate(obj: Objective, domain: DomainSet, cfg: FlowConfig) -> FlowTrace:
    """Euler-integrate the configured flow to t_end.

    Step k runs at t = k dt. An explicit x0 outside the domain raises
    ConfigError; each step is a convex combination of feasible points,
    so x is not checked again.
    """
    x0 = _start_point(obj, domain, cfg.x0)
    sched, dt = cfg.schedule, cfg.dt
    n_steps = int(round(cfg.t_end / dt))

    def steps(k: int):
        return dt * gamma(sched, k * dt), 1.0 if k == 0 else dt * beta(sched, k * dt)

    stride = max(1, int(round(cfg.record_every / dt)))
    run_cfg = SolverConfig(cfg.variant, sched, max_iters=n_steps + 1, trace_every=stride)
    start = SolverState(k=0, x=x0, s_bar=np.zeros(domain.n))
    trace = _run(_lmo_source(obj, domain), obj.image, steps, False, run_cfg, start)  # a flow records no vertex ids
    return FlowTrace(
        t=trace.ks * dt,
        f=trace.f,
        gap=trace.gap,
        disc_err=trace.disc_err,
        h=trace.f - cfg.f_ref,
        final_s_bar=trace.state.s_bar if cfg.variant is Variant.AVGFW else None,
    )


def force_signal(cfg: FlowConfig, signal: Callable[[float], np.ndarray]) -> FlowTrace:
    """Integrate only  d sbar = beta(t) (signal(t) - sbar) dt  from sbar(0) = 0.

    No objective is involved: the f, gap, and h columns are NaN and
    disc_err records ||signal(t) - sbar(t)||, the averaging lag. The
    signal is read at t_end too, for the last row, and a non-finite value
    there makes ``final_s_bar`` NaN (0 times inf in the zero-weight step).
    """
    sched, dt = cfg.schedule, cfg.dt
    n_steps = int(round(cfg.t_end / dt))
    s_bar = np.zeros_like(np.atleast_1d(np.asarray(signal(0.0), dtype=float)))
    no_gradient = np.full(s_bar.shape, np.nan)
    no_image = np.empty(0)  # no objective: the image space is R^0

    def source(x: np.ndarray, u: np.ndarray, k: int, record: bool) -> Tuple[float, np.ndarray, Atom, np.ndarray]:
        return np.nan, no_gradient, Atom(np.atleast_1d(np.asarray(signal(k * dt), dtype=float))), no_image

    def steps(k: int):
        return (dt * beta(sched, k * dt), 0.0) if k < n_steps else (0.0, 0.0)  # t_end: a row, no step

    stride = max(1, int(round(cfg.record_every / dt)))
    run_cfg = SolverConfig(Variant.FW, sched, max_iters=n_steps + 1, trace_every=stride)
    trace = _run(source, lambda v: no_image, steps, False, run_cfg, SolverState(k=0, x=s_bar, s_bar=s_bar))
    return FlowTrace(
        t=trace.ks * dt,
        f=trace.f,
        gap=trace.gap,
        disc_err=trace.disc_err,
        h=trace.f - cfg.f_ref,
        final_s_bar=trace.state.x,
    )

"""Fine-step Euler integration of the continuous-time dynamics.

The vanilla flow is  dx/dt = gamma(t) (s(t) - x(t))  with s(t) the LMO
at the current gradient; the averaged flow couples in
ds̄/dt = beta(t) (s(t) - sbar(t)) and steers x toward sbar instead.
An explicit Euler step of size dt is the method's own update with
weights dt gamma(t) and dt beta(t), so :func:`integrate` runs the
solver's iteration loop (``solvers._run``) with that step rule; the
first weight is 1, which anchors sbar at the first LMO atom. Only
explicit Euler with a fixed fine step is offered: the LMO makes the
right-hand side discontinuous in x, so higher-order integrators buy
nothing and step-halving checks are the honest accuracy instrument.

``force_signal`` integrates the averaging equation alone against a
prescribed signal from sbar(0) = 0. It is the separate yardstick for the
closed-form accumulation response (26/27 at c = 3, p = 1, t = 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .domains import DomainSet, contains
from .errors import ConfigError, StepTooLarge
from .objectives import Objective
from .schedules import DEFAULT_SCHEDULE, Schedule, beta_t, gamma_t
from .solvers import SolverConfig, SolverState, Variant, _lmo_source, _run, _start_point

MAX_DT = 1e-2
FEASIBILITY_TOL_FACTOR = 1e-6


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
    """Sampled flow metrics: t, value, gap, ||direction - x||, and h = f - f_ref."""

    t: np.ndarray
    f: np.ndarray
    gap: np.ndarray
    disc_err: np.ndarray
    h: np.ndarray
    final_s_bar: Optional[np.ndarray]


def integrate(obj: Objective, domain: DomainSet, cfg: FlowConfig) -> FlowTrace:
    """Euler-integrate the configured flow to t_end.

    Step k runs at t = k dt. Feasibility of x is checked every step
    within 1e-6 * alpha; drifting past that raises StepTooLarge with a
    halved suggestion.
    """
    x0 = _start_point(obj, domain, cfg.x0)
    sched, dt = cfg.schedule, cfg.dt
    n_steps = int(round(cfg.t_end / dt))
    feas_tol = FEASIBILITY_TOL_FACTOR * domain.alpha
    lmo_source = _lmo_source(obj, domain)

    def source(x: np.ndarray, u: np.ndarray, k: int):
        if k > 0 and not contains(domain, x, feas_tol):
            raise StepTooLarge(dt / 2, f"feasibility drift at t = {(k - 1) * dt:g}; retry with dt <= {dt / 2:g}")
        return lmo_source(x, u, k)

    def steps(k: int):
        return dt * gamma_t(sched, k * dt), 1.0 if k == 0 else dt * beta_t(sched, k * dt)

    stride = max(1, int(round(cfg.record_every / dt)))
    run_cfg = SolverConfig(cfg.variant, sched, max_iters=n_steps + 1, trace_every=stride)
    start = SolverState(k=0, x=x0, s_last=None, s_bar=np.zeros(domain.n))
    trace = _run(source, obj.image, steps, False, run_cfg, start)  # a flow has no use for vertex ids
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
    disc_err records ||signal(t) - sbar(t)||, the averaging lag.
    """
    sched = cfg.schedule
    dt = cfg.dt
    n_steps = int(round(cfg.t_end / dt))
    rec_stride = max(1, int(round(cfg.record_every / dt)))

    s0 = np.atleast_1d(np.asarray(signal(0.0), dtype=float))
    s_bar = np.zeros_like(s0)

    ts: List[float] = []
    lags: List[float] = []
    for step in range(n_steps + 1):
        t = step * dt
        sig = np.atleast_1d(np.asarray(signal(t), dtype=float))
        if step % rec_stride == 0 or step == n_steps:
            ts.append(t)
            lags.append(float(np.linalg.norm(sig - s_bar)))
        if step == n_steps:
            break
        s_bar = s_bar + dt * beta_t(sched, t) * (sig - s_bar)

    nan = np.full(len(ts), np.nan)
    return FlowTrace(
        t=np.array(ts),
        f=nan.copy(),
        gap=nan.copy(),
        disc_err=np.array(lags),
        h=nan.copy(),
        final_s_bar=s_bar,
    )

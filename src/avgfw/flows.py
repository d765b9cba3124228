"""Fine-step Euler integration of the continuous-time dynamics.

The vanilla flow is  dx/dt = gamma(t) (s(t) - x(t))  with s(t) the LMO
at the current gradient; the averaged flow couples in
ds̄/dt = beta(t) (s(t) - sbar(t)) and steers x toward sbar instead.
Only explicit Euler with a fixed fine step is offered: the LMO makes
the right-hand side discontinuous in x, so higher-order integrators buy
nothing and step-halving checks are the honest accuracy instrument.

``force_signal`` integrates the averaging equation alone against a
prescribed signal, the hook used to validate the closed-form
accumulation response.

The flow variant is the solver's :class:`~avgfw.solvers.Variant`, and the
start point comes from the same helper as the discrete solver's:
LMO(grad f(0)) unless an explicit x0 is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .domains import DomainSet, contains, lmo
from .errors import ConfigError, NumericalBlowup, StepTooLarge
from .objectives import Objective
from .schedules import DEFAULT_SCHEDULE, Schedule, beta_t, gamma_t
from .solvers import Variant, _start_point

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
    final_x: Optional[np.ndarray]
    final_s_bar: Optional[np.ndarray]


def integrate(obj: Objective, domain: DomainSet, cfg: FlowConfig) -> FlowTrace:
    """Euler-integrate the configured flow to t_end.

    The averaged flow initializes sbar at the first LMO atom so the state
    stays a convex combination of extreme points throughout. Feasibility
    of x is checked every step within 1e-6 * alpha; drifting past that
    raises StepTooLarge with a halved suggestion.
    """
    x = _start_point(obj, domain, cfg.x0)
    averaged = cfg.variant is Variant.AVGFW
    sched = cfg.schedule
    dt = cfg.dt
    n_steps = int(round(cfg.t_end / dt))
    rec_stride = max(1, int(round(cfg.record_every / dt)))
    feas_tol = FEASIBILITY_TOL_FACTOR * domain.alpha

    s_bar = None
    ts: List[float] = []
    fs: List[float] = []
    gaps: List[float] = []
    discs: List[float] = []

    for step in range(n_steps + 1):
        t = step * dt
        f_t, g = obj.value_and_gradient(x)
        if not (np.isfinite(f_t) and np.all(np.isfinite(g))):
            raise NumericalBlowup(step, f"non-finite value at t = {t:g}")
        atom = lmo(domain, g)
        if averaged:
            if s_bar is None:
                s_bar = atom.vector.copy()
            direction = s_bar
        else:
            direction = atom.vector

        if step % rec_stride == 0 or step == n_steps:
            ts.append(t)
            fs.append(f_t)
            gaps.append(max(float(np.dot(g, x - atom.vector)), 0.0))
            discs.append(float(np.linalg.norm(direction - x)))

        if step == n_steps:
            break
        if averaged:
            s_bar = s_bar + dt * beta_t(sched, t) * (atom.vector - s_bar)
        # x moves toward the time-t direction, not the freshly updated average
        x = x + dt * gamma_t(sched, t) * (direction - x)
        if not contains(domain, x, feas_tol):
            raise StepTooLarge(dt / 2, f"feasibility drift at t = {t:g}; retry with dt <= {dt / 2:g}")

    f_arr = np.array(fs)
    return FlowTrace(
        t=np.array(ts),
        f=f_arr,
        gap=np.array(gaps),
        disc_err=np.array(discs),
        h=f_arr - cfg.f_ref,
        final_x=x,
        final_s_bar=None if s_bar is None else s_bar.copy(),
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
        final_x=None,
        final_s_bar=s_bar,
    )

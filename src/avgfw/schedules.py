"""Step and averaging schedules.

A schedule is the pair (c, p) defining the step size gamma_k = c/(c+k)
and the averaging weight beta_k = (c/(c+k))^p. Iterations count from
k = 0, so beta_0 = 1 and the running average fully overwrites its zero
initialization on the first step; under this convention the unrolled
averaging weights sum to one exactly at every k.

Continuous-time counterparts: gamma and beta at a real time t >= 0,
alpha_t the antiderivative of beta(t) (p < 1 branch), and
accumulation(t), the closed-form response of the averaging ODE
d sbar = beta(t) (s - sbar) dt  to the constant unit signal, the
yardstick the flow integrator is validated against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, WrongBranch


@dataclass(frozen=True)
class Schedule:
    """Step/averaging parameterization; c >= 1 and 0 < p <= 1."""

    c: float
    p: float

    def __post_init__(self):
        if not (self.c >= 1):
            raise ConfigError(f"c must be >= 1, got {self.c}")
        if not (0 < self.p <= 1):
            raise ConfigError(f"p must lie in (0, 1], got {self.p}")


DEFAULT_SCHEDULE = Schedule(c=3.0, p=1.0)


@dataclass(frozen=True)
class WeightVector:
    """Unrolled averaging weights at iteration k; entry i weights atom s_i."""

    k: int
    weights: np.ndarray


def gamma(s: Schedule, k: float) -> float:
    """Step size c/(c+k); a real k = t >= 0 gives the flow's gamma(t)."""
    if k < 0:
        raise ConfigError(f"iteration index must be >= 0, got {k}")
    return s.c / (s.c + k)


def beta(s: Schedule, k: float) -> float:
    """Averaging weight (c/(c+k))^p, 1 at k = 0; a real k = t gives beta(t)."""
    if k < 0:
        raise ConfigError(f"iteration index must be >= 0, got {k}")
    return (s.c / (s.c + k)) ** s.p


def beta_array(s: Schedule, ks: np.ndarray) -> np.ndarray:
    return (s.c / (s.c + np.asarray(ks, dtype=float))) ** s.p


def unrolled_weights(s: Schedule, k: int) -> WeightVector:
    """Weights w_{k,i} such that sbar_k = sum_i w_{k,i} s_i.

    Product form w_{k,i} = beta_i * prod_{j=i+1..k} (1 - beta_j), which
    reproduces the recursion sbar_k = sbar_{k-1} + beta_k (s_k - sbar_{k-1})
    exactly and sums to one at every k (beta_0 = 1 anchors the telescoping).
    """
    if k < 0:
        raise ConfigError(f"iteration index must be >= 0, got {k}")
    if k > 10**5:
        raise ConfigError("unrolled weights limited to k <= 1e5")
    ks = np.arange(k + 1)
    betas = beta_array(s, ks)
    one_minus = 1.0 - betas
    # tail[i] = prod_{j=i+1..k} (1 - beta_j)
    tail = np.ones(k + 1)
    if k > 0:
        tail[:-1] = np.cumprod(one_minus[::-1])[:-1][::-1]
    return WeightVector(k, betas * tail)


def apply_weights(w: WeightVector, atoms: np.ndarray) -> np.ndarray:
    """Contract a (k+1, n) atom history against the weights."""
    atoms = np.asarray(atoms, dtype=float)
    if atoms.shape[0] != w.k + 1:
        raise ConfigError(f"atom history has {atoms.shape[0]} rows, expected {w.k + 1}")
    return w.weights @ atoms


def alpha_t(s: Schedule, t: float) -> float:
    """Antiderivative of beta(t) for p < 1: c^p (c+t)^(1-p) / (1-p)."""
    if s.p == 1:
        raise WrongBranch("alpha_t is defined only for p != 1")
    if t < 0:
        raise ConfigError(f"t must be >= 0, got {t}")
    return s.c**s.p * (s.c + t) ** (1.0 - s.p) / (1.0 - s.p)


def accumulation(s: Schedule, t: float) -> float:
    """Closed-form sbar(t) of the averaging ODE driven by the constant 1.

    Equals 1 - (c/(c+t))^c for p = 1 and 1 - exp(alpha(0) - alpha(t))
    otherwise; zero at t = 0 on both branches.
    """
    if t < 0:
        raise ConfigError(f"t must be >= 0, got {t}")
    if s.p == 1:
        return 1.0 - (s.c / (s.c + t)) ** s.c
    return 1.0 - np.exp(alpha_t(s, 0.0) - alpha_t(s, t))

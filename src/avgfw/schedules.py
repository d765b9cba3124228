"""Step and averaging schedules.

A schedule is the pair (c, p) defining the step size gamma_k = c/(c+k)
and the averaging weight beta_k = (c/(c+k))^p. Iterations count from
k = 0, so beta_0 = 1 and the running average fully overwrites its zero
initialization on the first step; under this convention the unrolled
averaging weights sum to one exactly at every k.

A real k = t >= 0 gives the continuous-time gamma(t) and beta(t) the
flows integrate. The unrolled averaging weights and the closed-form
response of the averaging ODE, which the tests check the loop against,
live in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError


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

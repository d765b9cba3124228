"""Projection-free convex optimization with LMO averaging.

Public surface: constraint sets and their oracles (``domains``),
objectives (``objectives``), step/averaging schedules (``schedules``),
the discrete solvers (``solvers``), continuous-time flows (``flows``),
trace diagnostics (``diagnostics``), and benchmark generators
(``experiments``). The ``avgfw`` command line drives end-to-end runs.
"""

from .domains import Atom, DomainSet, Kind, contains, lmo
from .objectives import Logistic, QuadraticLS
from .schedules import Schedule, beta, gamma
from .solvers import IterateTrace, SolverConfig, SolverState, Variant, resume, solve
from .flows import FlowConfig, force_signal, integrate
from .diagnostics import RateFit, degeneracy_delta, fit_rate, identify_manifold, support_set, support_trajectory

__all__ = [
    "Atom",
    "DomainSet",
    "Kind",
    "contains",
    "lmo",
    "Logistic",
    "QuadraticLS",
    "Schedule",
    "beta",
    "gamma",
    "IterateTrace",
    "SolverConfig",
    "SolverState",
    "Variant",
    "resume",
    "solve",
    "FlowConfig",
    "force_signal",
    "integrate",
    "RateFit",
    "degeneracy_delta",
    "fit_rate",
    "identify_manifold",
    "support_set",
    "support_trajectory",
]

__version__ = "0.1.0"

"""Shared fixtures: the benchmark compressed-sensing instance and the
expensive reference runs, computed once per session."""

import os
import subprocess
import sys

import numpy as np
import pytest

from avgfw.domains import DomainSet, Kind
from avgfw.experiments import SyntheticCSSpec, generate_cs
from avgfw.schedules import Schedule
from avgfw.solvers import SolverConfig, Variant, resume, solve

CS_SEED = 2
CS_RATE_ITERS = 5001
CS_RATE_WINDOW = (100, 5000)
MANIFOLD_ALPHA_FRAC = 0.05
MANIFOLD_ITERS = 4000
REFERENCE_ITERS = 10**5
DEFAULT_SCHED = Schedule(3.0, 1.0)
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def fresh_python():
    """Run ``code`` (with ``args`` as sys.argv[1:]) in a new interpreter with
    src/ first on the path, so nothing this test process has imported is
    loaded there; assert it exits 0 and return its stdout."""

    def run(code, *args):
        path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-c", code, *args],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run


@pytest.fixture(scope="session")
def cs_instance():
    """Noiseless 100x500 sparse-recovery instance, radius ||x0||_1."""
    spec = SyntheticCSSpec(noise_std=0.0, seed=CS_SEED)
    obj, domain, x0 = generate_cs(spec)
    return spec, obj, domain, x0


@pytest.fixture(scope="session")
def cs_rate_traces(cs_instance):
    """FW and averaged traces on the rate instance, 5001 iterations each."""
    _, obj, domain, _ = cs_instance
    fw = solve(obj, domain, SolverConfig(Variant.FW, DEFAULT_SCHED, CS_RATE_ITERS))
    avg = solve(obj, domain, SolverConfig(Variant.AVGFW, DEFAULT_SCHED, CS_RATE_ITERS))
    return fw, avg


@pytest.fixture(scope="session")
def cs_manifold_pipeline(cs_instance):
    """Boundary-regime run of the same data: a deep l1 radius puts the
    optimum on a low-dimensional facet where the working set stabilizes.

    Returns (objective, domain, the 1e5-iteration reference run, whose
    state.x serves as x_star, analyzed 4000-iteration trace). The
    reference continues the analyzed run, which resume makes bitwise
    equal to a fresh 1e5-iteration run."""
    spec, obj, _, x0 = cs_instance
    domain = DomainSet(Kind.L1_BALL, MANIFOLD_ALPHA_FRAC * float(np.sum(np.abs(x0))), spec.n_features)
    analyzed = solve(obj, domain, SolverConfig(Variant.AVGFW, DEFAULT_SCHED, MANIFOLD_ITERS))
    reference = resume(
        analyzed.state,
        obj,
        domain,
        SolverConfig(Variant.AVGFW, DEFAULT_SCHED, REFERENCE_ITERS - MANIFOLD_ITERS, trace_every=10000),
    )
    return obj, domain, reference, analyzed


@pytest.fixture(scope="session")
def small_l1_quadratic():
    """Noiseless 15x30 least squares over the tight l1 ball; f* = 0."""
    rng = np.random.default_rng(7)
    n, m = 30, 15
    x_true = np.zeros(n)
    x_true[rng.choice(n, 5, replace=False)] = rng.standard_normal(5)
    A = rng.standard_normal((m, n))
    from avgfw.domains import DomainSet, Kind
    from avgfw.objectives import QuadraticLS

    obj = QuadraticLS(A, A @ x_true)
    domain = DomainSet(Kind.L1_BALL, float(np.sum(np.abs(x_true))), n)
    return obj, domain, x_true

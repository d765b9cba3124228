"""Problem generators, scripted-trajectory runs, and svmlight ingestion.

Everything here is seed-deterministic: the same spec produces bitwise
identical data. The generators cover the three benchmark families at
desk scale: synthetic compressed sensing (sparse recovery over the l1
ball), a quadratic over the l2 ball whose constrained optimum sits on
the boundary or in the interior depending on the radius, and sparse
logistic regression fed from svmlight files (with a synthetic generator
standing in for the large public datasets). Scripted-trajectory runs
feed a prescribed atom stream through the solver's own iteration loop,
so they exercise exactly the averaged update that ``solve`` runs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .domains import Atom, DomainSet, Kind
from .errors import ConfigError, LabelError, ParseError
from .objectives import Logistic, QuadraticLS
from .schedules import Schedule
from .solvers import IterateTrace, SolverConfig, SolverState, Variant, _discrete_steps, _run


@dataclass(frozen=True)
class SyntheticCSSpec:
    """Sparse-recovery instance: y = A x0 + z with Gaussian A and noise."""

    n_features: int = 500
    m_measurements: int = 100
    sparsity_frac: float = 0.10
    noise_std: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.n_features < 1 or self.m_measurements < 1:
            raise ConfigError("dimensions must be >= 1")
        if not (0 < self.sparsity_frac <= 1):
            raise ConfigError(f"sparsity_frac must lie in (0, 1], got {self.sparsity_frac}")
        if self.noise_std < 0:
            raise ConfigError(f"noise_std must be >= 0, got {self.noise_std}")


def generate_cs(
    spec: SyntheticCSSpec, alpha: Optional[float] = None
) -> Tuple[QuadraticLS, DomainSet, np.ndarray]:
    """Build the compressed-sensing least-squares instance.

    The ground truth x0 has exactly round(sparsity_frac * n) standard
    normal entries at uniformly chosen positions. The l1-ball radius
    defaults to ||x0||_1, the tightest radius containing the truth;
    pass ``alpha`` to override (the radius is a solve-time choice, not
    part of the data).
    """
    rng = np.random.default_rng(spec.seed)
    n, m = spec.n_features, spec.m_measurements
    nnz = int(round(spec.sparsity_frac * n))
    positions = rng.choice(n, size=nnz, replace=False)
    values = rng.standard_normal(nnz)
    x0 = np.zeros(n)
    x0[positions] = values
    A = rng.standard_normal((m, n))
    z = rng.normal(0.0, spec.noise_std, m)
    y = A @ x0 + z
    radius = float(np.sum(np.abs(x0))) if alpha is None else float(alpha)
    return QuadraticLS(A, y), DomainSet(Kind.L1_BALL, radius, n), x0


class ScriptMode(enum.Enum):
    REPEATING_CYCLE = "repeating_cycle"
    RANDOM_VERTEX = "random_vertex"


@dataclass(frozen=True)
class ScriptedTrajectorySpec:
    """A prescribed atom stream, decoupled from any objective."""

    mode: ScriptMode
    vertex_pool: Sequence[Atom]
    steps: int
    seed: int = 0

    def __post_init__(self):
        if not self.vertex_pool:
            raise ConfigError("vertex_pool must be nonempty")
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        norms = [float(np.sum(np.abs(a.vector))) for a in self.vertex_pool]
        if max(norms) - min(norms) > 1e-12 * max(norms):
            raise ConfigError("pool atoms must be vertices of one l1 ball")


def run_scripted_averaging(spec: ScriptedTrajectorySpec, schedule: Schedule) -> IterateTrace:
    """Drive the averaged updates with scripted atoms instead of an LMO.

    The run goes through the solver's own iteration loop from x = 0, with
    an atom source that ignores x. There is no objective, so the f and
    gap columns are NaN and disc_err = ||sbar_k - x_k|| is the metric of
    interest. RepeatingCycle walks the pool in order; RandomVertex draws
    uniformly using the configured seed.
    """
    # the trace records vertex ids; a pool atom without one records 0
    pool = [a if a.vertex_id is not None else Atom(a.vector, 0) for a in spec.vertex_pool]
    n = pool[0].vector.shape[0]
    if spec.mode is ScriptMode.RANDOM_VERTEX:
        picks = np.random.default_rng(spec.seed).integers(0, len(pool), size=spec.steps)
    else:
        picks = np.arange(spec.steps) % len(pool)
    no_gradient = np.full(n, np.nan)
    no_image = np.empty(0)  # no objective: the image space is R^0

    def source(x: np.ndarray, u: np.ndarray, k: int, record: bool) -> Tuple[float, np.ndarray, Atom, np.ndarray]:
        return np.nan, no_gradient, pool[picks[k]], no_image

    cfg = SolverConfig(Variant.AVGFW, schedule, max_iters=spec.steps)
    start = SolverState(k=0, x=np.zeros(n), s_bar=np.zeros(n))
    return _run(source, lambda v: no_image, _discrete_steps(schedule), record_ids=True, cfg=cfg, state=start)


L2_UNCONSTRAINED_NORM = 2.44
L2_DIM = 20
L2_ROWS = 30


def generate_l2ball_quadratic(
    alpha: float, seed: int = 0
) -> Tuple[QuadraticLS, DomainSet, np.ndarray]:
    """Quadratic over the l2 ball with a known unconstrained minimizer.

    The minimizer x_unc is rescaled to norm 2.44, so alpha below that
    puts the constrained optimum on the boundary (unique LMO, decaying
    oscillation) and alpha above it leaves the optimum interior.
    Returns (objective, domain, x_unc).
    """
    if alpha <= 0:
        raise ConfigError(f"alpha must be positive, got {alpha}")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((L2_ROWS, L2_DIM))
    direction = rng.standard_normal(L2_DIM)
    x_unc = L2_UNCONSTRAINED_NORM * direction / np.linalg.norm(direction)
    y = A @ x_unc
    return QuadraticLS(A, y), DomainSet(Kind.L2_BALL, float(alpha), L2_DIM), x_unc


def load_svmlight(path: str, n_features_hint: Optional[int] = None) -> Logistic:
    """Parse an svmlight/libsvm text file into a CSR-backed logistic objective.

    One sample per line: ``label idx:val idx:val ...`` with 1-based
    indices. Labels must be -1, 0, or +1; 0 maps to -1. Feature values
    must be finite. Blank lines and lines starting with '#' are skipped.
    Features beyond the hint extend the dimension.
    """
    import scipy.sparse as sp

    labels: List[float] = []
    data: List[float] = []
    indices: List[int] = []
    indptr: List[int] = [0]
    max_col = -1

    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line.isascii():
                raise ParseError(line_no, f"line {line_no}: non-ASCII byte")
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            try:
                lab = float(tokens[0])
            except ValueError:
                raise ParseError(line_no, f"line {line_no}: bad label {tokens[0]!r}") from None
            if lab == 0.0:
                lab = -1.0
            if lab not in (-1.0, 1.0):
                raise LabelError(line_no, f"line {line_no}: label must be -1, 0, or +1, got {tokens[0]}")
            labels.append(lab)
            for tok in tokens[1:]:
                parts = tok.split(":")
                if len(parts) != 2:
                    raise ParseError(line_no, f"line {line_no}: bad feature token {tok!r}")
                try:
                    idx = int(parts[0])
                    val = float(parts[1])
                except ValueError:
                    raise ParseError(line_no, f"line {line_no}: bad feature token {tok!r}") from None
                if idx < 1:
                    raise ParseError(line_no, f"line {line_no}: indices are 1-based, got {idx}")
                if not math.isfinite(val):
                    raise ParseError(line_no, f"line {line_no}: non-finite feature value {tok!r}")
                indices.append(idx - 1)
                data.append(val)
                max_col = max(max_col, idx - 1)
            indptr.append(len(indices))

    n = max(max_col + 1, n_features_hint or 0)
    if n == 0:
        raise ParseError(0, "no features found and no dimension hint given")
    Z = sp.csr_matrix(
        (np.array(data), np.array(indices, dtype=int), np.array(indptr, dtype=int)),
        shape=(len(labels), n),
    )
    Z.sort_indices()
    return Logistic(Z, np.array(labels))


def write_svmlight(data: Logistic, path: str) -> None:
    """Inverse of :func:`load_svmlight`; values round-trip bitwise via repr."""
    import scipy.sparse as sp

    Z = data.Z.tocsr() if sp.issparse(data.Z) else sp.csr_matrix(data.Z)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for i in range(Z.shape[0]):
            lab = "+1" if data.labels[i] > 0 else "-1"
            lo, hi = Z.indptr[i], Z.indptr[i + 1]
            feats = " ".join(
                f"{Z.indices[j] + 1}:{float(Z.data[j])!r}" for j in range(lo, hi)
            )
            fh.write(f"{lab} {feats}\n" if feats else f"{lab}\n")


def train_val_split(data: Logistic, frac: float, seed: int = 0) -> Tuple[Logistic, Logistic]:
    """Seeded permutation split into floor(frac * m) and the remainder;
    both must be nonempty."""
    if not (0 < frac < 1):
        raise ConfigError(f"frac must lie in (0, 1), got {frac}")
    m = data.m
    rng = np.random.default_rng(seed)
    perm = rng.permutation(m)
    n_train = int(np.floor(frac * m))
    if not 0 < n_train < m:
        raise ConfigError(f"frac {frac} of {m} rows leaves an empty split ({n_train} train, {m - n_train} validation)")
    train_idx = np.sort(perm[:n_train])
    val_idx = np.sort(perm[n_train:])
    Z = data.Z
    return (
        Logistic(Z[train_idx], data.labels[train_idx]),
        Logistic(Z[val_idx], data.labels[val_idx]),
    )


def generate_sparse_logistic(
    m: int = 800, n: int = 1000, density: float = 0.01, seed: int = 0
) -> Logistic:
    """Desk-scale stand-in for large sparse binary classification data.

    Each row gets round(density * n) standard normal entries at uniform
    positions; labels come from a planted 20-sparse separator (rows with
    zero margin fall to +1).
    """
    import scipy.sparse as sp

    if m < 1 or n < 20 or not (0 < density <= 1):
        raise ConfigError(f"need m >= 1, n >= 20 (the 20-sparse separator) and density in (0, 1], got {m}, {n}, {density}")
    rng = np.random.default_rng(seed)
    nnz_row = max(1, int(round(density * n)))
    indices = np.empty(m * nnz_row, dtype=int)
    data = np.empty(m * nnz_row)
    indptr = np.arange(0, m * nnz_row + 1, nnz_row)
    for i in range(m):
        cols = np.sort(rng.choice(n, size=nnz_row, replace=False))
        indices[i * nnz_row : (i + 1) * nnz_row] = cols
        data[i * nnz_row : (i + 1) * nnz_row] = rng.standard_normal(nnz_row)
    Z = sp.csr_matrix((data, indices, indptr), shape=(m, n))

    w = np.zeros(n)
    support = rng.choice(n, size=20, replace=False)
    w[support] = rng.standard_normal(20)
    margins = Z @ w
    labels = np.where(margins >= 0, 1.0, -1.0)
    return Logistic(Z, labels)

"""Problem generators, svmlight ingestion, and the one grammar of input text.

Every generator here is seed-deterministic: the same spec produces bitwise
identical data. The generators cover the three benchmark families at
desk scale: synthetic compressed sensing (sparse recovery over the l1
ball), a quadratic over the l2 ball whose constrained optimum sits on
the boundary or in the interior depending on the radius, and sparse
logistic regression fed from svmlight files (with a synthetic generator
standing in for the large public datasets).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .domains import DomainSet, Kind
from .errors import ConfigError, ParseError
from .objectives import Logistic, QuadraticLS


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
        if not (self.sparsity_frac <= 1 and round(self.sparsity_frac * self.n_features) >= 1):
            raise ConfigError(f"sparsity_frac * n_features must round to 1..n_features: {self.sparsity_frac:g} * {self.n_features}")
        if self.noise_std < 0:
            raise ConfigError(f"noise_std must be >= 0, got {self.noise_std}")
        if exceeds_memory(8 * self.m_measurements * self.n_features):
            raise ConfigError(
                f"m_measurements * n_features = {self.m_measurements} * {self.n_features} is too large:"
                " a dense float64 matrix of that size exceeds physical memory"
            )


def exceeds_memory(nbytes: int) -> bool:
    """Whether ``nbytes`` is more than the machine's physical memory: the one
    size rule for data built or read here, checked before it is allocated."""
    return nbytes > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def generate_cs(spec: SyntheticCSSpec) -> Tuple[QuadraticLS, DomainSet, np.ndarray]:
    """Build the compressed-sensing least-squares instance.

    The ground truth x0 has exactly round(sparsity_frac * n) standard
    normal entries at uniformly chosen positions. The l1-ball radius is
    ||x0||_1, the tightest radius containing the truth; the radius is a
    solve-time choice, not part of the data, so a caller that wants
    another builds its own ``DomainSet(Kind.L1_BALL, radius, n)``.
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
    return QuadraticLS(A, y), DomainSet(Kind.L1_BALL, float(np.sum(np.abs(x0))), n), x0


L2_UNCONSTRAINED_NORM = 2.44
L2_DIM = 20
L2_ROWS = 30


def generate_l2ball_quadratic(seed: int = 0) -> Tuple[QuadraticLS, DomainSet, np.ndarray]:
    """Quadratic over the l2 ball with a known unconstrained minimizer.

    The minimizer x_unc is rescaled to norm 2.44, and the domain returned
    has radius ||x_unc||, the radius that splits the two regimes: one
    below it puts the constrained optimum on the boundary (unique LMO,
    decaying oscillation) and one above it leaves the optimum interior.
    The radius is a solve-time choice, so a caller that wants another
    builds its own ``DomainSet(Kind.L2_BALL, radius, n)``.
    Returns (objective, domain, x_unc).
    """
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((L2_ROWS, L2_DIM))
    direction = rng.standard_normal(L2_DIM)
    x_unc = L2_UNCONSTRAINED_NORM * direction / np.linalg.norm(direction)
    y = A @ x_unc
    return QuadraticLS(A, y), DomainSet(Kind.L2_BALL, float(np.linalg.norm(x_unc)), L2_DIM), x_unc


def text_lines(path: str, what: str) -> Iterator[Tuple[int, str]]:
    """The numbered, stripped lines of an input file: a config, an svmlight
    file or a trace CSV. A missing file raises ConfigError; every input file
    is ASCII, and another byte on any line, a comment too, raises ParseError."""
    if not os.path.isfile(path):
        raise ConfigError(f"{what} file not found: {path}")
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.isascii():
                raise ParseError(line_no, f"line {line_no}: non-ASCII byte")
            yield line_no, line.strip()


def number_text(raw: str) -> bool:
    """A number is ASCII text without ``_`` (int() and float() read other digits,
    and 1_0 as 10). Of its readers, only trace-CSV floats take nan and inf (the
    fits drop them); config values, flags and svmlight values refuse them."""
    return raw.isascii() and "_" not in raw


def integer(raw: str) -> int:
    """The int that number text spells; ValueError otherwise."""
    if not number_text(raw):
        raise ValueError(raw)
    return int(raw)


def number(raw: str) -> float:
    """The finite float that number text spells; ValueError otherwise."""
    if not (number_text(raw) and math.isfinite(val := float(raw))):
        raise ValueError(raw)
    return val


def load_svmlight(path: str, n_features_hint: Optional[int] = None) -> Logistic:
    """Parse an svmlight/libsvm text file into a CSR-backed logistic objective.

    One sample per line: ``label idx:val idx:val ...`` with 1-based
    indices. Labels must be -1, 0, or +1; 0 maps to -1. Feature values
    must be finite. Blank lines and lines starting with '#' are skipped; a
    data line is :func:`number_text`. A hint must be >= 1, and features
    beyond it extend the dimension. A line may name a feature index once, and
    the dimension must leave room in physical memory for a dense float64
    vector of that length.
    """
    import scipy.sparse as sp

    if n_features_hint is not None and n_features_hint < 1:
        raise ConfigError(f"n_features_hint must be >= 1, got {n_features_hint}")

    labels: List[float] = []
    data: List[float] = []
    indices: List[int] = []
    indptr: List[int] = [0]
    max_col, max_line = -1, 0

    for line_no, line in text_lines(path, "svmlight"):
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if not number_text(line):
            raise ParseError(line_no, f"line {line_no}: bad token {next(tok for tok in tokens if not number_text(tok))!r}")
        try:
            lab = float(tokens[0])
        except ValueError:
            raise ParseError(line_no, f"line {line_no}: bad label {tokens[0]!r}") from None
        if lab == 0.0:
            lab = -1.0
        if lab not in (-1.0, 1.0):
            raise ParseError(line_no, f"line {line_no}: label must be -1, 0, or +1, got {tokens[0]}")
        labels.append(lab)
        start = len(indices)
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
        row = indices[start:]
        if len(set(row)) < len(row):
            dup = next(i for i in row if row.count(i) > 1)
            raise ParseError(line_no, f"line {line_no}: feature index {dup + 1} repeated")
        if row and max(row) > max_col:
            max_col, max_line = max(row), line_no
        indptr.append(len(indices))

    n = max(max_col + 1, n_features_hint or 0)
    if n == 0:
        raise ParseError(0, "no features found and no dimension hint given")
    if exceeds_memory(8 * n):
        line_no = max_line if n == max_col + 1 else 0  # 0: the hint set the dimension
        where = f"line {line_no}: feature index" if line_no else "n_features_hint ="
        raise ParseError(line_no, f"{where} {n} is too large: a dense float64 vector of that length exceeds physical memory")
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
    nnz_row = max(1, int(round(density * n)))
    if exceeds_memory(16 * m * nnz_row):  # a float64 value and an int64 index per entry
        raise ConfigError(f"m * round(density * n) = {m} * {nnz_row} entries is too large: the data exceeds physical memory")
    rng = np.random.default_rng(seed)
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

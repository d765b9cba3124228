"""Post-hoc trace analysis.

Five instruments: empirical decay-rate fitting (least-squares slope of
log metric vs log iteration), the working-set trajectory (distinct atoms
from each iteration to the end), the support set of the LMO at a
gradient, the degeneracy margin of a candidate optimum on the l1 ball,
and the identification index after which every emitted atom belongs to
a support set. Each takes the arrays it reads: a trace's columns or a
series derived from one, and the gradient at x* rather than the
objective, so a caller evaluates that gradient once for all of them.

A diagnostic whose data determine no answer returns None; one asked of a
kind of input it is not defined for raises UnsupportedKind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

import numpy as np

from .domains import DomainSet, Kind, _check_gradient, vertex_values
from .errors import ConfigError, UnsupportedKind

GEOMETRIC_SUBSAMPLE_RATIO = 1.1
SUPPORT_REL_TOL = 1e-6
ZERO_COORD_FACTOR = 1e-8
MIN_FIT_POINTS = 10


@dataclass(frozen=True)
class RateFit:
    """OLS fit of log(value) on log(k): value ~ exp(intercept) * k^slope."""

    slope: float
    intercept: float
    r_squared: float


def _geometric_subsample(ks: np.ndarray) -> np.ndarray:
    keep = []
    threshold = -np.inf
    for idx, k in enumerate(ks):
        if k >= threshold:
            keep.append(idx)
            threshold = max(k * GEOMETRIC_SUBSAMPLE_RATIO, k + 1)
    return np.array(keep, dtype=int)


def fit_rate(ks: np.ndarray, values: np.ndarray, window: Tuple[int, int]) -> Optional[RateFit]:
    """Fit the empirical decay exponent of ``values``, recorded at the
    iterations ``ks``, over a window; ``values`` is a trace column or a
    series derived from one, such as ``trace.f - f_star``.

    Points are geometrically subsampled (ratio 1.1) before the fit so
    uniform recording does not overweight the tail in log space;
    nonpositive or non-finite entries are dropped, and if subsampling
    would leave fewer than 10 points the fit falls back to all positive
    points in the window. The line is the closed-form least-squares one,
    slope = sum((x - mean x)(y - mean y)) / sum((x - mean x)^2), so no
    LAPACK routine is called. None when the window [max(k_lo, 1), k_hi]
    holds fewer than 10 usable points (an empty or inverted window holds
    none), or when they all share one k.
    """
    k_lo, k_hi = window
    mask = (ks >= max(k_lo, 1)) & (ks <= k_hi) & np.isfinite(values) & (values > 0)
    ks_w = ks[mask]
    vals_w = values[mask]
    if ks_w.size < MIN_FIT_POINTS:
        return None
    idx = _geometric_subsample(ks_w)
    if idx.size >= MIN_FIT_POINTS:
        ks_w = ks_w[idx]
        vals_w = vals_w[idx]

    logk = np.log(ks_w.astype(float))
    logv = np.log(vals_w)
    if logk.min() == logk.max():
        return None
    # the least-squares line in closed form, about the means
    k_mean, v_mean = np.mean(logk), np.mean(logv)
    dk = logk - k_mean
    slope = np.dot(dk, logv - v_mean) / np.dot(dk, dk)
    intercept = v_mean - slope * k_mean
    pred = slope * logk + intercept
    ss_res = float(np.sum((logv - pred) ** 2))
    ss_tot = float(np.sum((logv - v_mean) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(float(slope), float(intercept), r2)


def support_trajectory(vertex_ids: np.ndarray) -> np.ndarray:
    """Distinct atom count from each iteration to the end of the run,
    given its atom history (a trace's ``vertex_ids``).

    Entry j counts the unique vertex ids among s_j, s_{j+1}, ..., so the
    sequence is non-increasing and starts at the total distinct count.
    """
    out = np.empty(vertex_ids.size, dtype=int)
    seen = set()
    for j in range(vertex_ids.size - 1, -1, -1):
        seen.add(int(vertex_ids[j]))
        out[j] = len(seen)
    return out


def degeneracy_delta(g: np.ndarray, domain: DomainSet, x_star: np.ndarray) -> Optional[float]:
    """Gradient-magnitude margin of the zero coordinates of x_star, given
    the gradient ``g`` at x_star.

    delta = min over zero coordinates j of  ||g||_inf - |g_j|;
    zero iff some zero coordinate ties the maximum, i.e. the problem is
    degenerate. Coordinates below 1e-8 * alpha count as zero. None when
    x_star has no zero coordinate. ``g`` is checked as by ``lmo``, and
    an ``x_star`` of another shape raises ConfigError.
    """
    if domain.kind is not Kind.L1_BALL:
        raise UnsupportedKind("degeneracy margin is defined on the l1 ball")
    g, _ = _check_gradient(domain, g)
    if np.shape(x_star) != (domain.n,):
        raise ConfigError(f"x_star has shape {np.shape(x_star)}, expected ({domain.n},)")
    zero_mask = np.abs(x_star) <= ZERO_COORD_FACTOR * domain.alpha
    if not np.any(zero_mask):
        return None
    g = np.abs(g)
    return float(np.max(g) - np.max(g[zero_mask]))


def support_set(g: np.ndarray, domain: DomainSet) -> FrozenSet[int]:
    """Vertex ids whose LMO objective at the gradient ``g`` is within
    relative tolerance 1e-6 of the best vertex value, over the vertices
    of ``domains.vertex_values``, which checks ``g`` and the domain."""
    ids, vals = vertex_values(domain, g)
    best = float(np.min(vals))
    tol = SUPPORT_REL_TOL * abs(best)
    return frozenset(ids[vals <= best + tol].tolist())


def identify_manifold(ks: np.ndarray, vertex_ids: np.ndarray, star: FrozenSet[int]) -> Optional[int]:
    """The identification index k_bar of an atom history (a trace's
    ``ks`` and ``vertex_ids``) against a support set ``star``.

    k_bar is the smallest recorded iteration such that every atom from it
    onward has a vertex id inside ``star``; None when the final atom is
    outside it or the history is empty.
    """
    j = vertex_ids.size - 1  # the last atom outside the support, -1 if none is
    while j >= 0 and int(vertex_ids[j]) in star:
        j -= 1
    return None if j == vertex_ids.size - 1 else int(ks[j + 1])


def render_report(entries: Dict[str, object]) -> str:
    """Flat ``key = value`` text block, one entry per line; None, an
    undefined entry, prints as ``none``."""
    lines = []
    for key, val in entries.items():
        if isinstance(val, float):
            val = repr(float(val))
        lines.append(f"{key} = {'none' if val is None else val}")
    return "\n".join(lines) + "\n"

"""Arithmetic of the benchmark: percentiles, self time, failure counting,
fingerprint comparison and run-to-run spread.

Pure Python with no dependency on the package under test, so it can be
tested on synthetic inputs and imported by the benchmark's parent
process and by its child processes alike.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

# Candidate tail levels in thousandths of a percent (50%, 90%, 99%, ...),
# kept integral so the rank arithmetic below is exact.
TAIL_LEVELS_MILLI = (50000, 90000, 99000, 99900, 99990, 99999)
MIN_BEYOND = 10


def nearest_rank(values_sorted: Sequence[float], level_milli: int) -> Tuple[float, int]:
    """Nearest-rank percentile of sorted values and the count ranked above it.

    The percentile at level p is the value of rank ceil(p * n), 1-based.
    """
    n = len(values_sorted)
    rank = max(1, -(-level_milli * n // 100000))
    return values_sorted[rank - 1], n - rank


def tail(values: Iterable[float]) -> Tuple[Optional[float], Optional[float]]:
    """Highest percentile level with at least ten samples beyond it.

    Returns (level in percent, value), or (None, None) when fewer than
    twenty samples leave even the median without ten samples above it.
    """
    ordered = sorted(values)
    best: Tuple[Optional[float], Optional[float]] = (None, None)
    for level in TAIL_LEVELS_MILLI:
        if not ordered:
            break
        value, beyond = nearest_rank(ordered, level)
        if beyond < MIN_BEYOND:
            break
        best = (level / 1000.0, value)
    return best


def summarize(values: Sequence[float]) -> Dict[str, Optional[float]]:
    """Median, tail level and value, sample count and total of a timing list."""
    level, value = tail(values)
    return {
        "n": len(values),
        "median": statistics.median(values) if values else None,
        "tail_pct": level,
        "tail": value,
        "total": math.fsum(values),
    }


def covered_length(intervals: Iterable[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0
    cur_start: Optional[int] = None
    cur_end = lo
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def self_times(starts: Sequence[int], ends: Sequence[int], parents: Sequence[int]) -> List[int]:
    """Each span's duration minus the time its direct children cover.

    Spans are given column-wise; ``parents[i]`` is the index of span i's
    parent or -1 for a root.
    """
    children: Dict[int, List[Tuple[int, int]]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append((starts[i], ends[i]))
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        kids = children.get(i)
        out.append((e - s) - (covered_length(kids, s, e) if kids else 0))
    return out


class Ledger:
    """Operations attempted and failed; one failure per operation at most.

    An operation is one CLI command, one set-up process or one in-process
    solve. It fails on a nonzero exit, a traceback, or a failed output check.
    """

    def __init__(self) -> None:
        self.attempted: List[str] = []
        self.failures: Dict[str, List[str]] = {}

    def attempt(self, op: str) -> str:
        if op in self.attempted:
            raise ValueError(f"operation {op!r} recorded twice")
        self.attempted.append(op)
        return op

    def fail(self, op: str, reason: str) -> None:
        if op not in self.attempted:
            raise ValueError(f"failure for unknown operation {op!r}")
        self.failures.setdefault(op, []).append(reason)

    def check(self, op: str, ok: bool, reason: str) -> bool:
        if not ok:
            self.fail(op, reason)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def fail_frac(self) -> float:
        return self.failed / len(self.attempted) if self.attempted else 0.0


def fingerprint_mismatches(
    expected: Dict[str, object], actual: Dict[str, object], rtol: float, atol: float
) -> List[str]:
    """Keys whose values disagree: floats beyond rtol/atol, anything else unequal.

    Integers (k_bar, iteration counts) and strings such as "none" must match
    exactly. A key missing on either side is a mismatch.
    """
    bad = []
    for key in sorted(set(expected) | set(actual)):
        if key not in expected or key not in actual:
            bad.append(f"{key}: expected {expected.get(key, '<missing>')}, got {actual.get(key, '<missing>')}")
            continue
        want, got = expected[key], actual[key]
        if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
            ok = math.isclose(got, want, rel_tol=rtol, abs_tol=atol)
        else:
            ok = type(want) is type(got) and want == got
        if not ok:
            bad.append(f"{key}: expected {want!r}, got {got!r}")
    return bad


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (statistics.quantiles, n=4)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med

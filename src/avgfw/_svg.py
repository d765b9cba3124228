"""Minimal static SVG line charts, written without a plotting dependency.

Good enough for the offline benchmark figures: straight polylines on a
fixed canvas, optional log-log axes (nonpositive points dropped), a few
ticks, and a legend. Output is deterministic text, streamed into an open
file: a series may come as lists or arrays, is read as arrays, and each
polyline is formatted and written a block of points at a time.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Sequence, TextIO, Tuple

import numpy as np

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 36, 48
COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
POINTS_PER_WRITE = 256


def _ticks(lo: float, hi: float, log: bool) -> List[float]:
    if log:
        lo_e, hi_e = math.floor(lo), math.ceil(hi)
        step = max(1, (hi_e - lo_e) // 5)
        return [float(e) for e in range(int(lo_e), int(hi_e) + 1, int(step))]
    if hi == lo:
        return [lo]
    raw = (hi - lo) / 4
    mag = 10 ** math.floor(math.log10(abs(raw))) if raw else 1.0
    step = round(raw / mag) * mag or mag
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-12 * abs(step):
        out.append(v)
        v += step
    return out


def _fmt(v: float, log: bool) -> str:
    if log:
        return f"1e{int(v)}"
    return f"{v:g}"


def _drawable(xs: Sequence[float], ys: Sequence[float], loglog: bool) -> Iterator[Tuple[List[float], List[float]]]:
    """The points of one series that can be drawn, POINTS_PER_WRITE rows at
    a time, as two lists of the values plotted: the finite points, and on
    log-log axes the positive ones, in log10. ``xs`` and ``ys`` may be
    lists or arrays; they are read as arrays, a block at a time."""
    xs, ys = np.asarray(xs), np.asarray(ys)
    plotted = math.log10 if loglog else float
    for lo in range(0, len(xs), POINTS_PER_WRITE):
        bx, by = xs[lo : lo + POINTS_PER_WRITE], ys[lo : lo + POINTS_PER_WRITE]
        keep = np.isfinite(bx) & np.isfinite(by)
        if loglog:
            keep &= (bx > 0) & (by > 0)
        yield list(map(plotted, bx[keep].tolist())), list(map(plotted, by[keep].tolist()))


def line_chart(
    series: Sequence[Tuple[str, Sequence[float], Sequence[float]]],
    title: str,
    xlabel: str,
    ylabel: str,
    loglog: bool = False,
    *,
    out: TextIO,
) -> None:
    """Write named (x, y) series, given as lists or arrays, as an SVG
    document into the open text file ``out``.

    Both passes read each series POINTS_PER_WRITE points at a time: the
    first takes the bounds of the drawable points, the second formats each
    polyline a block per write. No series is held as Python numbers and
    no document string is built.
    """
    bounds = [
        (min(px), max(px), min(py), max(py)) for _, xs, ys in series for px, py in _drawable(xs, ys, loglog) if px
    ]
    if not bounds:
        out.write(_head(title) + '<text x="320" y="220" text-anchor="middle">no positive data</text>\n</svg>\n')
        return

    x_lo = min(b[0] for b in bounds)
    x_hi = max(b[1] for b in bounds)
    y_lo = min(b[2] for b in bounds)
    y_hi = max(b[3] for b in bounds)
    if x_hi == x_lo:
        x_hi += 1.0
    if y_hi == y_lo:
        y_hi += 1.0

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out.write(_head(title))
    out.write(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444" stroke-width="1"/>\n'
    )
    for tx in _ticks(x_lo, x_hi, loglog):
        if not (x_lo <= tx <= x_hi):
            continue
        px = sx(tx)
        out.write(f'<line x1="{px:.1f}" y1="{MARGIN_T + plot_h}" x2="{px:.1f}" y2="{MARGIN_T + plot_h + 5}" stroke="#444"/>\n')
        out.write(
            f'<text x="{px:.1f}" y="{MARGIN_T + plot_h + 18}" text-anchor="middle" font-size="11">{_fmt(tx, loglog)}</text>\n'
        )
    for ty in _ticks(y_lo, y_hi, loglog):
        if not (y_lo <= ty <= y_hi):
            continue
        py = sy(ty)
        out.write(f'<line x1="{MARGIN_L - 5}" y1="{py:.1f}" x2="{MARGIN_L}" y2="{py:.1f}" stroke="#444"/>\n')
        out.write(
            f'<text x="{MARGIN_L - 8}" y="{py + 4:.1f}" text-anchor="end" font-size="11">{_fmt(ty, loglog)}</text>\n'
        )

    for i, (name, xs, ys) in enumerate(series):
        color = COLORS[i % len(COLORS)]
        sep = '<polyline points="'
        for px, py in _drawable(xs, ys, loglog):
            if px:
                out.write(sep + " ".join(map("{:.2f},{:.2f}".format, map(sx, px), map(sy, py))))
                sep = " "
        if sep == " ":  # a polyline was begun
            out.write(f'" fill="none" stroke="{color}" stroke-width="1.5"/>\n')
            out.write(
                f'<text x="{WIDTH - MARGIN_R - 8}" y="{MARGIN_T + 16 + 16 * i}" text-anchor="end" '
                f'font-size="12" fill="{color}">{name}</text>\n'
            )

    out.write(
        f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 10}" text-anchor="middle" font-size="12">{xlabel}</text>\n'
    )
    out.write(
        f'<text x="16" y="{MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {MARGIN_T + plot_h / 2:.1f})">{ylabel}</text>\n</svg>\n'
    )


def _head(title: str) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">\n'
        f'<text x="{WIDTH / 2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>\n'
    )

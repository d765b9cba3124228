"""Minimal static SVG line charts, written without a plotting dependency.

Good enough for the offline benchmark figures: straight polylines on a
fixed canvas, optional log-log axes (nonpositive points dropped), a few
ticks, and a legend. Output is deterministic text. A series may come as
lists or arrays; while a chart is drawn, each series is held as two lists
of its drawable coordinates, and each polyline is formatted in one pass.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 36, 48
COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]


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


def _drawable(xs: Sequence[float], ys: Sequence[float], loglog: bool) -> Tuple[List[float], List[float]]:
    """The x and y lists of the points of one series that can be drawn: the
    finite ones, and on log-log axes the positive ones, in log10. ``xs`` and
    ``ys`` may be lists or arrays; an array is read as its Python numbers."""
    px: List[float] = []
    py: List[float] = []
    for x, y in zip(_numbers(xs), _numbers(ys)):
        if not (math.isfinite(x) and math.isfinite(y)):
            continue
        if loglog:
            if x <= 0 or y <= 0:
                continue
            px.append(math.log10(x))
            py.append(math.log10(y))
        else:
            px.append(float(x))
            py.append(float(y))
    return px, py


def _numbers(values: Sequence[float]) -> Sequence[float]:
    return values.tolist() if hasattr(values, "tolist") else values


def line_chart(
    series: Sequence[Tuple[str, Sequence[float], Sequence[float]]],
    title: str,
    xlabel: str,
    ylabel: str,
    loglog: bool = False,
) -> str:
    """Render named (x, y) series, given as lists or arrays, to an SVG
    document string. Each series is held as two lists of its drawable
    coordinates, never as one object per point."""
    drawn = [(name, *_drawable(xs, ys, loglog)) for name, xs, ys in series]
    nonempty = [(px, py) for _, px, py in drawn if px]
    if not nonempty:
        body = '<text x="320" y="220" text-anchor="middle">no positive data</text>'
        return _document(title, body)

    x_lo = min(min(px) for px, _ in nonempty)
    x_hi = max(max(px) for px, _ in nonempty)
    y_lo = min(min(py) for _, py in nonempty)
    y_hi = max(max(py) for _, py in nonempty)
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

    parts: List[str] = []
    parts.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444" stroke-width="1"/>'
    )
    for tx in _ticks(x_lo, x_hi, loglog):
        if not (x_lo <= tx <= x_hi):
            continue
        px = sx(tx)
        parts.append(f'<line x1="{px:.1f}" y1="{MARGIN_T + plot_h}" x2="{px:.1f}" y2="{MARGIN_T + plot_h + 5}" stroke="#444"/>')
        parts.append(
            f'<text x="{px:.1f}" y="{MARGIN_T + plot_h + 18}" text-anchor="middle" font-size="11">{_fmt(tx, loglog)}</text>'
        )
    for ty in _ticks(y_lo, y_hi, loglog):
        if not (y_lo <= ty <= y_hi):
            continue
        py = sy(ty)
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{py:.1f}" x2="{MARGIN_L}" y2="{py:.1f}" stroke="#444"/>')
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{py + 4:.1f}" text-anchor="end" font-size="11">{_fmt(ty, loglog)}</text>'
        )

    for i, (name, px, py) in enumerate(drawn):
        if not px:
            continue
        color = COLORS[i % len(COLORS)]
        path = " ".join(map("{:.2f},{:.2f}".format, map(sx, px), map(sy, py)))
        parts.append(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{WIDTH - MARGIN_R - 8}" y="{MARGIN_T + 16 + 16 * i}" text-anchor="end" '
            f'font-size="12" fill="{color}">{name}</text>'
        )

    parts.append(
        f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 10}" text-anchor="middle" font-size="12">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {MARGIN_T + plot_h / 2:.1f})">{ylabel}</text>'
    )
    return _document(title, "\n".join(parts))


def _document(title: str, body: str) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">\n'
        f'<text x="{WIDTH / 2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>\n'
        f"{body}\n</svg>\n"
    )

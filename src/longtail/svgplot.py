"""Minimal self-contained SVG rendering for log-log plots.

Only what the bundled experiments need: decade grid lines on both axes,
point markers, optional connecting lines, and a legend. Output is a plain
SVG string built deterministically from the data, so identical inputs give
byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#e377c2",
    "#17becf",
)

MARGIN_LEFT = 70.0
MARGIN_RIGHT = 24.0
MARGIN_TOP = 40.0
MARGIN_BOTTOM = 52.0
WIDTH = 720
HEIGHT = 540
PLOT_W = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
PLOT_H = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM


@dataclass
class Series:
    label: str
    x: Sequence[float]
    y: Sequence[float]
    marker: bool = True
    line: bool = False


def _decade_range(values: list[float]) -> tuple[int, int]:
    lo = math.floor(math.log10(min(values)))
    hi = math.ceil(math.log10(max(values)))
    if lo == hi:
        lo, hi = lo - 1, hi + 1
    return lo, hi


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def loglog_svg(series: Sequence[Series], title: str, x_label: str, y_label: str) -> str:
    """Render series with positive coordinates as a log-log SVG plot."""
    xs = [float(v) for s in series for v in s.x]
    ys = [float(v) for s in series for v in s.y]
    if not xs or min(xs) <= 0 or min(ys) <= 0:
        raise ValueError("log-log plot needs at least one point and all positive coordinates")

    x_lo, x_hi = _decade_range(xs)
    y_lo, y_hi = _decade_range(ys)

    # px and py take base-10 exponents, so a decade tick sits at its integer
    # exponent even where 10.0**exponent underflows to 0.0
    def px(exponent: float) -> float:
        return MARGIN_LEFT + (exponent - x_lo) / (x_hi - x_lo) * PLOT_W

    def py(exponent: float) -> float:
        return MARGIN_TOP + PLOT_H - (exponent - y_lo) / (y_hi - y_lo) * PLOT_H

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{_fmt(WIDTH / 2)}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
    ]

    # decade grid and tick labels
    for exponent in range(x_lo, x_hi + 1):
        x = px(exponent)
        out.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(MARGIN_TOP)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(MARGIN_TOP + PLOT_H)}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(x)}" y="{_fmt(MARGIN_TOP + PLOT_H + 18)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">1e{exponent}</text>'
        )
    for exponent in range(y_lo, y_hi + 1):
        y = py(exponent)
        out.append(
            f'<line x1="{_fmt(MARGIN_LEFT)}" y1="{_fmt(y)}" x2="{_fmt(MARGIN_LEFT + PLOT_W)}" '
            f'y2="{_fmt(y)}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(MARGIN_LEFT - 8)}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">1e{exponent}</text>'
        )

    # frame and axis labels
    out.append(
        f'<rect x="{_fmt(MARGIN_LEFT)}" y="{_fmt(MARGIN_TOP)}" width="{_fmt(PLOT_W)}" '
        f'height="{_fmt(PLOT_H)}" fill="none" stroke="black" stroke-width="1"/>'
    )
    out.append(
        f'<text x="{_fmt(MARGIN_LEFT + PLOT_W / 2)}" y="{_fmt(HEIGHT - 12)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{x_label}</text>'
    )
    out.append(
        f'<text x="18" y="{_fmt(MARGIN_TOP + PLOT_H / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {_fmt(MARGIN_TOP + PLOT_H / 2)})">{y_label}</text>'
    )

    for index, s in enumerate(series):
        color = PALETTE[index % len(PALETTE)]
        points = [(px(math.log10(float(x))), py(math.log10(float(y)))) for x, y in zip(s.x, s.y)]
        if s.line and len(points) > 1:
            path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
            out.append(
                f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        if s.marker:
            for x, y in points:
                out.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="{color}"/>')

    # legend, top right inside the frame
    legend_x = MARGIN_LEFT + PLOT_W - 170
    legend_y = MARGIN_TOP + 12
    box_h = 18 * len(series) + 8
    out.append(
        f'<rect x="{_fmt(legend_x - 8)}" y="{_fmt(legend_y - 12)}" width="178" '
        f'height="{_fmt(box_h)}" fill="white" stroke="#999999" stroke-width="0.5"/>'
    )
    for index, s in enumerate(series):
        color = PALETTE[index % len(PALETTE)]
        y = legend_y + 18 * index
        out.append(f'<circle cx="{_fmt(legend_x)}" cy="{_fmt(y)}" r="3" fill="{color}"/>')
        out.append(
            f'<text x="{_fmt(legend_x + 10)}" y="{_fmt(y + 4)}" '
            f'font-family="sans-serif" font-size="11">{s.label}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"

"""Minimal self-contained SVG rendering for log-log plots.

Only what the bundled experiments need: decade grid lines on both axes,
point markers, optional connecting lines, and a legend. Output is a plain
SVG string built deterministically from the data, so identical inputs give
byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import cycle
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

# attribute sets shared by several elements, in the order they are written
GRID = {"stroke": "#dddddd", "stroke_width": 1}
TICK = {"font_family": "sans-serif", "font_size": 11}
AXIS_LABEL = {"text_anchor": "middle", "font_family": "sans-serif", "font_size": 13}


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


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _element(tag: str, text: str | list[str] | None = None, **attrs) -> str:
    """One element, and the only place markup is written: attributes keep their order, a float value gets
    two decimals, ``_`` in a name becomes ``-``, and text and values are escaped. No text closes the
    element; a list is child markup, one element a line."""
    head = tag
    for name, value in attrs.items():
        value = _escape(_fmt(value) if isinstance(value, float) else str(value)).replace('"', "&quot;")
        head += f' {name.replace("_", "-")}="{value}"'
    if text is None:
        return f"<{head}/>"
    body = "\n" + "\n".join(text) + "\n" if isinstance(text, list) else _escape(text)
    return f"<{head}>{body}</{tag}>"


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
        _element("rect", width=WIDTH, height=HEIGHT, fill="white"),
        _element("text", title, x=WIDTH / 2, y=24, text_anchor="middle", font_family="sans-serif", font_size=16),
    ]

    # decade grid and tick labels
    for exponent in range(x_lo, x_hi + 1):
        x = px(exponent)
        out.append(_element("line", x1=x, y1=MARGIN_TOP, x2=x, y2=MARGIN_TOP + PLOT_H, **GRID))
        out.append(_element("text", f"1e{exponent}", x=x, y=MARGIN_TOP + PLOT_H + 18, text_anchor="middle", **TICK))
    for exponent in range(y_lo, y_hi + 1):
        y = py(exponent)
        out.append(_element("line", x1=MARGIN_LEFT, y1=y, x2=MARGIN_LEFT + PLOT_W, y2=y, **GRID))
        out.append(_element("text", f"1e{exponent}", x=MARGIN_LEFT - 8, y=y + 4, text_anchor="end", **TICK))

    # frame and axis labels
    mid_y = MARGIN_TOP + PLOT_H / 2
    out.append(_element("rect", x=MARGIN_LEFT, y=MARGIN_TOP, width=PLOT_W, height=PLOT_H, fill="none",
                        stroke="black", stroke_width=1))
    out.append(_element("text", x_label, x=MARGIN_LEFT + PLOT_W / 2, y=HEIGHT - 12.0, **AXIS_LABEL))
    out.append(_element("text", y_label, x=18, y=mid_y, **AXIS_LABEL, transform=f"rotate(-90 18 {_fmt(mid_y)})"))

    # each series' line and markers, and its legend entry, top right inside the frame
    legend_x = MARGIN_LEFT + PLOT_W - 170
    legend_y = MARGIN_TOP + 12
    legend = [_element("rect", x=legend_x - 8, y=legend_y - 12, width=178, height=18.0 * len(series) + 8,
                       fill="white", stroke="#999999", stroke_width="0.5")]
    for index, (s, color) in enumerate(zip(series, cycle(PALETTE))):
        points = [(px(math.log10(float(x))), py(math.log10(float(y)))) for x, y in zip(s.x, s.y)]
        if s.line and len(points) > 1:
            path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
            out.append(_element("polyline", points=path, fill="none", stroke=color, stroke_width="1.5"))
        if s.marker:
            out.extend(_element("circle", cx=x, cy=y, r=3, fill=color) for x, y in points)
        y = legend_y + 18 * index
        legend += [_element("circle", cx=legend_x, cy=y, r=3, fill=color),
                   _element("text", s.label, x=legend_x + 10, y=y + 4, **TICK)]

    return _element("svg", out + legend, xmlns="http://www.w3.org/2000/svg", width=WIDTH, height=HEIGHT,
                    viewBox=f"0 0 {WIDTH} {HEIGHT}") + "\n"

"""Deterministic SVG rendering of the ratio-vector plane.

Draws the boundary hyperbola with its two asymptotes, the six border
lines, the seven anchor points, and the scenario's own ratio vector.
Byte output depends only on the scenario and the window: every
coordinate is formatted with fixed precision and no timestamps or
randomness enter the document.
"""

from __future__ import annotations

import html
import math

import numpy as np

from .errors import ValidationError
from .geometry import anchor_points, boundary_value
from .scenario import Scenario
from .shares import FACTOR_NAMES

DEFAULT_WINDOW = ((-4.0, 4.0), (-10.0, 4.0))
DEFAULT_SIZE = (800, 600)
MARGIN = 45.0
BOUNDARY_SAMPLES = 400

_FACTOR_COLORS = ("#1b7837", "#b2182b", "#2166ac")


class _NonFiniteCoordinate(Exception):
    """A coordinate the figure would write is not finite."""


def _fmt(v: float) -> str:
    if not math.isfinite(v):
        raise _NonFiniteCoordinate
    return f"{v:.3f}"


def _require_window(window) -> None:
    """Raise ValidationError unless both ranges of the window have finite
    bounds and a nonzero span (in either order)."""
    for lo, hi in window:
        span = hi - lo
        if not (math.isfinite(span) and span != 0.0):
            raise ValidationError(
                f"figure window {window!r} needs finite bounds and, on each axis, a "
                "finite nonzero span"
            )


def _transform(window):
    (sx0, sx1), (uy0, uy1) = window
    width, height = DEFAULT_SIZE
    inner_w = width - 2.0 * MARGIN
    inner_h = height - 2.0 * MARGIN

    def to_svg(x, y):
        """Pixel coordinates of plane points (floats or arrays)."""
        px = MARGIN + (x - sx0) / (sx1 - sx0) * inner_w
        py = MARGIN + (uy1 - y) / (uy1 - uy0) * inner_h
        return px, py

    return to_svg


def _line(p0, p1, attrs: str) -> str:
    """A line between the pixel points p0 and p1."""
    (x1, y1), (x2, y2) = p0, p1
    return f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" {attrs} />'


def _polyline(xy: np.ndarray, attrs: str) -> str:
    """A polyline through the pixel points xy[k] = (px, py)."""
    # "%.3f" formats a float exactly as _fmt does.
    coords = " ".join(["%.3f,%.3f"] * len(xy)) % tuple(xy.ravel().tolist())
    return f'<polyline fill="none" {attrs} points="{coords}" />'


def render_figure(scenario: Scenario, out=None, window=DEFAULT_WINDOW) -> str:
    """Render the scenario's plane to an SVG document; optionally write
    it to a file."""
    _require_window(window)
    try:
        svg = _document(scenario, window)
    except _NonFiniteCoordinate:
        raise ValidationError(f"figure window {window!r} maps a point out of float range") from None
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    return svg


# A point far outside a tiny window maps past what a float holds, which
# _fmt refuses.
@np.errstate(over="ignore", invalid="ignore")
def _document(scenario: Scenario, window) -> str:
    """The SVG text of render_figure."""
    table, vector, lines = scenario.table, scenario.vector, scenario.lines
    anchors = anchor_points(table)
    ratio = table.labor_to_capital

    (sx0, sx1), (uy0, uy1) = window
    width, height = DEFAULT_SIZE
    to_svg = _transform(window)
    pad = 0.5 * (uy1 - uy0)
    name = html.escape(scenario.name, quote=False)

    doc = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f"<title>{name}</title>",
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff" />',
        '<clipPath id="plot">'
        f'<rect x="{_fmt(MARGIN)}" y="{_fmt(MARGIN)}" '
        f'width="{_fmt(width - 2 * MARGIN)}" height="{_fmt(height - 2 * MARGIN)}" />'
        "</clipPath>",
        f'<rect x="{_fmt(MARGIN)}" y="{_fmt(MARGIN)}" width="{_fmt(width - 2 * MARGIN)}" '
        f'height="{_fmt(height - 2 * MARGIN)}" fill="none" stroke="#444444" />',
        '<g clip-path="url(#plot)">',
    ]

    # Axes through the origin.
    for x0, y0, x1, y1 in ((0.0, uy0, 0.0, uy1), (sx0, 0.0, sx1, 0.0)):
        doc.append(_line(to_svg(x0, y0), to_svg(x1, y1), 'stroke="#bbbbbb"'))
    # Asymptotes of the boundary.
    for x0, y0, x1, y1 in ((-1.0, uy0, -1.0, uy1), (sx0, -ratio, sx1, -ratio)):
        doc.append(_line(to_svg(x0, y0), to_svg(x1, y1), 'stroke="#888888" stroke-dasharray="4 4"'))

    # Boundary hyperbola: one polyline per maximal run of two or more
    # samples of a branch that stay inside the (padded) window.
    for lo, hi in ((sx0, -1.0 - 1e-6), (-1.0 + 1e-6, sx1)):
        if hi <= lo:
            continue
        step = (hi - lo) / (BOUNDARY_SAMPLES - 1)
        s = lo + np.arange(BOUNDARY_SAMPLES) * step
        u = boundary_value(s, table)
        inside = (uy0 - pad <= u) & (u <= uy1 + pad)
        # Alternating first and one-past-last indices of the runs. Only
        # the drawn samples are mapped: under a tiny span the pixel
        # coordinates of far-off samples would overflow.
        edges = np.flatnonzero(np.diff(inside, prepend=False, append=False))
        for start, end in edges.reshape(-1, 2):
            if end - start > 1:
                xy = np.stack(to_svg(s[start:end], u[start:end]), axis=-1)
                doc.append(_polyline(xy, 'stroke="#000000" stroke-width="1.8"'))

    # The six border lines: color by factor, dash by sector.
    for factor in range(3):
        for sector in range(2):
            p0 = to_svg(sx0, lines.value(factor, sector, sx0))
            p1 = to_svg(sx1, lines.value(factor, sector, sx1))
            dash = "" if sector == 0 else ' stroke-dasharray="7 3"'
            doc.append(_line(p0, p1, f'stroke="{_FACTOR_COLORS[factor]}" stroke-width="1.2"{dash}'))
    doc.append("</g>")

    # Anchors: the common point and the six per-line boundary crossings.
    qx, qy = to_svg(*anchors.q)
    doc.append(
        f'<circle class="anchor" cx="{_fmt(qx)}" cy="{_fmt(qy)}" r="4.5" fill="#000000" />'
    )
    doc.append(
        f'<text x="{_fmt(qx + 7)}" y="{_fmt(qy - 6)}" font-size="12" '
        f'font-family="sans-serif">Q</text>'
    )
    for factor in range(3):
        for sector in range(2):
            rx, ry = to_svg(*anchors.r[factor, sector])
            doc.append(
                f'<circle class="anchor" cx="{_fmt(rx)}" cy="{_fmt(ry)}" r="3.5" '
                f'fill="{_FACTOR_COLORS[factor]}" stroke="#000000" stroke-width="0.7" />'
            )
            doc.append(
                f'<text x="{_fmt(rx + 6)}" y="{_fmt(ry - 5)}" font-size="10" '
                f'font-family="sans-serif">R {FACTOR_NAMES[factor]} {sector + 1}</text>'
            )

    # The scenario's own vector.
    vx, vy = to_svg(vector.s_prime, vector.u_prime)
    doc.append(
        f'<circle class="vector" cx="{_fmt(vx)}" cy="{_fmt(vy)}" r="5.0" '
        f'fill="#7b2d8e" stroke="#000000" stroke-width="1.0" />'
    )
    doc.append(
        f'<text x="{_fmt(vx + 8)}" y="{_fmt(vy + 4)}" font-size="12" '
        f'font-family="sans-serif">{name}</text>'
    )
    doc.append("</svg>")
    return "\n".join(doc) + "\n"

"""Deterministic SVG rendering of the ratio-vector plane.

Draws the boundary hyperbola with its two asymptotes, the six border
lines, the seven anchor points, and the scenario's own ratio vector.
Byte output depends only on the scenario and the window: coordinates
have fixed precision, the boundary's written by _digits' exact "%.3f",
and no timestamps or randomness enter the document. What the window
alone fixes is built once per figure, and for DEFAULT_WINDOW at import.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from ._digits import three_decimals
from .errors import ValidationError
from .geometry import _anchors, _overflow_checked_height
from .scenario import Scenario
from .shares import FACTOR_NAMES, _finite_array

DEFAULT_WINDOW = ((-4.0, 4.0), (-10.0, 4.0))
DEFAULT_SIZE = (800, 600)
MARGIN = 45.0
BOUNDARY_SAMPLES = 400

_FACTOR_COLORS = ("#1b7837", "#b2182b", "#2166ac")
# The replacements html.escape(name, quote=False) makes, without importing
# html, whose entity table would cost every ews32 process about 0.4 MB.
# Scenario refuses the characters that XML cannot hold at all.
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _points_text(xy: np.ndarray, ends) -> str | None:
    """The text "%.3f,%.3f" % (px, py) of each point of xy (n >= 1 rows),
    joined by spaces within each run xy[ends[i - 1]:ends[i]] and by
    newlines between runs (ends increasing, the last one n); None unless
    every coordinate is certified by three_decimals."""
    words = three_decimals(xy)
    if words is None:
        return None
    # Each coordinate's separator in its last byte: a comma after x, a space
    # after y, turned into a newline after a run's last point.
    words[:, 0, 2] |= ord(",") << 24
    words[:, 1, 2] |= ord(" ") << 24
    words[np.asarray(ends) - 1, 1, 2] ^= (ord(" ") ^ ord("\n")) << 24
    # The last coordinate's separator is dropped.
    return words.tobytes()[:-1].translate(None, b"\0").decode("ascii")


_POLYLINE = '<polyline fill="none" stroke="#000000" stroke-width="1.8" points="'
_POLYLINE_END = '" />\n'


def _polylines(xy: np.ndarray, ends) -> str:
    """One boundary polyline, and a newline, per run of the pixel points
    xy as _points_text splits them."""
    points = _points_text(xy, ends)
    if points is None:
        # "%.3f" formats each run as _points_text would.
        runs = np.diff(ends, prepend=0).tolist()
        points = "\n".join([" ".join(["%.3f,%.3f"] * n) for n in runs])
        points %= tuple(xy.ravel().tolist())
    return _POLYLINE + points.replace("\n", _POLYLINE_END + _POLYLINE) + _POLYLINE_END


def _template() -> str:
    """The document as one %-format. Its arguments are the name, the 16
    coordinates of the axes and asymptotes, the boundary's polylines, the
    56 coordinates of the border lines and of the marks and their labels,
    and the name again."""
    width, height = DEFAULT_SIZE
    box = (
        f'x="{MARGIN:.3f}" y="{MARGIN:.3f}" '
        f'width="{width - 2 * MARGIN:.3f}" height="{height - 2 * MARGIN:.3f}"'
    )
    line = '<line x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f" {} />'.format
    label = '<text x="%.3f" y="%.3f" font-size="{}" font-family="sans-serif">{}</text>'.format
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        "<title>%s</title>",
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff" />',
        f'<clipPath id="plot"><rect {box} /></clipPath>',
        f'<rect {box} fill="none" stroke="#444444" />',
        '<g clip-path="url(#plot)">',
        # Axes through the origin, then the asymptotes of the boundary.
        line('stroke="#bbbbbb"'),
        line('stroke="#bbbbbb"'),
        line('stroke="#888888" stroke-dasharray="4 4"'),
        line('stroke="#888888" stroke-dasharray="4 4"'),
    ]
    # The six border lines: color by factor, dash by sector. The
    # boundary's polylines come first.
    borders = [
        line(f'stroke="{color}" stroke-width="1.2"{dash}')
        for color in _FACTOR_COLORS
        for dash in ("", ' stroke-dasharray="7 3"')
    ]
    borders[0] = "%s" + borders[0]
    # Anchors: the common point and the six per-line boundary crossings.
    marks = [
        '<circle class="anchor" cx="%.3f" cy="%.3f" r="4.5" fill="#000000" />',
        label(12, "Q"),
    ]
    for name, color in zip(FACTOR_NAMES, _FACTOR_COLORS):
        for sector in (1, 2):
            marks += [
                f'<circle class="anchor" cx="%.3f" cy="%.3f" r="3.5" fill="{color}" '
                'stroke="#000000" stroke-width="0.7" />',
                label(10, f"R {name} {sector}"),
            ]
    # The scenario's own vector.
    marks += [
        '<circle class="vector" cx="%.3f" cy="%.3f" r="5.0" fill="#7b2d8e" '
        'stroke="#000000" stroke-width="1.0" />',
        label(12, "%s"),
    ]
    return "\n".join(head + borders + ["</g>"] + marks + ["</svg>", ""])


_TEMPLATE = _template()
# Pixel offsets of the labels of Q, the six anchors R and the vector
# from their marks.
_LABEL_OFFSETS = ((7.0, -6.0),) + ((6.0, -5.0),) * 6 + ((8.0, 4.0),)
# Sample indices of a branch between two pads that repeat its end samples.
_PADDED = np.arange(-1, BOUNDARY_SAMPLES + 1).clip(0, BOUNDARY_SAMPLES - 1)


class _Frame(NamedTuple):
    """What a window alone fixes, for every figure drawn in it; the arrays
    are read-only."""

    to_svg: Callable
    # The pixel coordinates of the ends of the axes and of the asymptote
    # s' = -1.
    head: tuple[float, ...]
    # The window's abscissa range as given: the ends of the border lines.
    edges: tuple[float, float]
    # One row of padded sample abscissas per branch of the boundary.
    s: np.ndarray
    # The heights of the window padded by half its height.
    u_range: tuple[float, float]
    # Each sample's pixel abscissa, in s.ravel() order.
    px: np.ndarray


@np.errstate(over="ignore")
def _frame(window) -> _Frame:
    """The frame of the window. ValidationError unless both ranges hold
    finite numbers with a finite nonzero span, in either order, or if an
    axis or the asymptote s' = -1 maps a point out of float range.

    The samples and the mask take each range of the window low to high,
    in whichever order it is given; to_svg maps the window as given.
    Every sample's pixel abscissa lies between the pixel abscissas of the
    window's edges and of s' = -1, so it is finite when they are.
    """
    bounds = _finite_array(window)
    ranges = bounds is not None and bounds.shape == (2, 2)
    # Spans on Python floats: numpy would warn where one overflows.
    if not (ranges and all(0.0 < abs(hi - lo) < math.inf for lo, hi in bounds.tolist())):
        raise ValidationError(
            f"figure window {window!r} needs finite bounds and, on each axis, a "
            "finite nonzero span"
        )
    (sx0, sx1), (uy0, uy1) = bounds.tolist()
    width, height = DEFAULT_SIZE
    inner_w = width - 2.0 * MARGIN
    inner_h = height - 2.0 * MARGIN

    def to_svg(x, y):
        """Pixel coordinates of plane points (floats or arrays)."""
        px = MARGIN + (x - sx0) / (sx1 - sx0) * inner_w
        py = MARGIN + (uy1 - y) / (uy1 - uy0) * inner_h
        return px, py

    points = [(0.0, uy0), (0.0, uy1), (sx0, 0.0), (sx1, 0.0), (-1.0, uy0), (-1.0, uy1)]
    head = [c for x, y in points for c in to_svg(x, y)]
    if not all(map(math.isfinite, head)):
        raise _out_of_range(window)
    (lo_s, hi_s), (lo_u, hi_u) = sorted((sx0, sx1)), sorted((uy0, uy1))
    branches = [(lo, hi) for lo, hi in ((lo_s, -1.0 - 1e-6), (-1.0 + 1e-6, hi_s)) if lo < hi]
    # The pads, the first and last columns, are never inside, so that no
    # run crosses from one branch to the next.
    lo, hi = np.array(branches).reshape(-1, 2).T[:, :, np.newaxis]
    # Each sample is clipped to its branch, so it is finite and about 1e-6
    # or more from the pole, and _boundary's heights need neither test.
    # The clip moves only a sample that rounding carries past its branch's
    # end: lo + k * step overshoots by a few units in the last place, by
    # more on wider spans, from a span of about 1e10 onto the pole or
    # across it, and near 1.8e308 the product overflows.
    s = np.clip(lo + _PADDED * ((hi - lo) / (BOUNDARY_SAMPLES - 1)), lo, hi)
    px = to_svg(s.ravel(), 0.0)[0]
    pad = 0.5 * (hi_u - lo_u)
    for array in (s, px):
        array.flags.writeable = False
    return _Frame(to_svg, tuple(head), (sx0, sx1), s, (lo_u - pad, hi_u + pad), px)


def _out_of_range(window) -> ValidationError:
    return ValidationError(f"figure window {window!r} maps a point out of float range")


# DEFAULT_WINDOW is a tuple of tuples of floats, so its frame is built once.
_DEFAULT_FRAME = _frame(DEFAULT_WINDOW)


# A point far outside a tiny window maps past what a float holds, which
# render_figure refuses.
@np.errstate(over="ignore", invalid="ignore")
def render_figure(scenario: Scenario, window=DEFAULT_WINDOW) -> str:
    """The SVG document of the scenario's plane. The window is checked
    first, then the axes and asymptotes, then the boundary is sampled,
    then the rest is checked."""
    frame = _DEFAULT_FRAME if window is DEFAULT_WINDOW else _frame(window)
    table, vector, lines = scenario.table, scenario.vector, scenario.lines
    # The asymptote u' = -ratio spans the horizontal axis at its own height.
    asymptote_y = frame.to_svg(0.0, -float(table.labor_to_capital))[1]
    if not math.isfinite(asymptote_y):
        raise _out_of_range(window)
    head = (*frame.head, frame.head[4], asymptote_y, frame.head[6], asymptote_y)
    boundary = _boundary(frame, table)

    # heights[sector][factor][edge] of the border lines at both window edges.
    heights = lines.value(slice(None), slice(None), frame.edges).tolist()
    rest = [
        c
        for factor in range(3)
        for sector in range(2)
        for s, u in zip(frame.edges, heights[sector][factor])
        for c in frame.to_svg(s, u)
    ]
    # Q, the six anchors R and the vector, each with its label.
    q, r = _anchors(table)
    marks = [q, *(point for pair in r for point in pair), (vector.s_prime, vector.u_prime)]
    for (x, y), (dx, dy) in zip(marks, _LABEL_OFFSETS):
        px, py = frame.to_svg(x, y)
        rest += (px, py, px + dx, py + dy)
    if not all(map(math.isfinite, rest)):
        raise _out_of_range(window)
    name = scenario.name.translate(_XML_TEXT)
    return _TEMPLATE % (name, *head, boundary, *rest, name)


def _boundary(frame: _Frame, table) -> str:
    """The polylines of the boundary hyperbola in the frame: one per
    maximal run of two or more samples of a branch that stay inside the
    (padded) window."""
    if not frame.s.size:
        return ""
    u = _overflow_checked_height(frame.s, table)
    lo, hi = frame.u_range
    inside = (lo <= u) & (u <= hi)
    inside[:, :: BOUNDARY_SAMPLES + 1] = False
    inside = inside.ravel()
    # A sample is drawn when a neighbour is inside with it.
    drawn = np.zeros_like(inside)
    drawn[1:-1] = inside[1:-1] & (inside[:-2] | inside[2:])
    at = np.flatnonzero(drawn)
    if not at.size:
        return ""
    # Only the drawn samples' heights are mapped: under a tiny ordinate
    # span those of far-off samples would overflow.
    py = frame.to_svg(0.0, u.ravel()[at])[1]
    # A run ends at a drawn sample whose successor is not drawn.
    ends = np.flatnonzero(~drawn[at + 1]) + 1
    return _polylines(np.column_stack((frame.px[at], py)), ends)

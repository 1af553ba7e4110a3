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
from .shares import FACTOR_NAMES, _finite_array

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


def _require_window(window) -> list[list[float]]:
    """The window's two (lo, hi) ranges as floats; ValidationError unless
    both hold finite numbers with a finite nonzero span, in either order."""
    bounds = _finite_array(window)
    ranges = bounds is not None and bounds.shape == (2, 2)
    # Spans on Python floats: numpy would warn where one overflows.
    if not (ranges and all(0.0 < abs(hi - lo) < math.inf for lo, hi in bounds.tolist())):
        raise ValidationError(
            f"figure window {window!r} needs finite bounds and, on each axis, a "
            "finite nonzero span"
        )
    return bounds.tolist()


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
    coords = _points_text(xy)
    if coords is None:
        # "%.3f" formats a float exactly as _fmt does.
        coords = " ".join(["%.3f,%.3f"] * len(xy)) % tuple(xy.ravel().tolist())
    return f'<polyline fill="none" {attrs} points="{coords}" />'


# _points_text writes each coordinate as 12 bytes: three little-endian
# uint32 words taken from tables indexed by its digit groups. Leading
# zeros and an absent sign are NUL bytes, deleted from the joined text.
_WORD = np.dtype("<u4")
_GROUP = np.arange(1000)
_DIGITS = _GROUP[:, None] // np.array([100, 10, 1]) % 10 + ord("0")


def _digit_words(*columns) -> np.ndarray:
    """The uint32 words whose four bytes are the columns' entries, in order."""
    return np.column_stack(columns).astype(np.uint8).view(_WORD).ravel()


def _significant(units: int) -> np.ndarray:
    """_DIGITS with each leading zero NUL; the units digit stays from `units` up."""
    return np.where(_GROUP[:, None] >= np.array([100, 10, units]), _DIGITS, 0)


_NUL = np.zeros(1000, dtype=int)
# Sign and digits of the integer part's thousands group, indexed by the
# group plus 1000 for a negative coordinate. A group of 0 writes only the sign.
_HIGH = np.concatenate(
    [_digit_words(_NUL, _significant(1)), _digit_words(_NUL + ord("-"), _significant(1))]
)
# The integer part's last three digits and the point, indexed by the group
# plus 1000 when a thousands group precedes it, so that its zeros are kept.
_MIDDLE = np.concatenate(
    [_digit_words(_significant(0), _NUL + ord(".")), _digit_words(_DIGITS, _NUL + ord("."))]
)
# The three decimals; the separator that follows is added as the fourth byte.
_LOW = _digit_words(_DIGITS, _NUL)
_SEPARATORS = np.array([ord(","), ord(" ")], dtype=_WORD) << 24


def _points_text(xy: np.ndarray) -> str | None:
    """The text "%.3f,%.3f" % (px, py) of each point of xy (n >= 1 rows),
    joined by spaces; None unless every coordinate is certified.

    With p = |v| * 1000 rounded to a float and n = rint(p), a coordinate
    is certified when n < 10**9 and p is not a half-integer. Every
    half-integer below 10**9 is a float and rounding to the nearest float
    is monotone, so the exact product lies on p's side of each of them: it
    is no tie and rounds to n, as "%.3f" rounds it. The sign comes from the
    sign bit, so -0.0 writes "-0.000". Non-finite values and |v| that
    rounds to 10**6 or more are not certified.
    """
    a = np.abs(xy)
    # rint(p) < 10**9 exactly when p < 999999999.5, which nan and inf fail.
    if not float(a.max()) * 1000.0 < 999_999_999.5:
        return None
    p = a * 1000.0
    n = np.rint(p)
    # p - n is exact, and 0.5 in size only where p is a half-integer.
    if not np.abs(p - n).max() < 0.5:
        return None
    whole, frac = np.divmod(n.astype(np.int64), 1000)
    high, middle = np.divmod(whole, 1000)
    np.add(high, 1000, out=high, where=np.signbit(xy))
    words = np.empty(xy.shape + (3,), dtype=_WORD)
    words[..., 0] = _HIGH[high]
    # whole < 1000 is its own last group; past it, the group plus 1000.
    words[..., 1] = _MIDDLE[np.minimum(whole, middle + 1000)]
    np.add(_LOW[frac], _SEPARATORS, out=words[..., 2])
    # The last coordinate's separator is dropped.
    return words.tobytes()[:-1].translate(None, b"\0").decode("ascii")


def render_figure(scenario: Scenario, window=DEFAULT_WINDOW) -> str:
    """The SVG document of the scenario's plane."""
    try:
        return _document(scenario, _require_window(window))
    except _NonFiniteCoordinate:
        raise ValidationError(f"figure window {window!r} maps a point out of float range") from None


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
        # The in-window mask between two False pads, so that each run
        # starts and ends at a change of value.
        inside = np.zeros(BOUNDARY_SAMPLES + 2, dtype=bool)
        np.logical_and(uy0 - pad <= u, u <= uy1 + pad, out=inside[1:-1])
        # Alternating first and one-past-last indices of the runs. Only
        # the drawn samples are mapped: under a tiny span the pixel
        # coordinates of far-off samples would overflow.
        edges = np.flatnonzero(inside[1:] != inside[:-1])
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

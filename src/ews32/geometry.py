"""Geometry of the normalized substitution plane.

The feasible set of ratio vectors is bounded by a rectangular hyperbola
through the origin. Six lines, one per (factor, sector) pair, cut the
feasible set into 12 subregions, five on the positive side of the
boundary and seven on the negative side. All six lines meet in a single
point Q on the boundary; each also crosses the boundary once more at its
own anchor point R. A vector's subregion is read off from the signs of
its vertical offsets to the six lines plus the sign of its denominator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import AsymptotePole, Infeasible, OnLine, UnmatchedSignature
from .shares import CAPITAL, LABOR, LAND, ShareTable, _readonly, require_ranking
from .substitution import EwsRatioVector

# A vector this close to a line (or the boundary asymptote) has no
# defined sign pattern; we refuse rather than guess.
ON_LINE_TOL = 1e-12


class Subregion(enum.Enum):
    P1 = "P1"
    P2 = "P2"
    P3 = "P3"
    P4 = "P4"
    P5 = "P5"
    M1 = "M1"
    M2 = "M2"
    M3 = "M3"
    M4 = "M4"
    M5 = "M5"
    M6 = "M6"
    M7 = "M7"

    @property
    def sign_t(self) -> int:
        """Denominator sign on this side of the boundary."""
        return 1 if self.value.startswith("P") else -1


# Offset-sign signature of each subregion: rows are the sector-1 and
# sector-2 line families, columns the (land, capital, labor) lines.
# P5 and M1 share the all-positive signature and are separated only by
# the denominator sign.
SIGNATURES: dict[Subregion, tuple[tuple[int, ...], tuple[int, ...]]] = {
    Subregion.P1: ((-1, 1, -1), (-1, 1, -1)),
    Subregion.P2: ((-1, 1, 1), (-1, 1, -1)),
    Subregion.P3: ((-1, 1, 1), (-1, 1, 1)),
    Subregion.P4: ((-1, 1, 1), (1, 1, 1)),
    Subregion.P5: ((1, 1, 1), (1, 1, 1)),
    Subregion.M1: ((1, 1, 1), (1, 1, 1)),
    Subregion.M2: ((1, 1, 1), (1, -1, 1)),
    Subregion.M3: ((1, -1, 1), (1, -1, 1)),
    Subregion.M4: ((1, -1, -1), (1, -1, 1)),
    Subregion.M5: ((1, -1, -1), (1, -1, -1)),
    Subregion.M6: ((1, -1, -1), (-1, -1, -1)),
    Subregion.M7: ((-1, -1, -1), (-1, -1, -1)),
}

REGIONS = tuple(Subregion)
_ALL = slice(None)

# A 7-bit signature code: bit 3 * sector + factor set for a positive
# offset to line (factor, sector), bit 6 for a positive denominator.
_OFFSET_BITS = 1 << np.arange(6).reshape(2, 3)
_POSITIVE_T_BIT = 1 << 6


def _signature_code(offsets: np.ndarray, sign_t) -> np.ndarray:
    """Signature codes of offsets[..., sector, factor] and denominator
    signs over the same leading axes."""
    positive = np.greater(sign_t, 0)
    return ((offsets > 0.0) * _OFFSET_BITS).sum(axis=(-2, -1)) + _POSITIVE_T_BIT * positive


# Index into REGIONS of each signature code; -1 where no subregion has it.
_REGION_BY_CODE = np.full(2 * _POSITIVE_T_BIT, -1)
_REGION_BY_CODE[
    [int(_signature_code(np.array(SIGNATURES[r]), r.sign_t)) for r in REGIONS]
] = np.arange(len(REGIONS))


@dataclass(frozen=True)
class LineCoeffs:
    """Coefficients (a, b, e) of the six border lines, each evaluated as
    u = (a * s + b) / e; indexed abe[factor, sector]."""

    abe: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "abe", _readonly(self.abe))

    def value(self, factor, sector, s_prime):
        """Height of line (factor, sector) at s_prime; with slices for
        both factor and sector, heights shaped [..., sector, factor]."""
        a, b, e = self.abe[factor, sector].T
        return (a * s_prime + b) / e

    def offsets(self, s_prime, u_prime) -> np.ndarray:
        """Vertical offsets of points over leading axes to all six lines,
        shaped (..., sector, factor)."""
        s = np.asarray(s_prime, dtype=float)[..., np.newaxis, np.newaxis]
        u = np.asarray(u_prime, dtype=float)[..., np.newaxis, np.newaxis]
        return u - self.value(_ALL, _ALL, s)


@dataclass(frozen=True)
class AnchorSet:
    """Common intersection q and the per-line boundary anchors
    r[factor, sector] = (x, y)."""

    q: tuple[float, float]
    r: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "r", _readonly(self.r))


@dataclass(frozen=True)
class OrderingReport:
    """Strict left-to-right orderings of the anchor abscissas."""

    capital_chain: tuple[float, float, float]
    land_labor_chain: tuple[float, float, float, float, float]

    @property
    def capital_ok(self) -> bool:
        a, b, c = self.capital_chain
        return a < b < c

    @property
    def land_labor_ok(self) -> bool:
        return all(x < y for x, y in zip(self.land_labor_chain, self.land_labor_chain[1:]))

    @property
    def ok(self) -> bool:
        return self.capital_ok and self.land_labor_ok


def _boundary_height(s_prime, table: ShareTable):
    """Height of the boundary hyperbola at s_prime over leading axes, with
    no test for the pole at s_prime = -1."""
    return -table.labor_to_capital * s_prime / (s_prime + 1.0)


def boundary_value(s_prime, table: ShareTable):
    """Height of the boundary hyperbola at s_prime: a float for a float,
    an array for an array of abscissas. Raises AsymptotePole if any
    abscissa sits on the pole."""
    if np.any(np.abs(s_prime + 1.0) <= ON_LINE_TOL):
        raise AsymptotePole("boundary curve has a pole at s_prime = -1")
    return _boundary_height(s_prime, table)


def line_coefficients(table: ShareTable) -> LineCoeffs:
    """Closed-form coefficients of the six border lines.

    The line for (factor, sector) is built from the other sector's
    shares: it marks where that factor's output response in that sector
    changes sign.
    """
    require_ranking(table)
    a, b, e = table.diff
    tf = table.theta_factor
    abe = np.empty((3, 2, 3))
    for sector in range(2):
        other = 1 - sector
        th = table.theta[:, other]
        lm = table.lam[:, other]
        ts = table.theta_sector[other]
        abe[LAND, sector] = (
            a * (ts / tf[CAPITAL]) * (1.0 - th[LAND]),
            -b * lm[CAPITAL],
            e * lm[LABOR],
        )
        abe[CAPITAL, sector] = (
            a * lm[LAND],
            -b * (ts / tf[LAND]) * (1.0 - th[CAPITAL]),
            -e * (tf[CAPITAL] / tf[LAND]) * lm[LABOR],
        )
        abe[LABOR, sector] = (
            -a * (tf[LABOR] / tf[CAPITAL]) * lm[LAND],
            -b * (tf[LABOR] / tf[LAND]) * lm[CAPITAL],
            -e * (ts / tf[LAND]) * (1.0 - th[LABOR]),
        )
    return LineCoeffs(abe=abe)


def anchor_points(table: ShareTable) -> AnchorSet:
    """The common point q of all six lines and each line's second
    boundary crossing."""
    require_ranking(table)
    a, b, e = table.diff
    ratio = table.labor_to_capital
    q = (b / a, (b / e) * ratio)
    r = np.empty((3, 2, 2))
    for sector in range(2):
        th = table.theta[:, 1 - sector]
        r[LAND, sector] = (
            -th[CAPITAL] / (1.0 - th[LAND]),
            (th[CAPITAL] / th[LABOR]) * ratio,
        )
        r[CAPITAL, sector] = (
            -(1.0 - th[CAPITAL]) / th[LAND],
            -((1.0 - th[CAPITAL]) / th[LABOR]) * ratio,
        )
        r[LABOR, sector] = (
            th[CAPITAL] / th[LAND],
            (-th[CAPITAL] / (1.0 - th[LABOR])) * ratio,
        )
    return AnchorSet(q=q, r=r)


def verify_anchor_ordering(anchors: AnchorSet, table: ShareTable) -> OrderingReport:
    """Collect the two abscissa chains the ranking assumptions force."""
    capital_chain = (
        float(anchors.r[CAPITAL, 0, 0]),
        float(anchors.r[CAPITAL, 1, 0]),
        anchors.q[0],
    )
    land_labor_chain = (
        float(anchors.r[LAND, 0, 0]),
        float(anchors.r[LAND, 1, 0]),
        0.0,
        float(anchors.r[LABOR, 1, 0]),
        float(anchors.r[LABOR, 0, 0]),
    )
    return OrderingReport(capital_chain=capital_chain, land_labor_chain=land_labor_chain)


# Ways a ratio vector can fail to classify, in checking order.
_CLASSIFY_FAULTS = (
    (Infeasible, "ratio vector sits on the boundary asymptote"),
    (
        Infeasible,
        "positive-denominator vectors must lie strictly above the boundary "
        "right of its pole",
    ),
    (
        Infeasible,
        "negative-denominator vectors must lie strictly below the boundary "
        "left of its pole",
    ),
    (OnLine, "ratio vector sits on a border line; no sign pattern is defined there"),
    (UnmatchedSignature, "offset signature {} with denominator sign {:+d} matches no subregion"),
)
_ON_LINE_FAULT = 1 + [cls for cls, _ in _CLASSIFY_FAULTS].index(OnLine)


def _infeasible(s_prime, u_prime, sign_t, table: ShareTable) -> list:
    """Failure flags of the feasibility checks, in _CLASSIFY_FAULTS
    order, for ratio vectors over leading axes: a vector must lie
    strictly inside its side of the boundary."""
    positive = np.greater(sign_t, 0)
    # The pole test comes first, so the division by zero there is moot.
    with np.errstate(divide="ignore", invalid="ignore"):
        height = _boundary_height(s_prime, table)
    above = np.greater(s_prime, -1.0) & (u_prime > height + ON_LINE_TOL)
    below = np.less(s_prime, -1.0) & (u_prime < height - ON_LINE_TOL)
    return [np.abs(s_prime + 1.0) <= ON_LINE_TOL, positive & ~above, ~positive & ~below]


def _classify(s_prime, u_prime, sign_t, lines: LineCoeffs, table: ShareTable):
    """Classify ratio vectors (s', u', sign of t) over leading axes.

    Returns the index into REGIONS of each vector's subregion (-1 where
    none matches), the failure flags of the classification checks in
    _CLASSIFY_FAULTS order (feasibility, then border lines, then the
    signature lookup), and the line offsets [..., sector, factor].
    """
    offsets = lines.offsets(s_prime, u_prime)
    region = _REGION_BY_CODE[_signature_code(offsets, sign_t)]
    failed = _infeasible(s_prime, u_prime, sign_t, table) + [
        np.abs(offsets).min(axis=(-2, -1)) <= ON_LINE_TOL,
        region < 0,
    ]
    return region, failed, offsets


def _classify_error(fault: int, offsets: np.ndarray, sign_t: int) -> Exception:
    """The error for one vector whose first failed classification check
    is _CLASSIFY_FAULTS[fault - 1]."""
    cls, message = _CLASSIFY_FAULTS[fault - 1]
    if cls is UnmatchedSignature:
        signature = tuple(tuple(int(x) for x in np.sign(row)) for row in offsets)
        message = message.format(signature, sign_t)
    return cls(message)


def classify_subregion(
    v: EwsRatioVector, lines: LineCoeffs, table: ShareTable
) -> Subregion:
    """Map a feasible ratio vector to its subregion via the offset-sign
    signature of the six border lines."""
    region, failed, offsets = _classify(v.s_prime, v.u_prime, v.sign_t, lines, table)
    for fault, bad in enumerate(failed, 1):
        if bad:
            raise _classify_error(fault, offsets, v.sign_t)
    return REGIONS[region]

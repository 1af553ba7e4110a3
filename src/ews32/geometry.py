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

_BY_SIGNATURE = {
    (signature, region.sign_t): region for region, signature in SIGNATURES.items()
}


@dataclass(frozen=True)
class LineCoeffs:
    """Coefficients (a, b, e) of the six border lines, each evaluated as
    u = (a * s + b) / e; indexed abe[factor, sector]."""

    abe: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "abe", _readonly(self.abe))

    def value(self, factor: int, sector: int, s_prime: float) -> float:
        """Height of line (factor, sector) at s_prime."""
        a, b, e = self.abe[factor, sector]
        return (a * s_prime + b) / e

    def offsets(self, s_prime: float, u_prime: float) -> np.ndarray:
        """Vertical offsets of the point to all six lines, shaped
        (sector, factor)."""
        out = np.empty((2, 3))
        for sector in range(2):
            for factor in range(3):
                out[sector, factor] = u_prime - self.value(factor, sector, s_prime)
        return out


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


def boundary_value(s_prime: float, table: ShareTable) -> float:
    """Height of the boundary hyperbola at s_prime."""
    if abs(s_prime + 1.0) <= ON_LINE_TOL:
        raise AsymptotePole("boundary curve has a pole at s_prime = -1")
    return -table.labor_to_capital * s_prime / (s_prime + 1.0)


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


def check_feasible(v: EwsRatioVector, table: ShareTable) -> None:
    """Raise unless the vector lies strictly inside its side of the
    boundary: above it right of the pole for a positive denominator,
    below it left of the pole for a negative one."""
    if abs(v.s_prime + 1.0) <= ON_LINE_TOL:
        raise Infeasible("ratio vector sits on the boundary asymptote")
    height = boundary_value(v.s_prime, table)
    if v.sign_t > 0:
        if not (v.s_prime > -1.0 and v.u_prime > height + ON_LINE_TOL):
            raise Infeasible(
                "positive-denominator vectors must lie strictly above the boundary "
                "right of its pole"
            )
    else:
        if not (v.s_prime < -1.0 and v.u_prime < height - ON_LINE_TOL):
            raise Infeasible(
                "negative-denominator vectors must lie strictly below the boundary "
                "left of its pole"
            )


def classify_subregion(
    v: EwsRatioVector, lines: LineCoeffs, table: ShareTable
) -> Subregion:
    """Map a feasible ratio vector to its subregion via the offset-sign
    signature of the six border lines."""
    check_feasible(v, table)
    offsets = lines.offsets(v.s_prime, v.u_prime)
    if np.min(np.abs(offsets)) <= ON_LINE_TOL:
        raise OnLine("ratio vector sits on a border line; no sign pattern is defined there")
    signature = tuple(tuple(int(x) for x in np.sign(row)) for row in offsets)
    region = _BY_SIGNATURE.get((signature, v.sign_t))
    if region is None:
        raise UnmatchedSignature(
            f"offset signature {signature} with denominator sign {v.sign_t:+d} "
            "matches no subregion"
        )
    return region

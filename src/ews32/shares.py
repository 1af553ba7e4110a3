"""Share structure of a three-factor, two-good competitive economy.

Factors are indexed (land, capital, labor) = (0, 1, 2); sectors are the
two columns. Everything downstream (substitution aggregation, subregion
geometry, comparative statics) reads shares from the table built here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonStochasticColumns, OutOfRangeShare, ParseError, RankingViolation

LAND, CAPITAL, LABOR = 0, 1, 2
FACTOR_NAMES = ("land", "capital", "labor")

# Column sums are expected exact to machine precision; anything past this
# is a data problem, not roundoff.
STOCHASTIC_TOL = 1e-12


def _readonly(values) -> np.ndarray:
    """Read-only float copy, as every frozen result type stores arrays."""
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


def _finite_array(value) -> np.ndarray | None:
    """Float array of a number, or of a rectangular nest of lists, tuples
    and arrays whose leaves are finite ints or floats (Python or numpy, no
    bool; a 0-d array inside a nest is a leaf, not a number); else None."""
    # A float array reads as itself, with no pass over object leaves.
    if type(value) is np.ndarray and value.dtype == np.float64:
        return value.copy() if np.isfinite(value).all() else None
    try:
        leaves = np.array(value, dtype=object)
        # A ragged nest has lists or arrays among its leaves.
        kinds = set(map(type, leaves.flat))
        numbers = bool not in kinds and all(
            issubclass(kind, (int, float, np.integer, np.floating)) for kind in kinds
        )
        # math.isfinite reads each leaf as a float.
        if not (numbers and all(map(math.isfinite, leaves.flat))):
            return None
    # Nests deeper than numpy holds, some ragged nests, ints past the float range.
    except (RuntimeError, ValueError, OverflowError):
        return None
    return leaves.astype(float)


def _read(value, shape: tuple | None, what: str) -> np.ndarray:
    """Read-only float array of value, read by _finite_array; ParseError
    unless it holds finite numbers of the given shape (any, for None)."""
    arr = _finite_array(value)
    if arr is None:
        raise ParseError(f"{what} must hold finite numbers, not booleans or strings")
    if shape is not None and arr.shape != shape:
        raise ParseError(f"{what} must have shape {shape}, got {arr.shape}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ShareTable:
    """Distributive shares plus every quantity derived from them.

    Built as ShareTable(theta, theta_sector), which reads and checks the
    shares and derives the rest, so every table satisfies the maintained
    rankings: sector 0 is land-intensive and sector 1 capital-intensive,
    labor lies strictly between them, and labor's share is strictly
    larger in sector 0.

    Raises ParseError, OutOfRangeShare, NonStochasticColumns or
    RankingViolation, in that order of checking. Ties fail the rankings:
    the sign tables downstream assume strict inequalities.

    theta[i, j]: share of factor i in sector j's revenue.
    theta_sector[j]: sector j's share of national income.
    theta_factor[i]: factor i's share of national income.
    lam[i, j]: share of factor i's endowment employed in sector j.
    diff: per-factor share differences across sectors (sector 0 minus 1).
    """

    theta: np.ndarray
    theta_sector: np.ndarray
    theta_factor: np.ndarray = field(init=False)
    lam: np.ndarray = field(init=False)
    diff: tuple[float, float, float] = field(init=False)

    def __post_init__(self):
        th = _read(self.theta, (3, 2), "theta")
        ts = _read(self.theta_sector, (2,), "theta_sector")
        # The checks read Python floats, whose sums, ratios and differences
        # have the bits of numpy's.
        (land_0, land_1), (capital_0, capital_1), (labor_0, labor_1) = rows = th.tolist()
        sector_0, sector_1 = ts.tolist()
        if not all(0.0 < v < 1.0 for row in rows for v in row):
            raise OutOfRangeShare("every distributive share must lie strictly between 0 and 1")
        if not (0.0 < sector_0 < 1.0 and 0.0 < sector_1 < 1.0):
            raise OutOfRangeShare("every sector share must lie strictly between 0 and 1")
        colsums = [land_0 + capital_0 + labor_0, land_1 + capital_1 + labor_1]
        if any(abs(total - 1.0) > STOCHASTIC_TOL for total in colsums):
            raise NonStochasticColumns(
                f"distributive-share columns must each sum to 1, got {colsums}"
            )
        if abs(sector_0 + sector_1 - 1.0) > STOCHASTIC_TOL:
            raise NonStochasticColumns(f"sector shares must sum to 1, got {sector_0 + sector_1}")
        if not land_0 / land_1 > labor_0 / labor_1 > capital_0 / capital_1:
            raise RankingViolation(
                "factor-intensity ranking violated: need strict "
                "land-share ratio > labor-share ratio > capital-share ratio across sectors"
            )
        if not labor_0 > labor_1:
            raise RankingViolation(
                "middle-factor ranking violated: need labor's distributive share "
                "strictly larger in the land-intensive sector"
            )

        keep = object.__setattr__
        keep(self, "theta", th)
        keep(self, "theta_sector", ts)
        tf = th @ ts
        keep(self, "theta_factor", _readonly(tf))
        keep(self, "lam", _readonly((ts[np.newaxis, :] / tf[:, np.newaxis]) * th))
        keep(self, "diff", (land_0 - land_1, capital_0 - capital_1, labor_0 - labor_1))

    @property
    def labor_to_capital(self) -> float:
        """Ratio of the labor and capital income shares."""
        return self.theta_factor[LABOR] / self.theta_factor[CAPITAL]


def build_share_table(theta, theta_sector) -> ShareTable:
    """The ShareTable of raw shares: validated, with the factor shares,
    allocation shares and cross-sector difference triple derived from
    them (see ShareTable for the checks and their order)."""
    return ShareTable(theta, theta_sector)

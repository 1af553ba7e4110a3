"""Share structure of a three-factor, two-good competitive economy.

Factors are indexed (land, capital, labor) = (0, 1, 2); sectors are the
two columns. Everything downstream (substitution aggregation, subregion
geometry, comparative statics) reads shares from the table built here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonStochasticColumns, OutOfRangeShare, RankingViolation

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


def _first_fault(failed) -> np.ndarray:
    """Fault code per point over leading axes, from a list of check
    failure flags in checking order: 0 when no check failed, else 1 + the
    index of the first that did."""
    flags = np.asarray(failed)
    return (flags.argmax(axis=0) + 1) * flags.any(axis=0)


@dataclass(frozen=True)
class ShareTable:
    """Distributive shares plus every quantity derived from them.

    theta[i, j]: share of factor i in sector j's revenue.
    theta_sector[j]: sector j's share of national income.
    theta_factor[i]: factor i's share of national income.
    lam[i, j]: share of factor i's endowment employed in sector j.
    diff: per-factor share differences across sectors (sector 0 minus 1).
    """

    theta: np.ndarray
    theta_sector: np.ndarray
    theta_factor: np.ndarray
    lam: np.ndarray
    diff: tuple[float, float, float]

    @property
    def labor_to_capital(self) -> float:
        """Ratio of the labor and capital income shares."""
        return self.theta_factor[LABOR] / self.theta_factor[CAPITAL]


@dataclass(frozen=True)
class RankingReport:
    """Outcome of the maintained-assumption checks on a share table."""

    intensity_ok: bool
    middle_ok: bool
    diff_signs: tuple[int, int, int]

    @property
    def ok(self) -> bool:
        return self.intensity_ok and self.middle_ok


def build_share_table(theta, theta_sector) -> ShareTable:
    """Validate raw shares and derive factor shares, allocation shares,
    and the cross-sector difference triple."""
    th = np.array(theta, dtype=float)
    ts = np.array(theta_sector, dtype=float)
    if th.shape != (3, 2):
        raise OutOfRangeShare(f"theta must be 3x2, got shape {th.shape}")
    if ts.shape != (2,):
        raise OutOfRangeShare(f"theta_sector must have 2 entries, got {ts.shape}")
    # Written so that NaN fails the range tests.
    if not np.all((th > 0.0) & (th < 1.0)):
        raise OutOfRangeShare("every distributive share must lie strictly between 0 and 1")
    if not np.all((ts > 0.0) & (ts < 1.0)):
        raise OutOfRangeShare("every sector share must lie strictly between 0 and 1")
    colsums = th.sum(axis=0)
    if np.any(np.abs(colsums - 1.0) > STOCHASTIC_TOL):
        raise NonStochasticColumns(
            f"distributive-share columns must each sum to 1, got {colsums.tolist()}"
        )
    if abs(ts.sum() - 1.0) > STOCHASTIC_TOL:
        raise NonStochasticColumns(f"sector shares must sum to 1, got {ts.sum()!r}")

    tf = th @ ts
    lam = (ts[np.newaxis, :] / tf[:, np.newaxis]) * th
    diff = tuple(float(d) for d in th[:, 0] - th[:, 1])
    return ShareTable(
        theta=_readonly(th),
        theta_sector=_readonly(ts),
        theta_factor=_readonly(tf),
        lam=_readonly(lam),
        diff=diff,
    )


def check_intensity_ranking(table: ShareTable) -> RankingReport:
    """Check that sector 0 is land-intensive, sector 1 capital-intensive,
    labor in between, and that labor's share is larger in sector 0.

    Ties fail: the sign tables downstream assume strict inequalities.
    """
    r = table.theta[:, 0] / table.theta[:, 1]
    intensity_ok = bool(r[LAND] > r[LABOR] > r[CAPITAL])
    middle_ok = bool(table.theta[LABOR, 0] > table.theta[LABOR, 1])
    signs = tuple(int(np.sign(d)) for d in table.diff)
    return RankingReport(intensity_ok=intensity_ok, middle_ok=middle_ok, diff_signs=signs)


def require_ranking(table: ShareTable) -> RankingReport:
    """Raise unless both maintained rankings hold; return the report."""
    report = check_intensity_ranking(table)
    if not report.intensity_ok:
        raise RankingViolation(
            "factor-intensity ranking violated: need strict "
            "land-share ratio > labor-share ratio > capital-share ratio across sectors"
        )
    if not report.middle_ok:
        raise RankingViolation(
            "middle-factor ranking violated: need labor's distributive share "
            "strictly larger in the land-intensive sector"
        )
    return report

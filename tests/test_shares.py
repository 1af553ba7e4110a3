import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ews32 import (
    CAPITAL,
    LABOR,
    LAND,
    NonStochasticColumns,
    OutOfRangeShare,
    ParseError,
    RankingViolation,
    ShareTable,
    build_share_table,
)

from conftest import REFERENCE_SECTOR, REFERENCE_THETA, random_ranked_table


def test_reference_factor_shares(reference_table):
    # theta_i = sum_j theta_j * theta_ij, frozen from a by-hand pass
    assert reference_table.theta_factor == pytest.approx((0.38, 0.29, 0.33), abs=1e-15)


def test_reference_share_differences(reference_table):
    # column differences of the distributive shares, by hand
    a, b, e = reference_table.diff
    assert (a, b, e) == pytest.approx((0.30, -0.35, 0.05), abs=1e-15)
    assert a + b + e == pytest.approx(0.0, abs=1e-15)


def test_reference_allocation_shares(reference_table):
    # lam_ij = theta_j * theta_ij / theta_i; land in sector 1, by hand
    assert reference_table.lam[LAND, 0] == pytest.approx(0.7894736842105263, abs=1e-15)
    assert np.allclose(reference_table.lam.sum(axis=1), 1.0, atol=1e-12)


def test_allocation_identity_random():
    # lam_ij * theta_i == theta_j * theta_ij for every cell, by construction
    rng = np.random.default_rng(11)
    for _ in range(50):
        t = random_ranked_table(rng)
        lhs = t.lam * t.theta_factor[:, None]
        rhs = t.theta * t.theta_sector[None, :]
        assert np.allclose(lhs, rhs, atol=1e-14)


def test_labor_to_capital_ratio(reference_table):
    assert reference_table.labor_to_capital == pytest.approx(0.33 / 0.29, rel=1e-14)


def test_column_sum_enforced():
    bad = [[0.5, 0.2], [0.15, 0.5], [0.36, 0.30]]
    message = "distributive-share columns must each sum to 1, got [1.01, 1.0]"
    with pytest.raises(NonStochasticColumns, match=f"^{re.escape(message)}$"):
        build_share_table(bad, REFERENCE_SECTOR)


def test_sector_sum_enforced():
    # The sum prints as a plain float, as the column sums do, not as a
    # numpy scalar's repr.
    message = "sector shares must sum to 1, got 1.1"
    with pytest.raises(NonStochasticColumns, match=f"^{re.escape(message)}$"):
        build_share_table(REFERENCE_THETA, [0.6, 0.5])


def test_share_range_enforced():
    bad = [[1.2, 0.2], [-0.55, 0.5], [0.35, 0.30]]
    with pytest.raises(OutOfRangeShare):
        build_share_table(bad, REFERENCE_SECTOR)


@pytest.mark.parametrize(
    "theta, sector, message",
    [
        (
            np.transpose(REFERENCE_THETA),
            REFERENCE_SECTOR,
            r"^theta must have shape \(3, 2\), got \(2, 3\)$",
        ),
        (REFERENCE_THETA, [0.6, 0.3, 0.1], r"^theta_sector must have shape \(2,\), got \(3,\)$"),
    ],
    ids=["theta", "theta_sector"],
)
def test_share_shapes_enforced(theta, sector, message):
    with pytest.raises(ParseError, match=message):
        build_share_table(theta, sector)


def _theta_with_one(row: int, column: int) -> list:
    theta = [list(shares) for shares in REFERENCE_THETA]
    theta[row][column] = 1.0
    return theta


@pytest.mark.parametrize(
    "theta, sector",
    [
        (REFERENCE_THETA, [0.0, 0.5]),
        (REFERENCE_THETA, [1.0, 0.5]),
        (REFERENCE_THETA, [0.5, 0.0]),
        (REFERENCE_THETA, [0.5, 1.0]),
        (_theta_with_one(LAND, 0), REFERENCE_SECTOR),
        (_theta_with_one(LABOR, 1), REFERENCE_SECTOR),
    ],
    ids=["sector-0-zero", "sector-0-one", "sector-1-zero", "sector-1-one", "theta-land-1", "theta-labor-2"],
)
def test_a_share_on_an_end_of_its_range_is_out_of_range(theta, sector):
    # Each range is open: a share of exactly 0 or 1 is refused as out of
    # range, before the column sums are checked.
    with pytest.raises(OutOfRangeShare):
        build_share_table(theta, sector)


def test_zero_share_rejected():
    bad = [[0.65, 0.2], [0.0, 0.5], [0.35, 0.30]]
    with pytest.raises(OutOfRangeShare):
        build_share_table(bad, REFERENCE_SECTOR)


def test_nan_share_rejected():
    # NaN is not a finite number, so it is refused as read, before it can
    # compare false against a range or ranking test.
    theta = [[0.50, 0.20], [float("nan"), 0.50], [0.35, 0.30]]
    with pytest.raises(ParseError):
        build_share_table(theta, REFERENCE_SECTOR)
    with pytest.raises(ParseError):
        build_share_table(REFERENCE_THETA, [float("nan"), 0.4])


def test_ranking_reference_passes(reference_table):
    assert np.array_equal(reference_table.theta, REFERENCE_THETA)


def test_ranking_swapped_sectors_fails(reference_table):
    with pytest.raises(RankingViolation, match="^factor-intensity ranking violated"):
        build_share_table(reference_table.theta[:, ::-1], REFERENCE_SECTOR)


def test_a_directly_built_table_is_checked(reference_table):
    # A table built without build_share_table passes the same checks: the
    # swapped sectors are refused as unranked, not later as a signature
    # that matches no subregion, and the derived fields cannot be handed in.
    swapped = (reference_table.theta[:, ::-1], reference_table.theta_sector[::-1])
    with pytest.raises(RankingViolation, match="^factor-intensity ranking violated"):
        ShareTable(*swapped)
    with pytest.raises(TypeError):
        ShareTable(*swapped, theta_factor=reference_table.theta_factor)
    direct = ShareTable(REFERENCE_THETA, REFERENCE_SECTOR)
    for name in ("theta", "theta_sector", "theta_factor", "lam"):
        assert getattr(direct, name).tobytes() == getattr(reference_table, name).tobytes()
        assert not getattr(direct, name).flags.writeable
    assert direct.diff == reference_table.diff


def test_ranking_middle_tie_fails():
    # Land/capital ordering holds but labor is split evenly, so the
    # middle-factor condition fails on the strict inequality.
    with pytest.raises(RankingViolation, match="^middle-factor ranking violated"):
        build_share_table([[0.5, 0.25], [0.2, 0.45], [0.3, 0.30]], [0.5, 0.5])


def test_sector_shares_do_not_affect_intensity(reference_table):
    for split in (0.1, 0.5, 0.9):
        build_share_table(reference_table.theta, [split, 1.0 - split])
        with pytest.raises(RankingViolation):
            build_share_table(reference_table.theta[:, ::-1], [split, 1.0 - split])


def _ranked_exactly(theta):
    """The two maintained rankings, decided in exact rational arithmetic
    by cross-multiplication: (intensity holds, middle factor holds)."""
    (l0, l1), (k0, k1), (n0, n1) = [[Fraction(float(x)) for x in row] for row in theta]
    return l0 * n1 > n0 * l1 and n0 * k1 > k0 * n1, n0 > n1


# Eighths are exact in binary, so equal ratios on this grid are equal
# floats and exact ties reach the strict tests unrounded.
GRID = 8


@st.composite
def grid_column(draw):
    land = draw(st.integers(1, GRID - 2))
    capital = draw(st.integers(1, GRID - 1 - land))
    return [land / GRID, capital / GRID, (GRID - land - capital) / GRID]


@st.composite
def share_cases(draw):
    """Random Dirichlet shares, or shares on the grid with its exact
    ties; half of them with the factors relabelled by descending share
    ratio, so that passes and middle-factor failures are common."""
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        theta = rng.dirichlet(np.ones(3), size=2).T
        sector = rng.dirichlet(np.ones(2))
        assume(theta.min() > 0.0 and sector.min() > 0.0)
    else:
        theta = np.array([draw(grid_column()), draw(grid_column())]).T
        first = draw(st.integers(1, GRID - 1))
        sector = np.array([first, GRID - first]) / GRID
    if draw(st.booleans()):
        high, middle, low = np.argsort(theta[:, 1] / theta[:, 0], kind="stable")
        theta = theta[[high, low, middle]]
    return theta, sector


@given(share_cases())
def test_ranking_refused_exactly_when_it_fails(case):
    theta, sector = case
    intensity, middle = _ranked_exactly(theta)
    if not intensity:
        with pytest.raises(RankingViolation, match="^factor-intensity ranking violated"):
            build_share_table(theta, sector)
    elif not middle:
        with pytest.raises(RankingViolation, match="^middle-factor ranking violated"):
            build_share_table(theta, sector)
    else:
        assert np.array_equal(build_share_table(theta, sector).theta, theta)


def test_random_tables_have_expected_signs():
    rng = np.random.default_rng(7)
    for _ in range(100):
        t = random_ranked_table(rng)
        a, b, e = t.diff
        assert a > 0 and b < 0 and e > 0
        assert a + b + e == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(t.lam.sum(axis=1), 1.0, atol=1e-12)

import numpy as np
import pytest

from ews32 import (
    CAPITAL,
    LABOR,
    LAND,
    NonStochasticColumns,
    OutOfRangeShare,
    RankingViolation,
    build_share_table,
    check_intensity_ranking,
    require_ranking,
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
    with pytest.raises(NonStochasticColumns):
        build_share_table(bad, REFERENCE_SECTOR)


def test_sector_sum_enforced():
    with pytest.raises(NonStochasticColumns):
        build_share_table(REFERENCE_THETA, [0.6, 0.5])


def test_share_range_enforced():
    bad = [[1.2, 0.2], [-0.55, 0.5], [0.35, 0.30]]
    with pytest.raises(OutOfRangeShare):
        build_share_table(bad, REFERENCE_SECTOR)


def test_zero_share_rejected():
    bad = [[0.65, 0.2], [0.0, 0.5], [0.35, 0.30]]
    with pytest.raises(OutOfRangeShare):
        build_share_table(bad, REFERENCE_SECTOR)


def test_nan_share_rejected():
    # NaN compares false both ways, so it must fail the range test itself
    # rather than slip through to the ranking check.
    theta = [[0.50, 0.20], [float("nan"), 0.50], [0.35, 0.30]]
    with pytest.raises(OutOfRangeShare):
        build_share_table(theta, REFERENCE_SECTOR)
    with pytest.raises(OutOfRangeShare):
        build_share_table(REFERENCE_THETA, [float("nan"), 0.4])


def test_ranking_reference_passes(reference_table):
    report = check_intensity_ranking(reference_table)
    assert report.ok
    assert report.intensity_ok and report.middle_ok
    assert report.diff_signs == (1, -1, 1)
    require_ranking(reference_table)  # should not raise


def test_ranking_swapped_sectors_fails(reference_table):
    swapped = build_share_table(reference_table.theta[:, ::-1], REFERENCE_SECTOR)
    report = check_intensity_ranking(swapped)
    assert not report.intensity_ok
    with pytest.raises(RankingViolation):
        require_ranking(swapped)


def test_ranking_middle_tie_fails():
    # Land/capital ordering holds but labor is split evenly, so the
    # middle-factor condition fails on the strict inequality.
    tied = build_share_table([[0.5, 0.25], [0.2, 0.45], [0.3, 0.30]], [0.5, 0.5])
    report = check_intensity_ranking(tied)
    assert report.intensity_ok
    assert not report.middle_ok
    with pytest.raises(RankingViolation):
        require_ranking(tied)


def test_sector_shares_do_not_affect_intensity(reference_table):
    for split in (0.1, 0.5, 0.9):
        t = build_share_table(reference_table.theta, [split, 1.0 - split])
        assert check_intensity_ranking(t).intensity_ok


def test_random_tables_have_expected_signs():
    rng = np.random.default_rng(7)
    for _ in range(100):
        t = random_ranked_table(rng)
        a, b, e = t.diff
        assert a > 0 and b < 0 and e > 0
        assert a + b + e == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(t.lam.sum(axis=1), 1.0, atol=1e-12)

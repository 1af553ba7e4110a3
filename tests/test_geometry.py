from types import SimpleNamespace

import numpy as np
import pytest

from ews32 import (
    CAPITAL,
    LABOR,
    LAND,
    AsymptotePole,
    EwsMatrix,
    EwsRatioVector,
    Infeasible,
    LineCoeffs,
    OnLine,
    Subregion,
    UnmatchedSignature,
    anchor_points,
    boundary_value,
    classify_subregion,
    ews_ratio_vector,
    line_coefficients,
    verify_anchor_ordering,
)
from ews32.geometry import ON_LINE_TOL, SIGNATURES

from conftest import (
    matrix_at,
    random_ranked_table,
    sample_in_band,
    scan_m_regions,
)
from test_substitution import REFERENCE_G


def test_boundary_values(reference_table):
    # b(s') = -(theta_L/theta_K) * s' / (s' + 1), frozen by hand
    assert boundary_value(1.0, reference_table) == pytest.approx(
        -0.5689655172413793, abs=1e-15
    )
    assert boundary_value(0.0, reference_table) == 0.0


def test_boundary_pole(reference_table):
    with pytest.raises(AsymptotePole):
        boundary_value(-1.0, reference_table)


def test_line_coefficients_reference(reference_table):
    lines = line_coefficients(reference_table)
    # land line of the first sector, frozen by-hand values
    a, b, e = lines.abe[LAND, 0]
    assert a == pytest.approx(0.33103448275862074, abs=1e-15)
    assert b == pytest.approx(0.2413793103448276, abs=1e-15)
    assert e == pytest.approx(0.018181818181818184, abs=1e-15)
    # Vertical-coefficient signs: positive for land lines, negative for
    # capital lines, under the maintained ranking.
    assert lines.abe[LAND, 0, 2] > 0 and lines.abe[LAND, 1, 2] > 0
    assert lines.abe[CAPITAL, 0, 2] < 0 and lines.abe[CAPITAL, 1, 2] < 0


def numpy_scalar_lines(table):
    """The six lines' (a, b, e) [factor, sector] in numpy float64 scalar
    arithmetic, the expressions of line_coefficients in its order."""
    a, b, e = table.diff
    tf = table.theta_factor
    abe = np.empty((3, 2, 3))
    for sector in range(2):
        other = 1 - sector
        th, lm, ts = table.theta[:, other], table.lam[:, other], table.theta_sector[other]
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
    return abe


def test_line_coefficients_have_the_bits_of_numpy_scalars(reference_table):
    rng = np.random.default_rng(71)
    for table in [reference_table, *(random_ranked_table(rng) for _ in range(200))]:
        got = line_coefficients(table).abe
        assert got.shape == (3, 2, 3)
        assert got.view(np.uint64).tolist() == numpy_scalar_lines(table).view(np.uint64).tolist()


def test_anchor_points_reference(reference_table):
    anchors = anchor_points(reference_table)
    # q = (B/A, (B/E) * theta_L/theta_K), frozen by hand
    assert anchors.q[0] == pytest.approx(-7.0 / 6.0, rel=1e-14)
    assert anchors.q[1] == pytest.approx(-7.9655172413793105, rel=1e-13)
    # second boundary crossings, frozen by hand
    assert anchors.r[LABOR, 0] == pytest.approx((2.5, -0.8128078817733989), rel=1e-13)
    assert anchors.r[LABOR, 1] == pytest.approx((0.3, -0.26259946949602114), rel=1e-13)
    assert anchors.r[LAND, 0] == pytest.approx((-0.625, 1.8965517241379308), rel=1e-13)
    assert anchors.r[LAND, 1] == pytest.approx((-0.3, 0.48768472906403937), rel=1e-13)
    assert anchors.r[CAPITAL, 0, 0] == pytest.approx(-2.5, rel=1e-14)
    assert anchors.r[CAPITAL, 1, 0] == pytest.approx(-1.7, rel=1e-14)


def test_anchor_quadrants_random():
    rng = np.random.default_rng(31)
    for _ in range(100):
        table = random_ranked_table(rng)
        anchors = anchor_points(table)
        qx, qy = anchors.q
        assert qx < -1.0 and qy < 0.0  # third quadrant, left of the pole
        for sector in range(2):
            assert anchors.r[LAND, sector, 0] < 0 < anchors.r[LAND, sector, 1]
            assert anchors.r[CAPITAL, sector, 0] < 0
            assert anchors.r[CAPITAL, sector, 1] < 0
            assert anchors.r[LABOR, sector, 0] > 0 > anchors.r[LABOR, sector, 1]


def test_concurrency_and_boundary_incidence_random():
    rng = np.random.default_rng(32)
    for _ in range(120):
        table = random_ranked_table(rng)
        lines = line_coefficients(table)
        anchors = anchor_points(table)
        qx, qy = anchors.q
        for factor in range(3):
            for sector in range(2):
                assert abs(lines.value(factor, sector, qx) - qy) < 1e-10
                x, y = anchors.r[factor, sector]
                assert abs(lines.value(factor, sector, x) - y) < 1e-10
                assert abs(boundary_value(x, table) - y) < 1e-10
        assert abs(boundary_value(qx, table) - qy) < 1e-10


def test_ordering_reference(reference_table):
    anchors = anchor_points(reference_table)
    report = verify_anchor_ordering(anchors, reference_table)
    assert report.ok
    assert report.capital_chain == pytest.approx((-2.5, -1.7, -7.0 / 6.0), rel=1e-14)
    assert report.land_labor_chain == pytest.approx(
        (-0.625, -0.30, 0.0, 0.3, 2.5), abs=1e-14
    )


def test_ordering_random_strict():
    rng = np.random.default_rng(33)
    for _ in range(100):
        table = random_ranked_table(rng)
        report = verify_anchor_ordering(anchor_points(table), table)
        assert report.ok
        c = report.capital_chain
        assert c[0] < c[1] < c[2]
        l = report.land_labor_chain
        assert l[0] < l[1] < l[2] < l[3] < l[4]


def test_classify_reference_table(reference_table):
    lines = line_coefficients(reference_table)
    v = ews_ratio_vector(EwsMatrix(g=REFERENCE_G.copy()))
    assert classify_subregion(v, lines, reference_table) is Subregion.P2


def test_classify_probes(reference_table):
    lines = line_coefficients(reference_table)
    for (sp, up), want in {
        (-0.5, 2.0): Subregion.P4,
        (-0.5, 8.0): Subregion.P5,
    }.items():
        g = matrix_at(reference_table, sp, up, 1)
        assert classify_subregion(ews_ratio_vector(g), lines, reference_table) is want


def test_classify_bands(reference_table):
    lines = line_coefficients(reference_table)
    rng = np.random.default_rng(34)
    for name, want in (("P1", Subregion.P1), ("P2", Subregion.P2), ("P3", Subregion.P3)):
        for _ in range(10):
            sp, up = sample_in_band(rng, reference_table, name)
            g = matrix_at(reference_table, sp, up, 1)
            assert classify_subregion(ews_ratio_vector(g), lines, reference_table) is want


def test_classify_negative_side(reference_table):
    found = scan_m_regions(reference_table)
    assert {r.value for r in found} == {"M1", "M2", "M3", "M4", "M5", "M6", "M7"}


def test_classify_on_line(reference_table):
    lines = line_coefficients(reference_table)
    sp = 3.5
    up = lines.value(LABOR, 0, sp)
    v = EwsRatioVector(s=sp, t=1.0, u=up, s_prime=sp, u_prime=up, sign_t=1)
    # OnLine, not Infeasible: the vector is strictly inside the boundary.
    with pytest.raises(OnLine):
        classify_subregion(v, lines, reference_table)


def test_an_offset_of_exactly_the_tolerance_is_on_line(reference_table):
    # The reference vector's offsets, with the smallest one set to exactly
    # ON_LINE_TOL on its own side of its line: refused as on the line; one
    # float further out, the vector keeps its subregion.
    lines = line_coefficients(reference_table)
    v = ews_ratio_vector(EwsMatrix(g=REFERENCE_G.copy()))
    offsets = lines.offsets(v.s_prime, v.u_prime)
    nearest = np.unravel_index(np.abs(offsets).argmin(), offsets.shape)
    region = classify_subregion(v, lines, reference_table)
    for gap, refused in [(ON_LINE_TOL, True), (np.nextafter(ON_LINE_TOL, 1.0), False)]:
        moved = offsets.copy()
        moved[nearest] = np.copysign(gap, offsets[nearest])
        stand_in = SimpleNamespace(offsets=lambda s_prime, u_prime, moved=moved: moved)
        if refused:
            with pytest.raises(OnLine):
                classify_subregion(v, stand_in, reference_table)
        else:
            assert classify_subregion(v, stand_in, reference_table) is region


def test_infeasible_placements(reference_table):
    lines = line_coefficients(reference_table)
    # Positive denominator but below the boundary curve.
    below = EwsRatioVector(s=0.5, t=1.0, u=-4.0, s_prime=0.5, u_prime=-4.0, sign_t=1)
    with pytest.raises(Infeasible):
        classify_subregion(below, lines, reference_table)
    # Negative denominator but on the positive side of the plane.
    wrong_side = EwsRatioVector(
        s=-0.7, t=-1.0, u=-0.7, s_prime=0.7, u_prime=0.7, sign_t=-1
    )
    with pytest.raises(Infeasible):
        classify_subregion(wrong_side, lines, reference_table)
    # On the pole's vertical.
    pole = EwsRatioVector(s=-1.0, t=1.0, u=0.0, s_prime=-1.0, u_prime=0.0, sign_t=1)
    with pytest.raises(Infeasible):
        classify_subregion(pole, lines, reference_table)


def test_unmatched_signature(reference_table):
    # Doctored lines whose offset signs around the probe form a grid that
    # no subregion owns: sector-one lines pushed above the point, sector-two
    # lines below, giving (-,-,-) over (+,+,+) with a positive denominator.
    sp, up = 0.5, 0.5
    abe = np.zeros((3, 2, 3))
    abe[:, 0] = (0.0, up + 1.0, 1.0)
    abe[:, 1] = (0.0, up - 1.0, 1.0)
    doctored = LineCoeffs(abe=abe)
    v = EwsRatioVector(s=sp, t=1.0, u=up, s_prime=sp, u_prime=up, sign_t=1)
    with pytest.raises(UnmatchedSignature):
        classify_subregion(v, doctored, reference_table)


def test_signature_table_complete_and_unique():
    assert set(SIGNATURES) == set(Subregion)
    keyed = {(sig, region.sign_t) for region, sig in SIGNATURES.items()}
    assert len(keyed) == 12  # invertible once the denominator sign is known
    # The two all-positive grids are told apart only by that sign.
    assert SIGNATURES[Subregion.P5] == SIGNATURES[Subregion.M1]
    assert Subregion.P5.sign_t == 1 and Subregion.M1.sign_t == -1
    assert SIGNATURES[Subregion.M4] == ((1, -1, -1), (1, -1, 1))

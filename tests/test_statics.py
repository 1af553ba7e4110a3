import dataclasses
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, reject
from hypothesis import strategies as st

from ews32 import (
    CAPITAL,
    LABOR,
    LAND,
    ClosedFormMismatch,
    DegenerateT,
    EwsMatrix,
    OnLine,
    Scenario,
    ShockVector,
    SingularSystem,
    Subregion,
    SystemMatrix,
    ValidationError,
    assemble_system,
    build_share_table,
    cofactors,
    comparative_statics,
    determinant_delta,
    epsilon_from_aes,
    ews_from_epsilon,
    ews_ratio_vector,
    format_report,
    line_coefficients,
    run_report,
    sample_valid_aes,
    scenario_from_mapping,
    sign_pattern_lookup,
    sweep,
    solve_responses,
    strong_rybczynski,
)
from ews32 import statics
from ews32.geometry import SIGNATURES
from ews32.statics import H, RYBCZYNSKI_SIGNS, STOLPER_SAMUELSON_SIGNS, dense_signs
from ews32.sweep import parse_grid

from conftest import (
    dense_output_elasticities,
    dense_price_rewards,
    dense_system,
    matrix_at,
    random_ranked_table,
    random_valid_ews,
    sign_grid,
)
from test_scenario import REFERENCE_DOC
from test_substitution import REFERENCE_G

# Frozen dense-oracle values for the Cobb-Douglas reference economy,
# computed by an independent implementation of the 5x5 system.
REFERENCE_DELTA = -0.16003959742616733
REFERENCE_COFACTORS = np.array(
    [
        [-0.1808150470219436, -0.09358851674641148, -0.07281306715063521],
        [-0.11918495297805644, -0.25641148325358853, 0.02281306715063522],
    ]
)
REFERENCE_RYBCZYNSKI = np.array(
    [
        [1.1298144329896904, -0.5847835051546392, 0.45496907216494836],
        [-0.7447216494845359, 1.6021752577319588, 0.1425463917525774],
    ]
)
REFERENCE_PRICE_REWARDS = (0.7839175257731961, -2.209896907216495, -0.17278350515463908)


def reference_g():
    return EwsMatrix(g=REFERENCE_G.copy())


def statics_of(table, g):
    return comparative_statics(table, g, ews_ratio_vector(g), line_coefficients(table))


def test_system_layout(reference_table):
    g = reference_g()
    sys = assemble_system(reference_table, g)
    assert sys.a.shape == (5, 5)
    assert np.array_equal(sys.a[0, :3], np.asarray(reference_table.theta)[:, 0])
    assert np.array_equal(sys.a[1, :3], np.asarray(reference_table.theta)[:, 1])
    assert np.array_equal(sys.a[:2, 3:], np.zeros((2, 2)))
    for row in range(3):
        assert np.array_equal(sys.a[2 + row, :3], g.g[row])
        assert np.array_equal(sys.a[2 + row, 3:], np.asarray(reference_table.lam)[row])
    # A stack of matrices assembles each one as on its own.
    stacked = assemble_system(reference_table, EwsMatrix(g=np.stack([g.g, 2.0 * g.g])))
    assert stacked.a.shape == (2, 5, 5)
    assert np.array_equal(stacked.a[0], sys.a)
    assert np.array_equal(
        stacked.a[1], assemble_system(reference_table, EwsMatrix(g=2.0 * g.g)).a
    )


def test_shock_right_hand_side():
    shock = ShockVector(price_shock=2.0, endowment_shocks=(1.0, 2.0, 3.0))
    assert np.array_equal(shock.right_hand_side(), [0.0, -2.0, 1.0, 2.0, 3.0])


def test_determinant_reference(reference_table):
    g = reference_g()
    report = determinant_delta(assemble_system(reference_table, g), reference_table, g)
    assert report.dense == pytest.approx(REFERENCE_DELTA, rel=1e-12)
    assert report.via_own_terms == pytest.approx(REFERENCE_DELTA, rel=1e-12)
    assert report.via_cross_terms == pytest.approx(REFERENCE_DELTA, rel=1e-12)
    assert report.value < 0


def test_determinant_random_routes_agree():
    rng = np.random.default_rng(41)
    for trial in range(100):
        table = random_ranked_table(rng)
        g = random_valid_ews(table, 3000 + trial)
        report = determinant_delta(assemble_system(table, g), table, g)
        vals = (report.dense, report.via_own_terms, report.via_cross_terms)
        assert all(v < 0 for v in vals)
        scale = max(abs(v) for v in vals)
        assert max(vals) - min(vals) <= 1e-9 * scale


def test_determinant_linear_in_substitution(reference_table):
    # Every surviving expansion term carries exactly one substitution
    # entry, so the determinant scales linearly with the whole matrix.
    g = reference_g()
    doubled = EwsMatrix(g=2.0 * REFERENCE_G)
    d1 = determinant_delta(assemble_system(reference_table, g), reference_table, g)
    d2 = determinant_delta(
        assemble_system(reference_table, doubled), reference_table, doubled
    )
    assert d2.value == pytest.approx(2.0 * d1.value, rel=1e-12)


def test_cofactors_reference(reference_table):
    report = cofactors(reference_table, reference_g())
    assert np.allclose(report.direct, REFERENCE_COFACTORS, atol=1e-14)
    assert np.allclose(report.expanded, REFERENCE_COFACTORS, atol=1e-12)
    assert np.allclose(report.factored, REFERENCE_COFACTORS, atol=1e-12)


def test_cofactors_random_routes_agree():
    rng = np.random.default_rng(42)
    for trial in range(100):
        table = random_ranked_table(rng)
        g = random_valid_ews(table, 4000 + trial)
        report = cofactors(table, g)
        scale = np.abs(report.direct).max()
        assert np.abs(report.direct - report.expanded).max() <= 1e-9 * scale
        assert np.abs(report.direct - report.factored).max() <= 1e-9 * scale


def test_cofactor_vanishes_on_its_line(reference_table):
    # A vector placed exactly on the labor line of the first sector zeroes
    # that sector's labor cofactor.
    lines = line_coefficients(reference_table)
    sp = 3.5
    g = matrix_at(reference_table, sp, lines.value(LABOR, 0, sp), 1)
    report = cofactors(reference_table, g)
    assert abs(report.direct[0, LABOR]) < 1e-10
    assert abs(report.direct[1, LABOR]) > 1e-3  # the other sector's is not


def test_solve_zero_shock(reference_table):
    sys = assemble_system(reference_table, reference_g())
    response = solve_responses(sys, ShockVector())
    assert response.as_array() == pytest.approx(np.zeros(5), abs=1e-14)
    assert response.residual < 1e-10


def test_solve_residual_and_linearity():
    rng = np.random.default_rng(43)
    for trial in range(30):
        table = random_ranked_table(rng)
        g = random_valid_ews(table, 5000 + trial)
        sys = assemble_system(table, g)
        shock = ShockVector(
            price_shock=float(rng.normal()),
            endowment_shocks=tuple(rng.normal(size=3)),
        )
        one = solve_responses(sys, shock)
        assert one.residual < 1e-10
        alpha = 3.75
        scaled = solve_responses(
            sys,
            ShockVector(
                price_shock=alpha * shock.price_shock,
                endowment_shocks=tuple(alpha * e for e in shock.endowment_shocks),
            ),
        )
        assert scaled.as_array() == pytest.approx(alpha * one.as_array(), rel=1e-9)


def test_solve_singular_system(reference_table):
    with pytest.raises(SingularSystem):
        solve_responses(SystemMatrix(a=np.zeros((5, 5))), ShockVector(price_shock=1.0))


@pytest.mark.parametrize(
    "shock",
    [{"price_shock": float("nan")}, {"endowment_shocks": (0.0, float("-inf"), 0.0)}],
    ids=["nan-price", "infinite-endowment"],
)
def test_shock_must_be_finite(shock):
    with pytest.raises(ValidationError, match="shock entries must be finite"):
        ShockVector(**shock)


@pytest.mark.parametrize("endowments", [(1.0,), (0.0, 0.0, 0.0, 0.0), ()])
def test_shock_needs_three_endowment_entries(endowments):
    with pytest.raises(ValidationError, match="endowment shocks must have 3 entries"):
        ShockVector(endowment_shocks=endowments)


def test_overflowing_response_is_refused(reference_table):
    # The response is linear in the shock; past what a float holds the
    # shock is refused by name, not reported as a failed residual check.
    sys = assemble_system(reference_table, reference_g())
    for price in (5e307, 1e308):
        with pytest.raises(ValidationError, match=re.escape(f"ShockVector(price_shock={price!r},")):
            solve_responses(sys, ShockVector(price_shock=price))
    response = solve_responses(sys, ShockVector(price_shock=1e307))
    assert np.all(np.isfinite(response.as_array()))


def test_dense_signs_on_a_stack(reference_table):
    # The reference system beside a singular one: the first gets the P2
    # sign grids, the second a NaN residual rather than an exception.
    good = assemble_system(reference_table, reference_g()).a
    signs, residual = dense_signs(SystemMatrix(a=np.stack([good, np.zeros((5, 5))])))
    assert signs.shape == (2, 4, 3)
    assert tuple(map(tuple, signs[0, :2].tolist())) == RYBCZYNSKI_SIGNS[Subregion.P2]
    assert tuple(map(tuple, signs[0, 2:].tolist())) == STOLPER_SAMUELSON_SIGNS[Subregion.P2]
    assert residual[0] <= 1e-10
    assert np.isnan(residual[1])


def test_rybczynski_reference(reference_table):
    ryb = statics_of(reference_table, reference_g()).rybczynski
    assert np.allclose(ryb, REFERENCE_RYBCZYNSKI, atol=1e-12)


def test_rybczynski_matches_dense_oracle():
    rng = np.random.default_rng(44)
    for trial in range(150):
        table = random_ranked_table(rng)
        g = random_valid_ews(table, 6000 + trial)
        ryb = statics_of(table, g).rybczynski
        dense = dense_output_elasticities(table, g)
        scale = np.abs(dense).max()
        assert np.abs(ryb - dense).max() <= 1e-9 * max(scale, 1.0)
        assert sign_grid(ryb) == sign_grid(dense)


def test_stolper_samuelson_reference(reference_table):
    ss = statics_of(reference_table, reference_g()).stolper_samuelson
    assert np.allclose(ss[0], REFERENCE_PRICE_REWARDS, atol=1e-12)
    assert np.allclose(ss[1], np.asarray(REFERENCE_PRICE_REWARDS) + 1.0, atol=1e-12)


def test_stolper_samuelson_reciprocity_random():
    # Row one is the dense reward response to a relative price shock;
    # row two differs by exactly the shock itself.
    rng = np.random.default_rng(45)
    for trial in range(60):
        table = random_ranked_table(rng)
        g = random_valid_ews(table, 7000 + trial)
        ss = statics_of(table, g).stolper_samuelson
        rewards = dense_price_rewards(table, g)
        assert np.allclose(ss[0], rewards, atol=1e-9)
        assert np.allclose(ss[1], rewards + 1.0, atol=1e-9)


def test_sign_pattern_lookup_spot_values():
    p2 = sign_pattern_lookup(Subregion.P2, "rybczynski")
    assert p2.entries == ((1, -1, 1), (-1, 1, 1))
    m1 = sign_pattern_lookup(Subregion.M1, "rybczynski")
    assert m1.entries == ((1, 1, -1), (-1, -1, 1))
    p3 = sign_pattern_lookup(Subregion.P3, "stolper_samuelson")
    assert p3.entries == ((1, -1, 1), (1, -1, 1))
    with pytest.raises(ValueError):
        sign_pattern_lookup(Subregion.P1, "unknown")


def test_sign_tables_pair_up():
    # The last five negative-side subregions replay the positive-side
    # tables in order.
    pairs = [
        (Subregion.M3, Subregion.P1),
        (Subregion.M4, Subregion.P2),
        (Subregion.M5, Subregion.P3),
        (Subregion.M6, Subregion.P4),
        (Subregion.M7, Subregion.P5),
    ]
    for m, p in pairs:
        assert RYBCZYNSKI_SIGNS[m] == RYBCZYNSKI_SIGNS[p]
        assert STOLPER_SAMUELSON_SIGNS[m] == STOLPER_SAMUELSON_SIGNS[p]


def test_reward_signs_follow_output_signs():
    # Reciprocity at the sign level: the first reward row flips the
    # second output row, the second reward row copies the first.
    for region in Subregion:
        ryb = RYBCZYNSKI_SIGNS[region]
        ss = STOLPER_SAMUELSON_SIGNS[region]
        assert ss[0] == tuple(-v for v in ryb[1])
        assert ss[1] == ryb[0]


def test_output_signs_follow_signatures():
    # Each output sign factors into the offset-grid sign, the cofactor
    # parity, the vertical line-coefficient sign, the denominator sign,
    # and the (negative) determinant sign. The vertical signs are read
    # off the closed-form lines of random ranked economies, so H and the
    # table are checked against the factored cofactor e * t * offset.
    rng = np.random.default_rng(46)
    for _ in range(50):
        abe = line_coefficients(random_ranked_table(rng)).abe
        for sector in range(2):
            vertical_signs = tuple(int(v) for v in np.sign(abe[:, sector, 2]))
            assert vertical_signs == (1, -1, -1)  # land, capital, labor lines
            for region in Subregion:
                for factor in range(3):
                    parity = 1 if (factor + sector) % 2 == 0 else -1
                    assert H[sector][factor] == -parity * vertical_signs[factor]
                    derived = (
                        -1
                        * parity
                        * vertical_signs[factor]
                        * region.sign_t
                        * SIGNATURES[region][sector][factor]
                    )
                    want = RYBCZYNSKI_SIGNS[region][sector][factor]
                    assert derived == want, (region, sector, factor)


def test_strong_result_set():
    strong = {r for r in Subregion if strong_rybczynski(r)}
    assert strong == {
        Subregion.P1,
        Subregion.P2,
        Subregion.P3,
        Subregion.M3,
        Subregion.M4,
        Subregion.M5,
    }
    # The paper's sufficient condition on the ratio vector's position:
    # below both land lines and above both capital lines, offsets taken
    # in the direction of the denominator's sign.
    for region, signature in SIGNATURES.items():
        (land_1, capital_1, _), (land_2, capital_2, _) = (
            tuple(region.sign_t * o for o in row) for row in signature
        )
        below_land = land_1 < 0 and land_2 < 0
        above_capital = capital_1 > 0 and capital_2 > 0
        assert strong_rybczynski(region) == (below_land and above_capital), region


# The paper's output-response sign table, one pattern per subregion:
# rows sectors, columns (land, capital, labor).
PAPER_RYBCZYNSKI_SIGNS = {
    Subregion.P1: ((1, -1, -1), (-1, 1, 1)),
    Subregion.P2: ((1, -1, 1), (-1, 1, 1)),
    Subregion.P3: ((1, -1, 1), (-1, 1, -1)),
    Subregion.P4: ((1, -1, 1), (1, 1, -1)),
    Subregion.P5: ((-1, -1, 1), (1, 1, -1)),
    Subregion.M1: ((1, 1, -1), (-1, -1, 1)),
    Subregion.M2: ((1, 1, -1), (-1, 1, 1)),
    Subregion.M3: ((1, -1, -1), (-1, 1, 1)),
    Subregion.M4: ((1, -1, 1), (-1, 1, 1)),
    Subregion.M5: ((1, -1, 1), (-1, 1, -1)),
    Subregion.M6: ((1, -1, 1), (1, 1, -1)),
    Subregion.M7: ((-1, -1, 1), (1, 1, -1)),
}


def test_derived_output_table_is_the_papers():
    # The Hadamard product of H with the signatures gives back the
    # paper's table, as plain int tuples in subregion order.
    assert RYBCZYNSKI_SIGNS == PAPER_RYBCZYNSKI_SIGNS
    assert list(RYBCZYNSKI_SIGNS) == list(Subregion)
    for rows in RYBCZYNSKI_SIGNS.values():
        assert all(type(v) is int for row in rows for v in row)


# Exact arithmetic: shares are multiples of 1/_SHARE_UNIT, so the floats
# handed to build_share_table are the same numbers; the drawn
# off-diagonal elasticities are multiples of 1/_AES_UNIT in [-3, 3].
_SHARE_UNIT = 1024
_AES_UNIT = 256
_OFF_DIAGONALS = ((LAND, CAPITAL), (LAND, LABOR), (CAPITAL, LABOR))


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _exact_ranked_shares(rng):
    """theta[factor][sector] and theta_sector as Fractions that meet both
    rankings, with the margins of random_ranked_table."""
    n = _SHARE_UNIT
    while True:
        columns = []
        for _ in range(2):
            lo, hi = sorted(rng.sample(range(1, n), 2))
            columns.append((lo, hi - lo, n - hi))
        theta = [[Fraction(columns[j][i], n) for j in range(2)] for i in range(3)]
        first = Fraction(rng.randint(n // 20, n - n // 20), n)
        a, b, e = (row[0] - row[1] for row in theta)
        ratio = [row[0] / row[1] for row in theta]
        if (
            min(min(row) for row in theta) > Fraction(1, 50)
            and min(a, -b, e) >= Fraction(1, 100)
            and ratio[LAND] > ratio[LABOR] > ratio[CAPITAL]
        ):
            return theta, (first, 1 - first)


def _exact_aes(theta, sector, off):
    """One sector's Allen tensor from its three off-diagonals, diagonal
    completed by homogeneity, and whether it passes the validity checks
    (own elasticities negative, land-capital minor positive)."""
    sigma = [[Fraction(0)] * 3 for _ in range(3)]
    for (i, k), value in zip(_OFF_DIAGONALS, off):
        sigma[i][k] = sigma[k][i] = value
    th = [row[sector] for row in theta]
    for i in range(3):
        sigma[i][i] = -sum(th[k] * sigma[i][k] for k in range(3)) / th[i]
    minor = (
        th[LAND] ** 2 * th[CAPITAL] ** 2
        * (sigma[LAND][LAND] * sigma[CAPITAL][CAPITAL] - sigma[LAND][CAPITAL] ** 2)
    )
    return sigma, all(sigma[i][i] < 0 for i in range(3)) and minor > 0


def _exact_g(theta, lam, sigmas):
    """Economy-wide substitution g[i][h] = sum_j lam[i][j] theta[h][j]
    sigma_j[i][h]."""
    return [
        [sum(lam[i][j] * theta[h][j] * sigmas[j][i][h] for j in range(2)) for h in range(3)]
        for i in range(3)
    ]


def _exact_system(theta, lam, g):
    """The 5x5 comparative-statics matrix, rebuilt from its definition."""
    return [theta_row + [0, 0] for theta_row in map(list, zip(*theta))] + [
        g[f] + lam[f] for f in range(3)
    ]


def _exact_reduce(m, n):
    """Gauss-Jordan elimination of the first n columns of the Fraction
    rows m, in place; returns the determinant of that n x n block."""
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(len(m)):
            if r != col and m[r][col]:
                f = m[r][col] / m[col][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def _exact_det(a) -> Fraction:
    return _exact_reduce([list(row) for row in a], len(a))


def _exact_output_responses(a):
    """Output responses [sector][factor] to unit endowment shocks and the
    determinant, by exact elimination of the 5x5 system a."""
    m = [list(row) + [Fraction(int(r == 2 + f)) for f in range(3)] for r, row in enumerate(a)]
    det = _exact_reduce(m, 5)
    return [[m[3 + s][5 + f] / m[3 + s][3 + s] for f in range(3)] for s in range(2)], det


def _exact_lines(theta, lam, tf):
    """Coefficients (a, b, e) [factor][sector] of the line forms
    e*u - a*s - b*t, read off the output-response cofactors of the 5x5
    system at the unit (s, t, u) triples. The cofactor of sector s and
    factor f is minus the minor at row 2 + f, column 3 + s, and it is
    linear in g, which share-weighted symmetry and zero row sums fix from
    (s, t, u)."""
    forms = []
    for unit in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        g = [[Fraction(0)] * 3 for _ in range(3)]
        g[LABOR][CAPITAL], g[LABOR][LAND], g[CAPITAL][LAND] = map(Fraction, unit)
        for i, h in ((LABOR, CAPITAL), (LABOR, LAND), (CAPITAL, LAND)):
            g[h][i] = tf[i] / tf[h] * g[i][h]
        for i in range(3):
            g[i][i] = -sum(g[i])
        a = _exact_system(theta, lam, g)
        minor = [
            [
                _exact_det([row[: 3 + s] + row[4 + s :] for r, row in enumerate(a) if r != 2 + f])
                for s in range(2)
            ]
            for f in range(3)
        ]
        forms.append(minor)
    by_s, by_t, by_u = forms
    return [[(by_s[f][s], by_t[f][s], -by_u[f][s]) for s in range(2)] for f in range(3)]


def _exact_forms(theta, lam, lines, sigmas):
    """g, the six line forms [sector][factor] and t of one draw."""
    g = _exact_g(theta, lam, sigmas)
    s, t, u = g[LABOR][CAPITAL], g[LABOR][LAND], g[CAPITAL][LAND]
    forms = [
        [e * u - a * s - b * t for a, b, e in (lines[f][sector] for f in range(3))]
        for sector in range(2)
    ]
    return g, forms, t


def _exact_draw(rng, theta):
    """Both sectors' valid Allen tensors from random off-diagonals."""
    while True:
        pair = [
            _exact_aes(
                theta,
                j,
                [Fraction(rng.randint(-3 * _AES_UNIT, 3 * _AES_UNIT), _AES_UNIT) for _ in range(3)],
            )
            for j in range(2)
        ]
        if all(ok for _, ok in pair):
            return [sigma for sigma, _ in pair]


def _near_line(rng, theta, lam, lines, sigmas):
    """sigmas with one random off-diagonal moved so that the offset to a
    random line is a random o with 0 < |o| <= 1e-15, or None when that
    tensor is invalid. The offset times e t is linear in the moved value,
    so the value is one division away."""
    j, slot = rng.randrange(2), rng.randrange(3)
    f, sector = rng.randrange(3), rng.randrange(2)
    o = Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), 10**21)
    off = [sigmas[j][p][q] for p, q in _OFF_DIAGONALS]

    def moved(x):
        return _exact_aes(theta, j, off[:slot] + [x] + off[slot + 1 :])

    def gap(x):
        _, forms, t = _exact_forms(theta, lam, lines, [*sigmas[:j], moved(x)[0], *sigmas[j + 1 :]])
        return forms[sector][f] - o * lines[f][sector][2] * t

    g0, g1 = gap(Fraction(0)), gap(Fraction(1))
    if g0 == g1:
        return None
    sigma, ok = moved(g0 / (g0 - g1))
    return [*sigmas[:j], sigma, *sigmas[j + 1 :]] if ok else None


def test_exact_responses_follow_the_hadamard_rule():
    # Random rational ranked economies, solved exactly: every output
    # response has the sign sign_t * H[s][f] * sign(offset) of its line's
    # offset = form / (e t), and the signs are the tabled pattern of the
    # exactly classified subregion. Half the draws sit within 1e-15 of a
    # line, where floats cannot call the offset's sign.
    rng = random.Random(47)
    by_signature = {(SIGNATURES[r], r.sign_t): r for r in Subregion}
    checked = near = 0
    for _ in range(12):
        theta, ts = _exact_ranked_shares(rng)
        tf = [sum(row[j] * ts[j] for j in range(2)) for row in theta]
        lam = [[ts[j] * row[j] / tf[i] for j in range(2)] for i, row in enumerate(theta)]
        lines = _exact_lines(theta, lam, tf)
        table = build_share_table([list(map(float, row)) for row in theta], list(map(float, ts)))
        abe = line_coefficients(table).abe
        for f in range(3):
            for sector in range(2):
                assert _sign(lines[f][sector][2]) == (1, -1, -1)[f]
                for want, got in zip(lines[f][sector], abe[f, sector]):
                    assert math.isclose(float(want), got, rel_tol=1e-12), (f, sector)

        draws = []
        while len(draws) < 8:
            sigmas = _exact_draw(rng, theta)
            if len(draws) % 2:
                sigmas = _near_line(rng, theta, lam, lines, sigmas)
            if sigmas is not None:
                draws.append(sigmas)

        for sigmas in draws:
            g, forms, t = _exact_forms(theta, lam, lines, sigmas)
            assert t != 0
            sign_t = _sign(t)
            offsets = [[forms[s][f] / (lines[f][s][2] * t) for f in range(3)] for s in range(2)]
            assert all(offset for row in offsets for offset in row)
            near += min(abs(offset) for row in offsets for offset in row) <= Fraction(1, 10**15)
            ryb, det = _exact_output_responses(_exact_system(theta, lam, g))
            assert det < 0
            signs = tuple(tuple(_sign(v) for v in row) for row in ryb)
            rule = tuple(
                tuple(sign_t * H[s][f] * _sign(offsets[s][f]) for f in range(3)) for s in range(2)
            )
            assert signs == rule
            signature = tuple(tuple(_sign(v) for v in row) for row in offsets)
            assert signs == RYBCZYNSKI_SIGNS[by_signature[signature, sign_t]]
            checked += 1
    assert checked == 96 and near >= 48


def test_table_check_refuses_a_sign_too_close_to_call():
    # The reference P2 values, then one entry of 1e-14 or NaN in place of
    # a tabled +1: its sign is 0, which no table holds.
    values = np.concatenate((REFERENCE_RYBCZYNSKI, [REFERENCE_PRICE_REWARDS]))
    values = np.concatenate((values, values[2:] + 1.0))
    clean = statics._signs(values)
    for shaky in (1e-14, np.nan):
        values[0, 0] = shaky
        signs = statics._signs(values)
        assert signs[0, 0] == 0
        disagree, tabled = statics._contradicts_tables(
            np.stack([clean, signs]), (Subregion.P2,), [0, 0]
        )
        assert disagree.tolist() == [False, True]
        assert tabled[0].tolist() == clean.tolist()
        message = str(statics._sign_mismatch(Subregion.P2, signs, tabled[1]))
        assert message.startswith(
            "computed signs contradict the tabled signs of P2: "
            "output signs [[0, -1, 1], [-1, 1, 1]] vs [[1, -1, 1], [-1, 1, 1]]"
        ), message


def flipped(table, region):
    """The table's rows for region with its first entry negated."""
    (top, bottom) = table[region]
    return ((-top[0],) + top[1:], bottom)


@pytest.mark.parametrize("table", [RYBCZYNSKI_SIGNS, STOLPER_SAMUELSON_SIGNS], ids=["ryb", "ss"])
def test_report_and_sweep_refuse_a_wrong_table_alike(monkeypatch, table):
    # STOLPER_SAMUELSON_SIGNS is derived at import, so each table is
    # patched where it is read.
    monkeypatch.setitem(table, Subregion.P2, flipped(table, Subregion.P2))
    with pytest.raises(ClosedFormMismatch, match=r"tabled signs of P2: ") as report_error:
        run_report(reference_scenario())
    # The reference template is Cobb-Douglas: every cross elasticity is 1.
    with pytest.raises(ClosedFormMismatch) as sweep_error:
        sweep(reference_scenario(), parse_grid("land_capital_1=1:1:1"))
    prefix, _, message = str(sweep_error.value).partition("): ")
    assert prefix.startswith("grid point 0 (land_capital_1=1.0,")
    assert message == str(report_error.value)


# Each cross-check, fed one corrupted route: a value off by half, or a
# NaN, must end in a ConsistencyError.
BAD_FACTORS = pytest.mark.parametrize("bad", [1.5, float("nan")], ids=["finite", "nan"])


def reference_scenario():
    """The reference scenario without its shocks."""
    return scenario_from_mapping({**REFERENCE_DOC, "shocks": []})


@BAD_FACTORS
def test_cofactor_check_catches_a_wrong_expanded_route(monkeypatch, bad):
    real = statics._expanded_cofactors

    def corrupted(*args):
        values = real(*args)
        values[CAPITAL] *= bad
        return values

    monkeypatch.setattr(statics, "_expanded_cofactors", corrupted)
    with pytest.raises(ClosedFormMismatch, match="expanded cofactor route disagrees"):
        run_report(reference_scenario())


@BAD_FACTORS
def test_cofactor_check_catches_a_wrong_factored_route(monkeypatch, reference_table, bad):
    # The factored route alone reads the ratio vector's denominator t.
    real = statics.ews_ratio_vector

    def corrupted(g):
        vector = real(g)
        return dataclasses.replace(vector, t=vector.t * bad)

    monkeypatch.setattr(statics, "ews_ratio_vector", corrupted)
    with pytest.raises(ClosedFormMismatch, match="cofactor route"):
        cofactors(reference_table, reference_g())


@BAD_FACTORS
def test_output_check_catches_a_wrong_closed_form(monkeypatch, bad):
    # The determinant's routes agree; the value the closed form divides
    # by is then corrupted.
    real = statics.determinant_delta

    def corrupted(*args):
        delta = real(*args)
        return dataclasses.replace(delta, via_own_terms=delta.via_own_terms * bad)

    monkeypatch.setattr(statics, "determinant_delta", corrupted)
    with pytest.raises(ClosedFormMismatch, match="output-response closed form disagrees"):
        run_report(reference_scenario())


def corrupt_price_column(monkeypatch, bad):
    """Scale the capital reward of the check solve's price-shock column by
    bad, after the solve's own residual check."""
    real = statics._dense_solve

    def corrupted(a, rhs):
        x, residual = real(a, rhs)
        if rhs is statics._CHECK_SHOCKS:
            x[CAPITAL, -1] *= bad
        return x, residual

    monkeypatch.setattr(statics, "_dense_solve", corrupted)


@BAD_FACTORS
def test_reciprocity_check_catches_a_wrong_price_response(monkeypatch, bad):
    corrupt_price_column(monkeypatch, bad)
    with pytest.raises(ClosedFormMismatch, match="reciprocity form disagrees"):
        run_report(reference_scenario())


@BAD_FACTORS
def test_check_solve_residual_catches_a_wrong_solution(monkeypatch, bad):
    real = np.linalg.solve

    def corrupted(a, rhs):
        x = real(a, rhs)
        x[3] *= bad
        return x

    monkeypatch.setattr(np.linalg, "solve", corrupted)
    with pytest.raises(SingularSystem, match="solve residual"):
        run_report(reference_scenario())


def test_check_residual_is_bounded_per_column(monkeypatch, reference_table):
    # On the reference system the four check columns have residual
    # scales of about 1.44, 1.44, 1.00 and 4.45. A residual of 2e-10 in
    # column 2 is twice the bound of that column, whatever the other
    # columns' scales: the report and the sweep's dense check both refuse it.
    real = np.linalg.solve

    def corrupted(a, rhs):
        x = real(a, rhs)
        if rhs.shape[-1] == 4:
            # a @ x - rhs gains 2e-10 in row 0 of column 2.
            x[..., :, 2] += 2e-10 * real(a, np.eye(5)[:, :1])[..., 0]
        return x

    monkeypatch.setattr(np.linalg, "solve", corrupted)
    with pytest.raises(SingularSystem, match=r"solve residual 2\.0\d*e-10 exceeds"):
        run_report(reference_scenario())
    a = assemble_system(reference_table, reference_g()).a
    _, residual = dense_signs(SystemMatrix(a=a[np.newaxis]))
    assert residual[0] == pytest.approx(2e-10, rel=1e-3)
    assert not residual[0] <= statics.RESIDUAL_TOL
    with pytest.raises(
        SingularSystem, match=r"^grid point 0 \(.*\): solve residual 2\.0\d*e-10 exceeds"
    ):
        sweep(reference_scenario(), parse_grid("land_capital_1=1:1:1"))


def test_mismatch_messages_name_both_values(monkeypatch, reference_table):
    # Reciprocity: the deflator, the factor, and both values as floats.
    corrupt_price_column(monkeypatch, 1.5)
    with pytest.raises(ClosedFormMismatch) as caught:
        run_report(reference_scenario())
    message = str(caught.value)
    found = re.search(r"at deflator 1, factor 1: (\S+) vs (\S+)$", message)
    assert found is not None, message
    closed, solved = (float(v) for v in found.groups())
    assert closed == pytest.approx(REFERENCE_PRICE_REWARDS[CAPITAL], rel=1e-12)
    assert solved == pytest.approx(1.5 * REFERENCE_PRICE_REWARDS[CAPITAL], rel=1e-9)
    monkeypatch.undo()

    # Determinant: plain float reprs, no numpy scalar reprs.
    monkeypatch.setattr(np.linalg, "det", lambda a: -0.3)
    g = reference_g()
    with pytest.raises(ClosedFormMismatch) as caught:
        determinant_delta(assemble_system(reference_table, g), reference_table, g)
    message = str(caught.value)
    assert "np.float64" not in message
    assert re.fullmatch(
        r"determinant routes disagree: dense -0\.3, own-terms -0\.1600395974\d*, "
        r"cross-terms -0\.1600395974\d*",
        message,
    ), message


# The closed forms as numpy float64 scalar arithmetic, one route and one
# entry at a time, for the bit-identity property below.


def reference_det3(m: np.ndarray):
    return (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def reference_statics(table, g):
    """(dense determinant, own-terms determinant, cross-terms determinant,
    output elasticities, real-reward elasticities)."""
    gg = g.g
    a, b, _ = table.diff
    tf = table.theta_factor
    ts = table.theta_sector
    scale = ts[0] * ts[1] / (tf[LAND] * tf[CAPITAL] * tf[LABOR])
    own = scale * (
        a * a * gg[CAPITAL, CAPITAL] * tf[CAPITAL]
        + b * b * gg[LAND, LAND] * tf[LAND]
        - 2.0 * a * b * gg[CAPITAL, LAND] * tf[CAPITAL]
    )
    cross = -scale * (
        (a + b) ** 2 * gg[CAPITAL, LAND] * tf[CAPITAL]
        + gg[LABOR, CAPITAL] * tf[LABOR] * a * a
        + gg[LABOR, LAND] * tf[LABOR] * b * b
    )
    ryb = np.empty((2, 3))
    for sector in range(2):
        lc = table.lam[:, 1 - sector]
        for factor in range(3):
            i, h = [f for f in range(3) if f != factor]
            m = np.array(
                [
                    [a, b, 0.0],
                    [gg[i, LAND], gg[i, CAPITAL], lc[i]],
                    [gg[h, LAND], gg[h, CAPITAL], lc[h]],
                ]
            )
            parity = 1.0 if (factor + sector) % 2 == 0 else -1.0
            ryb[sector, factor] = parity * reference_det3(m) / own
    ss = np.empty((2, 3))
    for factor in range(3):
        ss[0, factor] = -(ts[1] / tf[factor]) * ryb[1, factor]
        ss[1, factor] = (ts[0] / tf[factor]) * ryb[0, factor]
    dense = float(np.linalg.det(dense_system(table, g)))
    return dense, own, cross, ryb, ss


def reference_rows(arr) -> str:
    """Report rows of a matrix formatted from numpy float64 scalars."""
    return "".join("  " + "  ".join(f"{v:+.6f}" for v in row) + "\n" for row in np.asarray(arr))


def same_bits(x, y) -> bool:
    return np.asarray(x, dtype=float).tobytes() == np.asarray(y, dtype=float).tobytes()


@st.composite
def report_cases(draw):
    """A sampled valid scenario on a random ranked table, with up to
    three random shocks."""
    seeds = st.integers(0, 2**32 - 1)
    table = random_ranked_table(np.random.default_rng(draw(seeds)))
    aes = sample_valid_aes(table, draw(seeds))
    size = st.floats(-5.0, 5.0)
    shock = st.builds(
        ShockVector, price_shock=size, endowment_shocks=st.tuples(size, size, size)
    )
    shocks = tuple(draw(st.lists(shock, max_size=3)))
    try:
        return Scenario(name="drawn", table=table, aes=aes, shocks=shocks)
    except (OnLine, DegenerateT):
        reject()


@given(report_cases())
def test_report_matches_numpy_scalar_reference(scenario):
    table = scenario.table
    report = run_report(scenario)
    g = ews_from_epsilon(epsilon_from_aes(scenario.aes, table), table)
    assert same_bits(report.ews.g, g.g)
    dense, own, cross, ryb, ss = reference_statics(table, g)
    assert same_bits(report.delta.dense, dense)
    assert same_bits(report.delta.via_own_terms, own)
    assert same_bits(report.delta.via_cross_terms, cross)
    assert same_bits(report.rybczynski, ryb)
    assert same_bits(report.stolper_samuelson, ss)

    a = dense_system(table, g)
    assert len(report.responses) == len(scenario.shocks)
    residuals = []
    for shock, (echo, response) in zip(scenario.shocks, report.responses):
        rhs = shock.right_hand_side()
        x = np.linalg.solve(a, rhs)
        residuals.append(float(np.max(np.abs(a @ x - rhs))))
        assert echo == shock
        assert same_bits(response.as_array(), x)
        assert same_bits(response.residual, residuals[-1])
    assert same_bits(report.max_residual, np.max(residuals, initial=0.0))

    text = format_report(report)
    assert "economy-wide substitution (rows/cols land, capital, labor):\n" + reference_rows(
        g.g
    ) in text
    assert (
        "output elasticities:\n"
        + reference_rows(ryb)
        + "real-reward elasticities:\n"
        + reference_rows(ss)
        + f"system determinant: {own:.9g}\n"
    ) in text
    if residuals:
        assert f"worst solve residual: {np.max(residuals):.3e}\n" in text

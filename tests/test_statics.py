import numpy as np
import pytest

from ews32 import (
    CAPITAL,
    LABOR,
    LAND,
    ClosedFormMismatch,
    EwsMatrix,
    ShockVector,
    SingularSystem,
    Subregion,
    SystemMatrix,
    assemble_system,
    cofactors,
    comparative_statics,
    determinant_delta,
    line_coefficients,
    sign_pattern_from_values,
    sign_pattern_lookup,
    solve_responses,
    strong_rybczynski,
)
from ews32.geometry import SIGNATURES
from ews32.statics import RYBCZYNSKI_SIGNS, STOLPER_SAMUELSON_SIGNS, dense_signs

from conftest import (
    dense_output_elasticities,
    dense_price_rewards,
    matrix_at,
    random_ranked_table,
    random_valid_ews,
    sign_grid,
)
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
    # A NaN shock solves to NaN; its residual must fail the check.
    sys = assemble_system(reference_table, reference_g())
    with pytest.raises(SingularSystem):
        solve_responses(sys, ShockVector(price_shock=float("nan")))


def test_dense_signs_on_a_stack(reference_table):
    # The reference system beside a singular one: the first gets the P2
    # sign grids, the second a NaN residual rather than an exception.
    good = assemble_system(reference_table, reference_g()).a
    ryb, ss, residual = dense_signs(SystemMatrix(a=np.stack([good, np.zeros((5, 5))])))
    assert ryb.shape == ss.shape == (2, 2, 3)
    assert tuple(map(tuple, ryb[0].tolist())) == RYBCZYNSKI_SIGNS[Subregion.P2]
    assert tuple(map(tuple, ss[0].tolist())) == STOLPER_SAMUELSON_SIGNS[Subregion.P2]
    assert residual[0] <= 1e-10
    assert np.isnan(residual[1])


def test_rybczynski_reference(reference_table):
    ryb = comparative_statics(reference_table, reference_g()).rybczynski
    assert np.allclose(ryb, REFERENCE_RYBCZYNSKI, atol=1e-12)


def test_rybczynski_matches_dense_oracle():
    rng = np.random.default_rng(44)
    for trial in range(150):
        table = random_ranked_table(rng)
        g = random_valid_ews(table, 6000 + trial)
        ryb = comparative_statics(table, g).rybczynski
        dense = dense_output_elasticities(table, g)
        scale = np.abs(dense).max()
        assert np.abs(ryb - dense).max() <= 1e-9 * max(scale, 1.0)
        assert sign_grid(ryb) == sign_grid(dense)


def test_stolper_samuelson_reference(reference_table):
    ss = comparative_statics(reference_table, reference_g()).stolper_samuelson
    assert np.allclose(ss[0], REFERENCE_PRICE_REWARDS, atol=1e-12)
    assert np.allclose(ss[1], np.asarray(REFERENCE_PRICE_REWARDS) + 1.0, atol=1e-12)


def test_stolper_samuelson_reciprocity_random():
    # Row one is the dense reward response to a relative price shock;
    # row two differs by exactly the shock itself.
    rng = np.random.default_rng(45)
    for trial in range(60):
        table = random_ranked_table(rng)
        g = random_valid_ews(table, 7000 + trial)
        ss = comparative_statics(table, g).stolper_samuelson
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
    # off the closed-form lines of random ranked economies, so the table
    # is checked against the factored cofactor e * t * offset.
    rng = np.random.default_rng(46)
    for _ in range(50):
        abe = line_coefficients(random_ranked_table(rng)).abe
        for sector in range(2):
            vertical_signs = tuple(int(v) for v in np.sign(abe[:, sector, 2]))
            assert vertical_signs == (1, -1, -1)  # land, capital, labor lines
            for region in Subregion:
                for factor in range(3):
                    parity = 1 if (factor + sector) % 2 == 0 else -1
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


def test_sign_pattern_from_values_flags_zeros():
    clean = sign_pattern_from_values(np.array([[1.0, -2.0, 3.0], [-1.0, 2.0, -3.0]]), "rybczynski")
    assert not clean.zero_flagged
    assert clean.entries == ((1, -1, 1), (-1, 1, -1))
    shaky = sign_pattern_from_values(np.array([[1.0, -2.0, 1e-14], [-1.0, 2.0, -3.0]]), "rybczynski")
    assert shaky.zero_flagged
    assert shaky.entries[0][2] == 0
    # A NaN has no sign to call either.
    blank = sign_pattern_from_values(
        np.array([[1.0, -2.0, np.nan], [-1.0, 2.0, -3.0]]), "rybczynski"
    )
    assert blank.zero_flagged
    assert blank.entries[0][2] == 0

import math
import re

import numpy as np
import pytest

from ews32 import (
    CAPITAL,
    LABOR,
    LAND,
    AesTensor,
    ConsistencyError,
    DegenerateT,
    EwsMatrix,
    GenerationExhausted,
    Infeasible,
    InconsistentLevels,
    InvalidAes,
    NonPositiveLevels,
    ParseError,
    Scenario,
    aggregate_substitution,
    cobb_douglas_aes,
    epsilon_from_aes,
    ews_from_epsilon,
    ews_from_stu,
    ews_ratio_vector,
    require_valid_aes,
    sample_valid_aes,
    sweep,
    validate_aes,
)
from ews32.substitution import IDENTITY_TOL, _aes_flags, _aggregate, _complete, _term
from ews32.sweep import _sector_tensors

from conftest import QC_EDGE_SIGMA, ROUNDED_SIGMAS, random_ranked_table, random_valid_ews

# Cobb-Douglas EWS matrix for the reference table, frozen from an
# independent by-hand evaluation of g_ih = sum_j lam_ij * theta_hj * sigma.
REFERENCE_G = np.array(
    [
        [-0.5631578947368421, 0.22368421052631576, 0.33947368421052626],
        [0.2931034482758621, -0.6086206896551725, 0.31551724137931036],
        [0.39090909090909093, 0.2772727272727273, -0.6681818181818182],
    ]
)


def test_cobb_douglas_tensor_is_valid(reference_table):
    aes = cobb_douglas_aes(reference_table)
    report = validate_aes(aes, reference_table)
    assert report.ok
    require_valid_aes(aes, reference_table)


def test_cobb_douglas_epsilon_values(reference_table):
    aes = cobb_douglas_aes(reference_table)
    eps = epsilon_from_aes(aes, reference_table)
    # Off-diagonal eps equals the partner factor's distributive share.
    assert eps[0, LAND, CAPITAL] == pytest.approx(0.15, abs=1e-15)
    assert eps[1, LABOR, LAND] == pytest.approx(0.20, abs=1e-15)
    # Rows sum to zero by construction of the diagonal.
    assert np.allclose(eps.sum(axis=2), 0.0, atol=1e-14)


def test_reference_ews_matrix(reference_table):
    aes = cobb_douglas_aes(reference_table)
    g = ews_from_epsilon(epsilon_from_aes(aes, reference_table), reference_table)
    assert np.allclose(g.g, REFERENCE_G, atol=1e-14)


def test_ews_row_sums_and_weighted_symmetry(reference_table):
    g = ews_from_epsilon(
        epsilon_from_aes(cobb_douglas_aes(reference_table), reference_table),
        reference_table,
    )
    assert np.allclose(g.g.sum(axis=1), 0.0, atol=1e-13)
    w = g.g * np.asarray(reference_table.theta_factor)[:, None]
    assert np.allclose(w, w.T, atol=1e-13)


def test_scaled_aes_entry(reference_table):
    # Doubling one off-diagonal pair doubles the matching eps entry.
    sigma = cobb_douglas_aes(reference_table).sigma.copy()
    sigma[0, LAND, CAPITAL] = sigma[0, CAPITAL, LAND] = 2.0
    sigma[0, LAND, LAND] = -(
        reference_table.theta[CAPITAL, 0] * 2.0
        + reference_table.theta[LABOR, 0] * 1.0
    ) / reference_table.theta[LAND, 0]
    sigma[0, CAPITAL, CAPITAL] = -(
        reference_table.theta[LAND, 0] * 2.0
        + reference_table.theta[LABOR, 0] * 1.0
    ) / reference_table.theta[CAPITAL, 0]
    aes = AesTensor(sigma=sigma)
    require_valid_aes(aes, reference_table)
    eps = epsilon_from_aes(aes, reference_table)
    assert eps[0, LAND, CAPITAL] == pytest.approx(0.30, abs=1e-15)


def test_reference_ratio_vector():
    g = EwsMatrix(g=REFERENCE_G.copy())
    v = ews_ratio_vector(g)
    # (S', U') = (61/86, 935/1247) for the reference table, by hand
    assert v.s == pytest.approx(0.2772727272727273, abs=1e-14)
    assert v.t == pytest.approx(0.39090909090909093, abs=1e-14)
    assert v.u == pytest.approx(0.2931034482758621, abs=1e-14)
    assert v.s_prime == pytest.approx(0.7093023255813954, rel=1e-13)
    assert v.u_prime == pytest.approx(0.7497995188452286, rel=1e-13)
    assert v.sign_t == 1
    assert v.quadrant == 1


def test_quadrant_assignment():
    cases = {(1.0, 1.0): 1, (-1.0, 1.0): 2, (-1.0, -1.0): 3, (1.0, -1.0): 4}
    for (sp, up), want in cases.items():
        g = np.array(
            [
                [-(1.0 + up), up, 1.0],
                [up, -(up + sp), sp],
                [1.0, sp, -(1.0 + sp)],
            ]
        )
        # Only the ratios matter here; feed the raw matrix directly so
        # all four quadrants are reachable.
        v = ews_ratio_vector(EwsMatrix(g=g))
        assert v.quadrant == want


def test_degenerate_ratio_rejected():
    g = np.array(
        [
            [-1.0, 1.0, 0.0],
            [1.0, -1.5, 0.5],
            [0.0, 0.5, -0.5],
        ]
    )
    with pytest.raises(DegenerateT):
        ews_ratio_vector(EwsMatrix(g=g))


@pytest.mark.parametrize("shape", [(3, 3), (2, 3, 2), (1, 2, 3, 3)])
def test_aes_tensor_shape_enforced(shape):
    message = rf"^sigma must have shape \(2, 3, 3\), got {re.escape(str(shape))}$"
    with pytest.raises(ParseError, match=message):
        AesTensor(sigma=np.zeros(shape))


def test_validate_rejects_positive_own(reference_table):
    sigma = cobb_douglas_aes(reference_table).sigma.copy()
    sigma[0, LAND, LAND] = 0.5
    report = validate_aes(AesTensor(sigma=sigma), reference_table)
    assert not report.own_negativity_ok[0]
    with pytest.raises(InvalidAes) as info:
        require_valid_aes(AesTensor(sigma=sigma), reference_table)
    assert info.value.report == report
    assert report.failed_checks == ("own-negativity", "quasi-concavity", "homogeneity")


def test_validate_rejects_broken_homogeneity(reference_table):
    sigma = cobb_douglas_aes(reference_table).sigma.copy()
    sigma[1, LABOR, LAND] = sigma[1, LAND, LABOR] = 3.0  # diagonals left stale
    report = validate_aes(AesTensor(sigma=sigma), reference_table)
    assert not report.homogeneity_ok[1]


def test_validate_rejects_asymmetry(reference_table):
    sigma = cobb_douglas_aes(reference_table).sigma.copy()
    sigma[0, LAND, CAPITAL] = 2.0  # transpose cell untouched
    report = validate_aes(AesTensor(sigma=sigma), reference_table)
    assert not report.symmetry_ok[0]


def test_validate_rejects_indefinite_curvature(reference_table):
    # Build sigma from a target weighted matrix whose off-diagonals are
    # (-0.04, 0.05, 0.05): own terms stay negative but the concavity
    # minor x*y + x*z + y*z = -0.0015 fails.
    theta = reference_table.theta
    sigma = np.empty((2, 3, 3))
    off = {(LAND, CAPITAL): -0.04, (LAND, LABOR): 0.05, (CAPITAL, LABOR): 0.05}
    for j in range(2):
        for (i, h), e in off.items():
            sigma[j, i, h] = sigma[j, h, i] = e / (theta[i, j] * theta[h, j])
        for i in range(3):
            others = [h for h in range(3) if h != i]
            sigma[j, i, i] = -sum(theta[h, j] * sigma[j, i, h] for h in others) / theta[i, j]
    report = validate_aes(AesTensor(sigma=sigma), reference_table)
    assert all(report.own_negativity_ok)
    assert all(report.homogeneity_ok)
    assert not any(report.quasi_concavity_ok)


def test_quasi_concavity_flag_is_the_three_entry_minor(reference_table):
    # _aes_flags scales the whole tensor once; its verdict must be that of
    # the minor built from three separately scaled entries, bit for bit,
    # over magnitudes from 1e-300 to 1e300 and with inf and NaN entries.
    # In the second half the minor is zero but for roundoff, so the
    # product order decides its sign.
    rng = np.random.default_rng(29)
    n = 4000
    s = rng.choice([-1.0, 1.0], size=(3, 3, n)) * 10.0 ** rng.uniform(-300, 300, size=(3, 3, n))
    s[rng.random(size=s.shape) < 0.02] = np.inf
    s[rng.random(size=s.shape) < 0.02] = -np.inf
    s[rng.random(size=s.shape) < 0.02] = np.nan
    edges = slice(n // 2, None)
    s[LAND, LAND, edges] = -(10.0 ** rng.uniform(-140, 140, size=n // 2))
    s[CAPITAL, CAPITAL, edges] = -(10.0 ** rng.uniform(-140, 140, size=n // 2))
    s[LAND, CAPITAL, edges] = np.sqrt(s[LAND, LAND, edges] * s[CAPITAL, CAPITAL, edges])
    th = rng.dirichlet(np.ones(3), size=n).T
    edge = _complete(np.moveaxis(np.array(QC_EDGE_SIGMA), 0, -1), reference_table.theta)
    s = np.concatenate((s, edge), axis=-1)
    th = np.concatenate((th, reference_table.theta), axis=-1)

    def e(i, h):
        return th[i] * th[h] * s[i, h]

    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        want = e(LAND, LAND) * e(CAPITAL, CAPITAL) - e(LAND, CAPITAL) ** 2 > 0.0
    got = _aes_flags(s, th)[1]
    assert got.tolist() == want.tolist()
    # Both verdicts occur, and the edge tensor's sector 1 fails.
    assert want.any() and not want.all() and not got[-2]


def test_a_tensor_is_valid_only_with_its_completion(reference_table):
    # The tensor passes every check as stated; its completion, the tensor
    # that epsilon_from_aes analyses, fails sector 1's quasi-concavity.
    sigma = np.array(QC_EDGE_SIGMA)
    # The checks take both sectors' tensors as stack[i, h, sector].
    stack, th = np.moveaxis(sigma, 0, -1), reference_table.theta
    assert _aes_flags(stack, th).all()
    assert not _aes_flags(_complete(stack.copy(), th), th)[1, 0]
    aes = AesTensor(sigma=sigma)
    report = validate_aes(aes, reference_table)
    assert report.quasi_concavity_ok == (False, True)
    assert report.failed_checks == ("quasi-concavity",)
    message = r"^Allen tensor invalid: quasi-concavity \(sector 1\)$"
    for analyse in (require_valid_aes, epsilon_from_aes):
        with pytest.raises(InvalidAes, match=message) as info:
            analyse(aes, reference_table)
        assert info.value.report == report


def test_sampler_is_deterministic_and_valid(reference_table):
    a = sample_valid_aes(reference_table, 42)
    b = sample_valid_aes(reference_table, 42)
    assert np.array_equal(a.sigma, b.sigma)
    assert validate_aes(a, reference_table).ok
    c = sample_valid_aes(reference_table, 43)
    assert not np.array_equal(a.sigma, c.sigma)


def test_sampler_exhaustion(reference_table):
    with pytest.raises(GenerationExhausted):
        sample_valid_aes(reference_table, 1, max_attempts=0)


def test_sampled_ews_invariants():
    rng = np.random.default_rng(5)
    for trial in range(60):
        table = random_ranked_table(rng)
        g = random_valid_ews(table, trial)
        m = g.g
        assert m[LAND, LAND] < 0 and m[CAPITAL, CAPITAL] < 0 and m[LABOR, LABOR] < 0
        assert np.allclose(m.sum(axis=1), 0.0, atol=1e-12)
        negatives = sum(
            1 for v in (m[LABOR, CAPITAL], m[LABOR, LAND], m[CAPITAL, LAND]) if v < 0
        )
        assert negatives <= 1
        assert m[CAPITAL, CAPITAL] * m[LAND, LAND] - m[LAND, CAPITAL] * m[CAPITAL, LAND] > 0


def test_ews_from_stu_round_trip():
    rng = np.random.default_rng(17)
    for trial in range(40):
        table = random_ranked_table(rng)
        g = random_valid_ews(table, 1000 + trial)
        v = ews_ratio_vector(g)
        rebuilt = ews_from_stu(table, v.s, v.t, v.u)
        assert np.allclose(rebuilt.g, g.g, atol=1e-12)


def test_ews_from_stu_infeasible(reference_table):
    with pytest.raises(Infeasible):
        ews_from_stu(reference_table, 1.0, -2.0, 1.0)  # s + t <= 0
    with pytest.raises(Infeasible):
        ews_from_stu(reference_table, 1.0, 1.0, -5.0)  # concavity minor fails


@pytest.mark.parametrize("slot", range(3), ids=["s", "t", "u"])
@pytest.mark.parametrize(
    "value",
    [np.inf, -np.inf, np.nan, "a", True, 10**400],
    ids=["inf", "-inf", "nan", "string", "bool", "huge-int"],
)
def test_ews_from_stu_refuses_a_triple_not_finite_numbers(reference_table, slot, value):
    stu = [1.0, 1.0, 1.0]
    stu[slot] = value
    message = r"^\(s, t, u\) must hold finite numbers, not booleans or strings$"
    with pytest.raises(ParseError, match=message):
        ews_from_stu(reference_table, *stu)


def test_aggregate_substitution_reference(reference_table):
    g = EwsMatrix(g=REFERENCE_G.copy())
    theta = np.asarray(reference_table.theta_factor)
    s = aggregate_substitution(g, theta, np.ones(3))
    # s_LK = g_LK * V_L / w_K with V = factor shares, w = 1, by hand
    assert s[LABOR, CAPITAL] == pytest.approx(0.0915, abs=1e-14)
    assert np.allclose(s, s.T, atol=1e-10)


def test_aggregate_substitution_consistent_levels():
    rng = np.random.default_rng(23)
    for trial in range(20):
        table = random_ranked_table(rng)
        g = random_valid_ews(table, 2000 + trial)
        w = rng.uniform(0.5, 2.0, size=3)
        v = np.asarray(table.theta_factor) / w
        s = aggregate_substitution(g, v, w)
        assert np.allclose(s, s.T, atol=1e-10)
        assert s[LAND, LAND] < 0 and s[CAPITAL, CAPITAL] < 0 and s[LABOR, LABOR] < 0


def test_aggregate_substitution_rejects_bad_levels(reference_table):
    g = EwsMatrix(g=REFERENCE_G.copy())
    with pytest.raises(NonPositiveLevels):
        aggregate_substitution(g, np.array([1.0, -1.0, 1.0]), np.ones(3))
    with pytest.raises(NonPositiveLevels):
        aggregate_substitution(g, np.ones(3), np.array([1.0, 0.0, 1.0]))
    # Equal endowments with equal rewards are not proportional to the
    # factor shares, so the cross terms cannot be symmetric.
    with pytest.raises(InconsistentLevels):
        aggregate_substitution(g, np.ones(3), np.ones(3))


def test_aggregate_substitution_refuses_nan_levels(reference_table):
    # A NaN level is not a finite number; it must not get as far as the
    # positivity or symmetry checks.
    g = EwsMatrix(g=REFERENCE_G.copy())
    theta = np.asarray(reference_table.theta_factor)
    with pytest.raises(ParseError):
        aggregate_substitution(g, np.array([np.nan, 1.0, 1.0]), np.ones(3))
    with pytest.raises(ParseError):
        aggregate_substitution(g, theta, np.array([1.0, np.nan, 1.0]))


def test_identity_checks_fail_on_nan(reference_table):
    # A NaN gap compares false against any bound, so each identity check
    # must be written to fail, not pass, on it.
    g = REFERENCE_G.copy()
    g[LAND, CAPITAL] = np.nan
    with pytest.raises(InconsistentLevels):
        aggregate_substitution(EwsMatrix(g=g), reference_table.theta_factor, np.ones(3))
    # A NaN labor-capital term breaks only the identities among the
    # economy-wide invariants.
    eps = epsilon_from_aes(cobb_douglas_aes(reference_table), reference_table).copy()
    eps[:, LABOR, CAPITAL] = np.nan
    with pytest.raises(ConsistencyError, match="rows must sum to zero"):
        ews_from_epsilon(eps, reference_table)


def completed(sigma, table):
    """The completion of sigma[sector, i, h], completed as sigma[i, h, sector]."""
    return np.moveaxis(_complete(np.moveaxis(np.array(sigma), 0, -1), table.theta), -1, 0)


def test_completion_keeps_complete_tensors_bit_for_bit(reference_table):
    # Every tensor the package completes itself is a fixed point of the
    # completion, so analysing the completion moves no golden byte.
    rng = np.random.default_rng(29)
    # Axes as the sweep hands them over: float arrays in grid key order.
    grid = {"land_capital_1": np.array([-2.0, 0.25, 2.0]), "capital_labor_2": np.array([-1.0, 1.5])}
    for k, table in enumerate([reference_table] + [random_ranked_table(rng) for _ in range(8)]):
        tensors = [cobb_douglas_aes(table).sigma]
        tensors += [sample_valid_aes(table, seed).sigma for seed in range(5 * k, 5 * k + 5)]
        for sigma in tensors:
            assert completed(sigma, table).tobytes() == sigma.tobytes()
        # The sweep's stack of each sector's tensors, completed with that
        # sector's shares: sector 1's three and sector 2's two.
        scenario = Scenario(name="template", table=table, aes=sample_valid_aes(table, 100 + k))
        sectors = _sector_tensors(scenario, grid)
        assert [sector.shape for sector in sectors] == [(3, 3, 3), (3, 3, 2)]
        for j, sector in enumerate(sectors):
            again = _complete(sector.copy(), table.theta[:, j, np.newaxis])
            assert again.tobytes() == sector.tobytes()


def test_aggregate_is_the_einsum_bit_for_bit(reference_table):
    # g[..., i, h] = sum over sectors j of lam[i, j] * eps[..., j, i, h],
    # with the bits of np.einsum's sum from zero: zeros of either sign,
    # infinities and NaNs included. The helpers take the stack as
    # eps[i, h, ..., j] and give g[i, h, ...].
    rng = np.random.default_rng(37)
    for table in [reference_table] + [random_ranked_table(rng) for _ in range(8)]:
        for shape in [(), (1,), (7,), (4, 3), (800,)]:
            size = (*shape, 2, 3, 3)
            eps = rng.normal(size=size) * 10.0 ** rng.integers(-8, 9, size)
            for value, share in [(0.0, 0.1), (-0.0, 0.1), (np.inf, 0.02), (-np.inf, 0.02)]:
                eps[rng.random(size) < share] = value
            eps[rng.random(size) < 0.02] = np.nan
            with np.errstate(invalid="ignore"):
                want = np.einsum("ij,...jih->...ih", table.lam, eps)
                lam = table.lam.reshape(3, *(1,) * len(shape), 2)
                terms = _term(np.moveaxis(eps, (-2, -1), (0, 1)), lam)
                got = np.moveaxis(_aggregate(terms[..., 0], terms[..., 1]), (0, 1), (-2, -1))
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # Negative zeros in both sectors' capital-labor slots give s = 0.0,
    # so the row reads s' = 0.0, never -0.0.
    scenario = Scenario("template", reference_table, cobb_douglas_aes(reference_table))
    (row,) = sweep(scenario, {"capital_labor_1": [-0.0], "capital_labor_2": [-0.0]})
    assert row["status"] == "ok" and math.copysign(1.0, row["s_prime"]) == 1.0


def test_epsilon_is_that_of_the_completion(reference_table):
    # Stated tensors off their completion by up to the identity
    # tolerance: rounded entries, and a lower triangle and own
    # elasticities moved within it.
    cases = [(reference_table, np.array(sigma)) for sigma in ROUNDED_SIGMAS.values()]
    rng = np.random.default_rng(31)
    for trial in range(40):
        table = random_ranked_table(rng)
        sigma = sample_valid_aes(table, trial).sigma
        rounded = np.array([float(f"{v:.10g}") for v in sigma.ravel()]).reshape(sigma.shape)
        moved = sigma * (1.0 + rng.uniform(-0.1, 0.1, size=sigma.shape) * IDENTITY_TOL)
        moved[:, 0, 1:] = sigma[:, 0, 1:]
        moved[:, 1, 2] = sigma[:, 1, 2]
        assert completed(moved, table).tobytes() == sigma.tobytes()
        cases += [(table, rounded), (table, moved)]
    checked = 0
    for table, stated in cases:
        aes = AesTensor(sigma=stated)
        if validate_aes(aes, table).ok:
            want = epsilon_from_aes(AesTensor(sigma=completed(stated, table)), table)
            assert epsilon_from_aes(aes, table).tobytes() == want.tobytes()
            checked += 1
    assert checked >= 42

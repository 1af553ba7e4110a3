import dataclasses
import math
import random
import re
import tracemalloc
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
    ParseError,
    Scenario,
    ShockVector,
    SingularSystem,
    Subregion,
    ValidationError,
    assemble_system,
    build_share_table,
    cofactors,
    comparative_statics,
    determinant_delta,
    epsilon_from_aes,
    ews_from_epsilon,
    ews_from_stu,
    format_report,
    line_coefficients,
    run_report,
    sample_valid_aes,
    scenario_from_mapping,
    sign_pattern_lookup,
    sweep,
    solve_responses,
    solve_shocks,
    strong_rybczynski,
)
from ews32 import geometry, statics
from ews32.geometry import SIGNATURES
from ews32.statics import H, RYBCZYNSKI_SIGNS, STOLPER_SAMUELSON_SIGNS, dense_signs
from ews32.sweep import parse_grid

from conftest import (
    ROUNDED_SIGMAS,
    _OFF_DIAGONALS,
    _exact_aes,
    _exact_g,
    _exact_lines,
    _exact_output_responses,
    _exact_system,
    dense_output_elasticities,
    dense_price_rewards,
    dense_system,
    matrix_at,
    patch_wrong_table,
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


def test_system_layout(reference_table):
    g = reference_g()
    a = assemble_system(reference_table, g)
    assert a.shape == (5, 5)
    assert np.array_equal(a[0, :3], np.asarray(reference_table.theta)[:, 0])
    assert np.array_equal(a[1, :3], np.asarray(reference_table.theta)[:, 1])
    assert np.array_equal(a[:2, 3:], np.zeros((2, 2)))
    for row in range(3):
        assert np.array_equal(a[2 + row, :3], g.g[row])
        assert np.array_equal(a[2 + row, 3:], np.asarray(reference_table.lam)[row])
    # The sweep's stack of matrices assembles each one as on its own.
    stacked = statics._system(reference_table, np.stack([g.g, 2.0 * g.g]))
    assert stacked.shape == (2, 5, 5)
    assert np.array_equal(stacked[0], a)
    assert np.array_equal(stacked[1], assemble_system(reference_table, EwsMatrix(g=2.0 * g.g)))


def test_epsilon_and_system_are_read_only_float_arrays(reference_table):
    g = reference_g()
    eps = epsilon_from_aes(sample_valid_aes(reference_table, 201), reference_table)
    stacked = statics._system(reference_table, np.stack([g.g, g.g]))
    derived = comparative_statics(reference_table, g)
    report = run_report(reference_scenario())
    for arr in (
        eps,
        assemble_system(reference_table, g),
        stacked,
        derived.system,
        derived.rybczynski,
        derived.stolper_samuelson,
        report.rybczynski,
        report.stolper_samuelson,
    ):
        assert type(arr) is np.ndarray and arr.dtype == np.float64
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 1.0
    assert eps.shape == (2, 3, 3)
    # Nothing writable behind epsilon either, where it is a view.
    assert eps.base is None or not eps.base.flags.writeable


def test_the_system_stack_is_frozen_without_a_copy(reference_table):
    # The sweep fills its stack of systems from a view of its points' g.
    g = np.broadcast_to(reference_g().g, (10_000, 3, 3))
    tracemalloc.start()
    try:
        system = statics._system(reference_table, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One (10000, 5, 5) stack of 2.0 MB; a copy to freeze it would double the peak.
    assert peak <= 1.25 * system.nbytes


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


def test_determinant_must_be_negative(reference_table):
    # The determinant is linear in g, so negating a valid g flips all
    # three routes to the same positive value; no valid g gets there.
    g = EwsMatrix(g=-REFERENCE_G)
    message = r"^system determinant must be negative, got 0\.16"
    with pytest.raises(ClosedFormMismatch, match=message):
        determinant_delta(assemble_system(reference_table, g), reference_table, g)


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
    # Its sector 1 labor elasticity would be -0.0, a sign no table holds:
    # comparative_statics refuses the vector, as the classifier does.
    with pytest.raises(OnLine):
        comparative_statics(reference_table, g)


def test_comparative_statics_refuses_a_g_without_a_ratio_vector(reference_table):
    # comparative_statics derives the ratio vector from g itself, so a
    # labor-land entry of zero is the caller's input fault.
    g = ews_from_stu(reference_table, 1.0, 0.0, 1.0)
    with pytest.raises(DegenerateT, match="^labor-land substitution is numerically zero"):
        comparative_statics(reference_table, g)


@given(st.integers(0, 2**32 - 1), st.lists(st.floats(-1e3, 1e3), min_size=9, max_size=9))
def test_a_g_that_is_not_the_tables_is_the_callers_fault(seed, entries):
    # The closed forms are identities only for a g that keeps its table's
    # invariants, so the public entries check a caller's g first: another
    # g ends in a ValidationError, never in a ConsistencyError.
    table = random_ranked_table(np.random.default_rng(seed))
    g = EwsMatrix(g=np.reshape(entries, (3, 3)))
    for entry in (comparative_statics, cofactors):
        try:
            entry(table, g)
        except ValidationError:
            pass


def test_a_broken_invariant_is_named(reference_table):
    g = reference_g().g.copy()
    g[LAND, LAND] += 0.5
    with pytest.raises(ValidationError) as caught:
        cofactors(reference_table, EwsMatrix(g=g))
    assert type(caught.value) is ValidationError
    assert str(caught.value) == "economy-wide substitution rows must sum to zero"
    # g is one finite 3x3, read as the matrix is built: a stack, a 1x1 and
    # a NaN entry are the caller's input fault before any step reads them.
    nan = reference_g().g.copy()
    nan[LABOR, LAND] = np.nan
    for g, message in [
        (np.stack([reference_g().g] * 2), r"g must have shape \(3, 3\), got \(2, 3, 3\)"),
        ([[1.0]], r"g must have shape \(3, 3\), got \(1, 1\)"),
        (nan, "g must hold finite numbers"),
    ]:
        with pytest.raises(ParseError, match=f"^{message}"):
            cofactors(reference_table, EwsMatrix(g=g))
    # Another table's g breaks share-weighted symmetry here.
    other = random_valid_ews(random_ranked_table(np.random.default_rng(3)), 4)
    with pytest.raises(ValidationError) as caught:
        comparative_statics(reference_table, other)
    assert type(caught.value) is ValidationError
    assert str(caught.value) == "share-weighted symmetry of economy-wide substitution failed"


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_a_scenarios_own_g_passes_the_check(table_seed, aes_seed):
    table = random_ranked_table(np.random.default_rng(table_seed))
    try:
        scenario = Scenario(name="drawn", table=table, aes=sample_valid_aes(table, aes_seed))
    except ValidationError:
        reject()
    # Answers, the report's among them.
    derived = comparative_statics(table, scenario.ews)
    assert np.array_equal(derived.rybczynski, run_report(scenario).rybczynski)
    assert np.shape(cofactors(table, scenario.ews).direct) == (2, 3)


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
        solve_responses(np.zeros((5, 5)), ShockVector(price_shock=1.0))


@pytest.mark.parametrize(
    "shock",
    [
        {"price_shock": float("nan")},
        {"endowment_shocks": (0.0, float("-inf"), 0.0)},
        {"price_shock": "1"},
        {"price_shock": None},
        {"price_shock": 10**400},
        {"endowment_shocks": (1, 2, 10**400)},
    ],
    ids=[
        "nan-price",
        "infinite-endowment",
        "string-price",
        "none-price",
        "huge-int-price",
        "huge-int-endowment",
    ],
)
def test_shock_must_be_finite(shock):
    what = {"price_shock": "price", "endowment_shocks": "endowments"}[next(iter(shock))]
    message = f"^{what} must hold finite numbers, not booleans or strings$"
    with pytest.raises(ParseError, match=message):
        ShockVector(**shock)


@pytest.mark.parametrize("endowments", [(1.0,), (0.0, 0.0, 0.0, 0.0), (), 5])
def test_shock_needs_three_endowment_entries(endowments):
    shape = re.escape(str(np.shape(endowments)))
    with pytest.raises(ParseError, match=rf"^endowments must have shape \(3,\), got {shape}$"):
        ShockVector(endowment_shocks=endowments)


def test_shock_keeps_its_own_floats():
    # A frozen shock built from arrays stores floats: it hashes, and a
    # later write to the caller's array does not move it.
    endowments = np.array([1.0, 2.0, 3.0])
    shock = ShockVector(price_shock=np.float32(0.5), endowment_shocks=endowments)
    assert hash(shock) == hash(ShockVector(0.5, (1.0, 2.0, 3.0)))
    rhs = shock.right_hand_side()
    endowments[2] = 9.0
    assert shock.endowment_shocks == (1.0, 2.0, 3.0)
    assert type(shock.price_shock) is float
    np.testing.assert_array_equal(shock.right_hand_side(), rhs)


def test_overflowing_response_is_refused(reference_table):
    # The response is linear in the shock; past what a float holds the
    # shock is refused by name, not reported as a failed residual check.
    sys = assemble_system(reference_table, reference_g())
    for price in (5e307, 1e308):
        with pytest.raises(ValidationError, match=re.escape(f"ShockVector(price_shock={price!r},")):
            solve_responses(sys, ShockVector(price_shock=price))
    response = solve_responses(sys, ShockVector(price_shock=1e307))
    assert np.all(np.isfinite(response.as_array()))


def _uint64(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def _one_by_one(system, shocks):
    """The responses of the shocks, one solve_responses call each, or the
    error the first failing one raises, as (type, text)."""
    try:
        return [solve_responses(system, shock) for shock in shocks]
    except (ValidationError, SingularSystem) as exc:
        return type(exc), str(exc)


def _stacked(system, shocks):
    try:
        return list(solve_shocks(system, shocks))
    except (ValidationError, SingularSystem) as exc:
        return type(exc), str(exc)


@st.composite
def shock_stacks(draw):
    """A system from a random ranked table and a sample_valid_aes tensor,
    with 1-6 shocks: a price shock, endowment shocks or both, each entry
    of log-uniform magnitude and either sign."""
    seeds = st.integers(0, 2**32 - 1)
    table = random_ranked_table(np.random.default_rng(draw(seeds)))
    system = assemble_system(table, random_valid_ews(table, draw(seeds)))
    size = st.builds(
        lambda sign, exponent: sign * 10.0**exponent,
        st.sampled_from([-1.0, 1.0]),
        st.floats(-8.0, 8.0),
    )
    zero = st.just(0.0)
    shock = st.one_of(
        st.builds(ShockVector, price_shock=size),
        st.builds(ShockVector, endowment_shocks=st.tuples(size, size | zero, size | zero)),
        st.builds(ShockVector, price_shock=size, endowment_shocks=st.tuples(size, size, size)),
    )
    return system, draw(st.lists(shock, min_size=1, max_size=6))


@given(shock_stacks())
def test_stacked_shocks_have_the_bits_of_one_shock_solves(case):
    system, shocks = case
    stacked = solve_shocks(system, shocks)
    assert len(stacked) == len(shocks)
    for shock, got in zip(shocks, stacked):
        want = solve_responses(system, shock)
        assert _uint64(got.w_hat) == _uint64(want.w_hat)
        assert _uint64(got.x_hat) == _uint64(want.x_hat)
        assert _uint64(got.residual) == _uint64(want.residual)
        # And the bits of numpy's own solve for that one shock.
        x = np.linalg.solve(system, shock.right_hand_side())
        assert _uint64(got.as_array()) == _uint64(x)


@given(shock_stacks(), st.integers(0, 6))
def test_stacked_shocks_name_the_first_overflow(case, position):
    # A price shock of 1e308 overflows where some real reward moves more
    # than the price. Wherever it stands, the stacked solve then refuses
    # it by name, not the one of -1e308 after it, with the text one solve
    # per shock gives.
    system, shocks = case
    huge = ShockVector(price_shock=1e308)
    alone = _one_by_one(system, [huge])
    shocks.insert(min(position, len(shocks)), huge)
    shocks.append(ShockVector(price_shock=-1e308))
    sequential = _one_by_one(system, shocks)
    assert _stacked(system, shocks) == sequential
    if alone[0] is ValidationError:
        assert sequential == alone


def test_stacked_shocks_on_a_singular_system():
    shocks = [ShockVector(price_shock=1.0), ShockVector(endowment_shocks=(1.0, 0.0, 0.0))]
    with pytest.raises(SingularSystem, match="solve residual"):
        solve_shocks(np.zeros((5, 5)), shocks)
    assert _stacked(np.zeros((5, 5)), shocks) == _one_by_one(np.zeros((5, 5)), shocks)
    assert solve_shocks(np.zeros((5, 5)), []) == ()


def _shock_list(count, seed):
    """count shocks with entries of log-uniform magnitude and either sign."""
    rng = np.random.default_rng(seed)
    sizes = rng.choice([-1.0, 1.0], size=(count, 4)) * 10.0 ** rng.uniform(-8, 8, size=(count, 4))
    return [ShockVector(price, tuple(endowments)) for price, *endowments in sizes.tolist()]


@pytest.mark.parametrize("count", [0, 1, 3, 6])
@pytest.mark.parametrize("sigma", ["cobb-douglas", ROUNDED_SIGMAS[201]], ids=["cd", "seed-201"])
def test_report_responses_have_the_bits_of_solve_shocks(count, sigma):
    # A report solves its checks and its shocks in one stacked solve; each
    # response and the worst residual keep the bits of solve_shocks.
    shocks = _shock_list(count, count)
    scenario = dataclasses.replace(
        scenario_from_mapping({**REFERENCE_DOC, "sigma": sigma}), shocks=tuple(shocks)
    )
    report = run_report(scenario)
    want = solve_shocks(assemble_system(scenario.table, scenario.ews), shocks)
    assert [shock for shock, _ in report.responses] == shocks
    got = [response for _, response in report.responses]
    assert [_uint64(r.as_array()) for r in got] == [_uint64(r.as_array()) for r in want]
    assert [_uint64(r.residual) for r in got] == [_uint64(r.residual) for r in want]
    assert _uint64(report.max_residual) == _uint64(max([r.residual for r in want], default=0.0))


@pytest.mark.parametrize("count", [0, 2])
def test_a_report_makes_one_solve_and_one_determinant(monkeypatch, count):
    scenario = dataclasses.replace(reference_scenario(), shocks=tuple(_shock_list(count, 5)))
    calls = []
    for name in ("solve", "det"):
        real = getattr(np.linalg, name)

        def spy(*args, real=real, name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(np.linalg, name, spy)
    run_report(scenario)
    assert sorted(calls) == ["det", "solve"]


def test_a_wrong_table_is_named_before_an_overflowing_shock(monkeypatch):
    # The shock's overflow is found in the report's one solve, but the
    # tabled-sign check still decides the error.
    patch_wrong_table(monkeypatch, Subregion.P2, 0)
    scenario = dataclasses.replace(
        reference_scenario(), shocks=(ShockVector(price_shock=1.0), ShockVector(price_shock=1e308))
    )
    with pytest.raises(ClosedFormMismatch, match=r"tabled signs of P2: "):
        run_report(scenario)
    monkeypatch.undo()
    with pytest.raises(ValidationError, match=re.escape("ShockVector(price_shock=1e+308,")):
        run_report(scenario)


def test_dense_signs_on_a_stack(reference_table):
    # The reference system beside a singular one: the first gets the P2
    # sign grids, the second a NaN residual rather than an exception. The
    # grids hold the system axis last.
    good = assemble_system(reference_table, reference_g())
    signs, residual = dense_signs(np.stack([good, np.zeros((5, 5))]))
    assert signs.shape == (4, 3, 2) and signs.flags.c_contiguous
    assert tuple(map(tuple, signs[:2, :, 0].tolist())) == RYBCZYNSKI_SIGNS[Subregion.P2]
    assert tuple(map(tuple, signs[2:, :, 0].tolist())) == STOLPER_SAMUELSON_SIGNS[Subregion.P2]
    assert dense_signs(good)[0].tolist() == signs[..., 0].tolist()
    assert residual[0] <= 1e-10
    assert np.isnan(residual[1])


def _column_residuals(a, x, rhs):
    """Each system's _dense_solve residual, column by column: a column's
    worst |a @ x - rhs|, divided past RESIDUAL_TOL by its largest sum
    |a| @ |x| when that is above one; the worst column, NaN if any is."""
    gap, sums = np.abs(a @ x - rhs), np.abs(a) @ np.abs(x)
    residuals = []
    for i in range(len(a)):
        columns = []
        for c in range(rhs.shape[1]):
            residual = gap[i, :, c].max()
            if residual > statics.RESIDUAL_TOL:
                residual /= max(1.0, sums[i, :, c].max())
            columns.append(residual)
        residuals.append(np.nan if np.isnan(columns).any() else max(columns))
    return np.array(residuals)


def test_dense_solve_residual_is_the_worst_scaled_column(reference_table):
    # Right-hand sides of 1 and 1e12 on well-scaled and large systems
    # leave some columns' roundoff under RESIDUAL_TOL and some past it,
    # beside a singular system, whose residual is NaN.
    rng = np.random.default_rng(41)
    good = assemble_system(reference_table, reference_g())
    a = np.stack([good, 1e6 * good, rng.normal(size=(5, 5)), np.zeros((5, 5)), good])
    rhs = rng.normal(size=(5, 4)) * np.array([1.0, 1e12, 1.0, 1e9])
    x, residual = statics._dense_solve(a, rhs)
    columns = np.abs(a @ x - rhs).max(axis=-2)
    assert (columns <= statics.RESIDUAL_TOL).any() and (columns > statics.RESIDUAL_TOL).any()
    assert np.isnan(residual).tolist() == [False, False, False, True, False]
    np.testing.assert_array_equal(residual, _column_residuals(a, x, rhs))
    # Every column under the bound, every column past it, and one system
    # with one column.
    cases = [(a[[0, 2]], rhs[:, [0, 2]]), (a[[0, 1]], rhs[:, [1, 3]]), (good[None], rhs[:, [0]])]
    for a, rhs in cases:
        x, residual = statics._dense_solve(a, rhs)
        np.testing.assert_array_equal(residual, _column_residuals(a, x, rhs))
        assert (residual <= statics.RESIDUAL_TOL).all()


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
        # The stack of both grids, the grid axis last.
        disagree = statics._contradicts_tables(
            np.stack([clean, signs], axis=-1), [list(Subregion).index(Subregion.P2)] * 2
        )
        assert disagree.tolist() == [False, True]
        assert statics._TABLED[..., list(Subregion).index(Subregion.P2)].tolist() == clean.tolist()
        message = str(statics._sign_mismatch(Subregion.P2, signs))
        assert message.startswith(
            "computed signs contradict the tabled signs of P2: "
            "output signs [[0, -1, 1], [-1, 1, 1]] vs [[1, -1, 1], [-1, 1, 1]]"
        ), message


@pytest.mark.parametrize("row", [0, 2], ids=["ryb", "ss"])
def test_report_and_sweep_refuse_a_wrong_table_alike(monkeypatch, row):
    # A wrong output row and a wrong real-reward row of the one tabled
    # grid that every check reads.
    patch_wrong_table(monkeypatch, Subregion.P2, row)
    with pytest.raises(ClosedFormMismatch, match=r"tabled signs of P2: ") as report_error:
        run_report(reference_scenario())
    # The reference template is Cobb-Douglas: every cross elasticity is 1.
    with pytest.raises(ClosedFormMismatch) as sweep_error:
        sweep(reference_scenario(), parse_grid("land_capital_1=1:1:1"))
    prefix, _, message = str(sweep_error.value).partition("): ")
    assert prefix.startswith("grid point 0 (land_capital_1=1.0,")
    assert message == str(report_error.value)
    # The library step runs the report's checks too.
    scenario = reference_scenario()
    with pytest.raises(ClosedFormMismatch) as statics_error:
        comparative_statics(scenario.table, scenario.ews)
    assert str(statics_error.value) == str(report_error.value)


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


def test_cofactor_check_reads_the_classifier_offsets(monkeypatch):
    # The factored route multiplies e * t by the offsets that classified
    # the vector, so a fault in LineCoeffs.offsets cannot pass the check.
    # A Scenario keeps the offsets it was classified by, so it is built
    # with the fault in place.
    real = geometry.LineCoeffs.offsets
    monkeypatch.setattr(geometry.LineCoeffs, "offsets", lambda *args: real(*args) + 1e-3)
    scenario = reference_scenario()
    with pytest.raises(ClosedFormMismatch, match="factored cofactor route disagrees"):
        run_report(scenario)
    with pytest.raises(ClosedFormMismatch, match="factored cofactor route disagrees"):
        cofactors(scenario.table, scenario.ews)


def test_a_report_reads_the_offsets_that_classified_its_scenario(monkeypatch):
    # Building the Scenario classifies its vector by its offsets to the
    # lines; the report's factored cofactors read those, not a second call.
    real, calls = geometry.LineCoeffs.offsets, []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(geometry.LineCoeffs, "offsets", spy)
    scenario = reference_scenario()
    assert len(calls) == 1
    run_report(scenario)
    assert len(calls) == 1


def test_cofactor_check_names_a_nan_determinant(monkeypatch):
    # A NaN cofactor drops out of the check's scale and fails its own
    # comparison: the sixth, sector 2's labor cofactor, is named.
    scenario = reference_scenario()
    real, calls = statics._det3, []

    def nan_sixth(m):
        calls.append(m)
        return math.nan if len(calls) == 6 else real(m)

    monkeypatch.setattr(statics, "_det3", nan_sixth)
    where = "at sector 2, factor 2: nan vs "
    with pytest.raises(ClosedFormMismatch, match=f"^expanded cofactor route disagrees .* {where}"):
        run_report(scenario)


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


def is_report_stack(rhs):
    """Whether rhs is a report's stacked right-hand sides [4 + k, 5, 1],
    the four check shocks first."""
    return rhs.ndim == 3 and np.array_equal(rhs[:4, :, 0].T, statics._CHECK_SHOCKS)


def corrupt_price_column(monkeypatch, bad):
    """Scale the capital reward of the check solve's price-shock system by
    bad, after the solve's own residual check."""
    real = statics._dense_solve

    def corrupted(a, rhs):
        x, residual = real(a, rhs)
        if is_report_stack(rhs):
            x[statics._PRICE_COLUMN, CAPITAL] *= bad
        return x, residual

    monkeypatch.setattr(statics, "_dense_solve", corrupted)


@BAD_FACTORS
def test_reciprocity_check_catches_a_wrong_price_response(monkeypatch, bad):
    corrupt_price_column(monkeypatch, bad)
    with pytest.raises(ClosedFormMismatch, match="reciprocity form disagrees"):
        run_report(reference_scenario())


def test_reciprocity_is_checked_before_the_tabled_signs(monkeypatch):
    # A wrong table and a wrong price response: the dense check names the
    # error. The wrong table alone is named by the tabled-sign check.
    real = statics._dense_solve
    patch_wrong_table(monkeypatch, Subregion.P2, 0)
    corrupt_price_column(monkeypatch, 1.5)
    with pytest.raises(ClosedFormMismatch, match="reciprocity form disagrees"):
        run_report(reference_scenario())
    monkeypatch.setattr(statics, "_dense_solve", real)
    with pytest.raises(ClosedFormMismatch, match=r"tabled signs of P2: "):
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
        # a @ x - rhs gains 2e-10 in row 0 of check 2: column 2 of the
        # sweep's solve, system 2 of the report's stack.
        unit = 2e-10 * real(a, np.eye(5)[:, :1])[..., 0]
        if rhs.shape[-1] == 4:
            x[..., :, 2] += unit
        elif is_report_stack(rhs):
            x[2, :, 0] += unit
        return x

    monkeypatch.setattr(np.linalg, "solve", corrupted)
    with pytest.raises(SingularSystem, match=r"^solve residual \S+ exceeds") as report_error:
        run_report(reference_scenario())
    a = assemble_system(reference_table, reference_g())
    _, residual = dense_signs(a[np.newaxis])
    assert residual[0] == pytest.approx(2e-10, rel=1e-3)
    assert not residual[0] <= statics.RESIDUAL_TOL
    with pytest.raises(
        SingularSystem, match=r"^grid point 0 \(.*\): solve residual \S+ exceeds"
    ) as sweep_error:
        sweep(reference_scenario(), parse_grid("land_capital_1=1:1:1"))
    # The printed residual's last digits depend on the BLAS kernel.
    for caught in (report_error, sweep_error):
        printed = re.search(r"solve residual (\S+) exceeds", str(caught.value)).group(1)
        assert float(printed) == pytest.approx(2e-10, rel=1e-3)


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

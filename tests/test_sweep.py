import itertools
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ews32 import (
    LABOR,
    LAND,
    AesTensor,
    ClosedFormMismatch,
    DegenerateT,
    Ews32Error,
    InvalidAes,
    OnLine,
    ParseError,
    Scenario,
    Subregion,
    classify_subregion,
    epsilon_from_aes,
    ews_from_epsilon,
    ews_ratio_vector,
    format_csv,
    line_coefficients,
    parse_grid,
    run_report,
    sample_valid_aes,
    scenario_from_mapping,
    strong_rybczynski,
    sweep,
)
from ews32.statics import RYBCZYNSKI_SIGNS
from ews32.substitution import SAMPLE_SPREAD
from ews32.sweep import CSV_COLUMNS, GRID_KEYS, MAX_GRID_POINTS

from conftest import random_ranked_table, reference_csv
from test_scenario import REFERENCE_DOC

# (sector, row, column) of each grid key, written out independently of
# the sweep module.
SLOTS = dict(zip(GRID_KEYS, [(0, 0, 1), (0, 0, 2), (0, 1, 2), (1, 0, 1), (1, 0, 2), (1, 1, 2)]))


def reference_rows(scenario, grid):
    """The sweep point by point through the scalar pipeline: rebuild each
    tensor, complete its diagonals row by row, run epsilon_from_aes ->
    ews_from_epsilon -> ews_ratio_vector -> classify_subregion, and map
    the rejections the sweep reports to their statuses."""
    table = scenario.table
    lines = line_coefficients(table)
    active = [key for key in GRID_KEYS if key in grid]
    rows = []
    for combo in itertools.product(*(grid[key] for key in active)):
        sigma = np.array(scenario.aes.sigma)
        for key, value in zip(active, combo):
            sector, row, col = SLOTS[key]
            sigma[sector, row, col] = sigma[sector, col, row] = value
        for sector in range(2):
            th = table.theta[:, sector]
            for i in range(3):
                sigma[sector, i, i] = 0.0
                sigma[sector, i, i] = -(sigma[sector, i] @ th) / th[i]
        row = {key: float(sigma[slot]) for key, slot in SLOTS.items()}
        row.update(s_prime=None, u_prime=None, sign_t=None, subregion=None, strong_result=None)
        try:
            aes = AesTensor(sigma=sigma)
            vector = ews_ratio_vector(ews_from_epsilon(epsilon_from_aes(aes, table), table))
            region = classify_subregion(vector, lines, table)
        except InvalidAes as exc:
            row["status"] = f"rejected ({'/'.join(exc.report.failed_checks)})"
        except DegenerateT:
            row["status"] = "rejected (degenerate ratio)"
        except OnLine:
            row["status"] = "rejected (on a border line)"
        else:
            row.update(
                s_prime=vector.s_prime,
                u_prime=vector.u_prime,
                sign_t=vector.sign_t,
                subregion=region.value,
                strong_result=strong_rybczynski(region),
                status="ok",
            )
        rows.append(row)
    return rows


@st.composite
def sweep_cases(draw):
    """A random ranked table, a sampled valid template on it, and a grid
    of up to three keys with up to five points each."""
    seeds = st.integers(0, 2**32 - 1)
    table = random_ranked_table(np.random.default_rng(draw(seeds)))
    # The Allen-tensor checks hold under positive scaling, so this draws
    # the off-diagonals on [-spread, spread] for a spread in [0.5, 4].
    scale = draw(st.floats(0.5, 4.0)) / SAMPLE_SPREAD
    aes = AesTensor(sigma=scale * sample_valid_aes(table, draw(seeds)).sigma)
    scenario = Scenario(name="drawn", table=table, aes=aes)
    keys = draw(st.lists(st.sampled_from(GRID_KEYS), min_size=1, max_size=3, unique=True))
    bounds = st.floats(-5.0, 5.0)
    grid = {
        key: [float(v) for v in np.linspace(draw(bounds), draw(bounds), draw(st.integers(1, 5)))]
        for key in keys
    }
    return scenario, grid


@pytest.fixture
def reference_scenario():
    return scenario_from_mapping(dict(REFERENCE_DOC))


def test_parse_grid_single():
    grid = parse_grid("land_capital_1=-3:3:7")
    assert list(grid) == ["land_capital_1"]
    assert grid["land_capital_1"] == [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]


def test_parse_grid_multiple_and_whitespace():
    grid = parse_grid(" land_labor_2 = 0.5:1.5:3 , capital_labor_1=1:1:1 ")
    assert grid["land_labor_2"] == [0.5, 1.0, 1.5]
    assert grid["capital_labor_1"] == [1.0]


def test_parse_grid_errors():
    for bad in (
        "",
        "land_capital_1",
        "own_1=-1:1:3",
        "land_capital_1=-1:1:3,land_capital_1=0:1:2",
        "land_capital_1=-1:1",
        "land_capital_1=a:1:3",
        "land_capital_1=-1:1:0",
        "land_capital_1=nan:inf:3",
        "land_capital_1=-inf:1:3",
        "land_capital_1=0:nan:1",
        "land_capital_1=-1e308:1e308:3",
        f"land_capital_1=-1:1:{MAX_GRID_POINTS + 1}",
    ):
        with pytest.raises(ParseError):
            parse_grid(bad)


def test_sweep_reference_line(reference_scenario):
    rows = sweep(reference_scenario, parse_grid("land_capital_1=-3:3:7"))
    assert len(rows) == 7
    # Strongly negative land-capital elasticities break curvature in the
    # first sector; the rows stay in the output with a reason.
    for row, value in zip(rows[:3], (-3.0, -2.0, -1.0)):
        assert row["land_capital_1"] == value
        assert row["status"] == "rejected (own-negativity/quasi-concavity)"
        assert row["subregion"] is None and row["s_prime"] is None
    for row in rows[3:]:
        assert row["status"] == "ok"
        assert row["sign_t"] in (-1, 1)
    # The grid passes through the all-unit tensor; that row must replay
    # the reference classification.
    unit = rows[4]
    assert unit["land_capital_1"] == 1.0
    assert unit["subregion"] == "P2"
    assert unit["strong_result"] is True
    assert unit["s_prime"] == pytest.approx(0.7093023255813954, rel=1e-12)


def test_sweep_untouched_entries_keep_template(reference_scenario):
    rows = sweep(reference_scenario, parse_grid("land_capital_1=0:0:1"))
    (row,) = rows
    # Every other off-diagonal still carries the template's value.
    for key in GRID_KEYS[1:]:
        assert row[key] == 1.0


def test_sweep_rejects_unknown_key(reference_scenario):
    with pytest.raises(ParseError):
        sweep(reference_scenario, {"diagonal_1": [1.0]})


@pytest.mark.parametrize(
    "values",
    [[], [float("inf")], [0.5, float("nan")], [None], ["1.0"], [True]],
    ids=["empty", "inf", "nan", "none", "string", "bool"],
)
def test_sweep_refuses_an_empty_axis_or_a_value_not_a_finite_number(reference_scenario, values):
    # parse_grid never builds such an axis; a library caller can.
    with pytest.raises(ParseError, match="^grid key 'land_capital_1' needs one or more values"):
        format_csv(sweep(reference_scenario, {"land_capital_1": values}))


def test_csv_layout(reference_scenario):
    rows = sweep(reference_scenario, parse_grid("land_capital_1=-3:3:7"))
    text = format_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 8
    assert text.endswith("\n")
    rejected = lines[1].split(",")
    assert rejected[0] == "-3"
    assert rejected[6:11] == ["", "", "", "", ""]
    assert rejected[11] == "rejected (own-negativity/quasi-concavity)"
    unit = lines[5].split(",")
    assert unit[6] == "0.709302326"  # nine significant digits
    assert unit[8] == "+"
    assert unit[9] == "P2"
    assert unit[10] == "true"


def test_csv_deterministic(reference_scenario):
    grid = parse_grid("land_capital_1=-1:2:4,capital_labor_2=0.5:1.5:2")
    assert format_csv(sweep(reference_scenario, grid)) == format_csv(
        sweep(reference_scenario, grid)
    )


def test_sweep_rejects_grid_over_the_cap(reference_scenario):
    grid = parse_grid("land_capital_1=-2:2:101,land_labor_1=-2:2:101,capital_labor_2=-2:2:101")
    assert 101**3 > MAX_GRID_POINTS
    with pytest.raises(ParseError, match="more than"):
        sweep(reference_scenario, grid)


@given(sweep_cases())
def test_sweep_matches_per_point_reference(case):
    scenario, grid = case
    try:
        want = reference_rows(scenario, grid)
    except Ews32Error as exc:
        with pytest.raises(type(exc)):
            sweep(scenario, grid)
        return
    got = sweep(scenario, grid)
    assert list(got) == want
    assert [[type(v) for v in row.values()] for row in got] == [
        [type(v) for v in row.values()] for row in want
    ]


@given(sweep_cases())
def test_format_csv_matches_the_per_cell_reference(case):
    scenario, grid = case
    try:
        rows = sweep(scenario, grid)
    except Ews32Error:
        return
    assert format_csv(rows) == reference_csv(rows)


@pytest.mark.parametrize(
    "grid, classified",
    [
        ({}, 1),  # the template alone
        ({"land_capital_1": [1.0]}, 1),
        ({"land_capital_1": [-3.0, -2.0, -1.0]}, 0),
        ({"land_capital_1": [0.0, 1.0, 2.0, 3.0], "capital_labor_2": [0.5, 1.0, 1.5]}, 12),
    ],
    ids=["template", "one-point", "none-classified", "all-classified"],
)
def test_format_csv_edge_grids(reference_scenario, grid, classified):
    rows = sweep(reference_scenario, grid)
    assert sum(row["status"] == "ok" for row in rows) == classified
    assert format_csv(rows) == reference_csv(rows)


def test_sweep_rows_protocol(reference_scenario):
    rows = sweep(reference_scenario, parse_grid("land_capital_1=-3:3:7,capital_labor_2=0.5:1.5:2"))
    assert isinstance(rows, Sequence)
    assert len(rows) == 14
    listed = list(rows)
    assert len(listed) == 14
    assert all(list(row) == list(CSV_COLUMNS) for row in listed)
    assert rows[-1] == listed[13] and rows[-14] == listed[0]
    assert rows[np.int64(5)] == rows[np.intp(-9)] == listed[5]
    assert rows[2:9:3] == listed[2:9:3] and rows[::-1] == listed[::-1]
    for index in (14, -15, np.int64(14)):
        with pytest.raises(IndexError):
            rows[index]
    with pytest.raises(TypeError):
        rows[1.0]
    # Each read builds a fresh dict; the columns behind it stay as they were.
    rows[0]["status"] = "changed"
    assert rows[0] == listed[0]
    with pytest.raises(TypeError):
        rows[0] = listed[1]
    with pytest.raises(ValueError):
        rows.status[0] = "ok"
    (row,) = sweep(reference_scenario, parse_grid("land_capital_1=1:1:1"))
    assert row["status"] == "ok" and row["subregion"] == "P2"


def test_sweep_dense_check_catches_a_wrong_table(reference_scenario, monkeypatch):
    grid = parse_grid("land_capital_1=-3:3:7")
    rows = sweep(reference_scenario, grid)
    first = next(k for k, row in enumerate(rows) if row["subregion"] == "P2")
    (top, bottom) = RYBCZYNSKI_SIGNS[Subregion.P2]
    monkeypatch.setitem(RYBCZYNSKI_SIGNS, Subregion.P2, ((-top[0],) + top[1:], bottom))
    value = rows[first]["land_capital_1"]
    named = rf"grid point {first} \(land_capital_1={value!r},"
    with pytest.raises(ClosedFormMismatch, match=named):
        sweep(reference_scenario, grid)


def test_sweep_reports_degenerate_ratio(reference_scenario):
    # t = g[labor, land] sums lam[labor, j] * theta[land, j] * sigma[j, labor, land]
    # over sectors j; choose sector 1's land-labor elasticity to zero it.
    table = reference_scenario.table
    lam, theta = table.lam, table.theta
    statuses = []
    for seed in range(10):
        aes = sample_valid_aes(table, seed)
        x = -lam[LABOR, 1] * theta[LAND, 1] * aes.sigma[1, LAND, LABOR] / (
            lam[LABOR, 0] * theta[LAND, 0]
        )
        (row,) = sweep(Scenario("t-zero", table, aes), {"land_labor_1": [x]})
        assert row["status"].startswith("rejected (")
        statuses.append(row["status"])
    assert "rejected (degenerate ratio)" in statuses


def test_large_elasticity_passes_the_identity_checks(reference_scenario):
    # capital_labor_2 = 5e6 scales g and the 5x5 system to about 1e6, so
    # roundoff in their identities and solve residuals exceeds an
    # absolute 1e-10; the bounds are relative to the compared entries.
    (row,) = sweep(reference_scenario, parse_grid("capital_labor_2=5e6:5e6:1"))
    assert row["status"] == "ok"
    sigma = reference_scenario.aes.sigma.copy()
    sigma[1, 1, 2] = sigma[1, 2, 1] = 5e6
    th = reference_scenario.table.theta[:, 1]
    for i in range(3):
        sigma[1, i, i] = 0.0
        sigma[1, i, i] = -(sigma[1, i] @ th) / th[i]
    report = run_report(scenario_from_mapping(dict(REFERENCE_DOC, sigma=sigma.tolist())))
    assert report.signs_agree
    assert report.subregion.value == row["subregion"] == "P1"

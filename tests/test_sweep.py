import importlib
import itertools
import math
import re
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from ews32 import (
    CAPITAL,
    LABOR,
    LAND,
    AesTensor,
    ClosedFormMismatch,
    ConsistencyError,
    DegenerateT,
    Ews32Error,
    Infeasible,
    InvalidAes,
    OnLine,
    ParseError,
    Scenario,
    Subregion,
    UnmatchedSignature,
    ValidationError,
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
from ews32 import geometry, statics, substitution
from ews32.statics import RYBCZYNSKI_SIGNS, STOLPER_SAMUELSON_SIGNS
from ews32.substitution import IDENTITY_TOL, SAMPLE_SPREAD
from ews32.sweep import CSV_COLUMNS, GRID_KEYS, MAX_GRID_POINTS

from conftest import QC_EDGE_SIGMA, patch_wrong_table, random_ranked_table, reference_csv
from test_digits import check_writes_what_percent_writes_or_refuses, value_lists, written
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


REFERENCE = scenario_from_mapping(dict(REFERENCE_DOC))


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
    [
        [],
        [float("inf")],
        [0.5, float("nan")],
        [None],
        ["1.0"],
        [True],
        [[1.0, 2.0]],
        [[1.0], [1.0, 2.0]],
        1.0,
        [10**400],
    ],
    ids=["empty", "inf", "nan", "none", "string", "bool", "nested", "ragged", "scalar", "huge-int"],
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
# Valid sector 2 tensors, but no valid point.
@example((REFERENCE, {"land_capital_1": [-3.0, -2.0], "capital_labor_2": [0.5, 1.0, 1.5]}))
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
        # Valid sector 2 tensors, but no valid point.
        ({"land_capital_1": [-3.0, -2.0], "capital_labor_2": [0.5, 1.0, 1.5]}, 0),
    ],
    ids=["template", "one-point", "none-classified", "all-classified", "no-valid-point"],
)
def test_format_csv_edge_grids(reference_scenario, grid, classified):
    rows = sweep(reference_scenario, grid)
    assert sum(row["status"] == "ok" for row in rows) == classified
    assert format_csv(rows) == reference_csv(rows)


@settings(max_examples=300)
@given(value_lists())
@example([0.0, -0.0])
@example([9.9999999996])  # rounds to 10: a carry past nine digits
@example([0.0001, 9.999e-05])  # the last value "%.9g" writes without an exponent, and the next
@example([999999999.4, 1234567.125])  # the largest nine-digit value, and an exact tie
# The product rounds to a half-integer, but "%.9g" rounds the value itself
# down: 160721575.5 is a little above it.
@example([1.607215755])
def test_nine_digit_writer_writes_only_what_it_certifies(values):
    check_writes_what_percent_writes_or_refuses("%.9g", values, None)


@pytest.mark.parametrize(
    "value, text",
    [
        (0.0, None),
        (-0.0, None),
        (9.9999999996, None),
        (0.0001, "0.0001"),
        (9.999e-05, None),
        (-0.00012, "-0.00012"),
        (999999999.4, "999999999"),
        (-100.0, "-100"),
        (1234567.125, None),
        # 100 million times it rounds to 160721575.5, but the value is a
        # little under that tie's decimal.
        (1.607215755, None),
    ],
)
def test_nine_digit_writer_on_named_values(value, text):
    assert written("%.9g", [value]) == (None if text is None else [text])


@pytest.mark.parametrize("refused", [0.0, 1.5e-7, 4.0e12, 1234567.125])
@pytest.mark.parametrize("key", ["land_capital_1", "capital_labor_2"])
def test_format_csv_writes_a_sweep_the_writer_refuses_by_one_format_call(
    reference_scenario, refused, key
):
    # Hand-built rows, three of four classified, one of whose S' and U'
    # the writer refuses: 0.0, an exponent-form value or an exact tie.
    # format_csv then writes every classified row with one "%.9g" call,
    # after the template's values past the swept key when there are any.
    s_prime, u_prime = np.array([1.25, -0.375, refused]), np.array([-3.5, 2.0, 0.0625])
    assert written("%.9g", np.concatenate((s_prime, u_prime))) is None
    rows = importlib.import_module("ews32.sweep").SweepRows(
        {key: np.array([0.5, 1.0, 1.5, 2.0])},
        reference_scenario.aes.sigma,
        np.array([0, 2, 3]),
        s_prime,
        u_prime,
        np.array([1, -1, 1]),
        np.array([1, 7, 11]),
        np.array([0, 1, 0, 0]),
    )
    assert format_csv(rows) == reference_csv(rows)


def _onto_a_border_line(scenario, key, lo, hi):
    """A one-point grid at a value of key between lo and hi, whose points
    reference_rows classifies into two subregions, bisected until
    reference_rows finds the point on a border line."""
    below = reference_rows(scenario, {key: [lo]})[0]["subregion"]
    while True:
        mid = (lo + hi) / 2
        (row,) = reference_rows(scenario, {key: [mid]})
        if row["status"] == "rejected (on a border line)":
            return {key: [mid]}
        assert lo < mid < hi and row["status"] == "ok"
        lo, hi = (mid, hi) if row["subregion"] == below else (lo, mid)


def test_status_codes_give_each_status_and_its_csv_row(reference_scenario):
    # Between them the three sweeps hold every kind of status: ok, three
    # Allen-tensor rejections, a degenerate ratio and a point on a border
    # line (between P2 at land_capital_1 = 3.5 and P3 at 4).
    table = reference_scenario.table
    aes = sample_valid_aes(table, 0)  # its zero-t point has a valid tensor
    perfbench_grid = "land_capital_1=-2:2:20,land_labor_1=-2:2:20,capital_labor_2=-2:2:10"
    cases = [
        (reference_scenario, parse_grid(perfbench_grid)),
        (Scenario("t-zero", table, aes), {"land_labor_1": [_zero_t(table, aes)]}),
        (reference_scenario, _onto_a_border_line(reference_scenario, "land_capital_1", 3.5, 4.0)),
    ]
    seen = set()
    for scenario, grid in cases:
        rows = sweep(scenario, grid)
        statuses = [row["status"] for row in reference_rows(scenario, grid)]
        assert rows.status.tolist() == [row["status"] for row in rows] == statuses
        assert format_csv(rows) == reference_csv(rows)
        seen.update(statuses)
    valid = {"ok", "rejected (degenerate ratio)", "rejected (on a border line)"}
    assert valid <= seen
    assert len(seen - valid) >= 2


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
    patch_wrong_table(monkeypatch, Subregion.P2, 0)
    value = rows[first]["land_capital_1"]
    named = rf"grid point {first} \(land_capital_1={value!r},"
    with pytest.raises(ClosedFormMismatch, match=named):
        sweep(reference_scenario, grid)


def test_the_sign_tables_derived_forms_are_fixed_at_import():
    # The grid that every dense check reads, the strong flags and the
    # sweep's label cells are built once, at import, from the two sign
    # tables and strong_rybczynski; each equals a fresh derivation for
    # all 12 subregions, and none can be changed in place.
    module = importlib.import_module("ews32.sweep")
    regions = geometry.REGIONS
    assert len(regions) == 12
    fresh = [RYBCZYNSKI_SIGNS[r] + STOLPER_SAMUELSON_SIGNS[r] for r in regions]
    assert statics._TABLED.shape == (4, 3, 12)
    assert statics._TABLED.transpose(2, 0, 1).tolist() == [list(map(list, g)) for g in fresh]
    strong = tuple(strong_rybczynski(r) for r in regions)
    assert type(statics._STRONG) is tuple and statics._STRONG == strong
    labels = [
        f"{sign},{region.value},{'true' if flag else 'false'},ok"
        for region, flag in zip(regions, strong)
        for sign in "-+"
    ]
    assert module._LABELS.tolist() == labels
    words = module._LABEL_WORDS.T.tobytes()
    assert [words[16 * k : 16 * (k + 1)].rstrip(b"\0") for k in range(len(labels))] == [
        f",{label}\n".encode() for label in labels
    ]
    for cells in (statics._TABLED, module._LABELS, module._LABEL_WORDS):
        with pytest.raises(ValueError, match="read-only"):
            cells[(0,) * cells.ndim] = cells[(0,) * cells.ndim]


def _corrupt_substitution(name, corrupt):
    """Corrupt the output of a substitution helper on the scalar and the
    stacked path alike."""

    def patch(monkeypatch):
        real = getattr(substitution, name)
        for module in (substitution, importlib.import_module("ews32.sweep")):
            monkeypatch.setattr(module, name, lambda *args: corrupt(real(*args)))

    return patch


def _corrupt_boundary(monkeypatch):
    real = geometry._boundary_height
    monkeypatch.setattr(geometry, "_boundary_height", lambda *args: real(*args) + 100.0)


def _forget_p2(monkeypatch):
    code = geometry._signature_code(np.array(geometry.SIGNATURES[Subregion.P2]), 1)
    regions = geometry._REGION_BY_CODE.copy()
    regions[code] = -1
    monkeypatch.setattr(geometry, "_REGION_BY_CODE", regions)


# Labor's entries g[labor, land] and g[labor, capital] moved by +1e-3 and
# -1e-3: the row sums still vanish, share-weighted symmetry does not.
_ASYMMETRY = np.zeros((3, 3))
_ASYMMETRY[LABOR] = (1e-3, -1e-3, 0.0)


def _asymmetric(g):
    """g[3, 3, ...] with _ASYMMETRY added to each matrix."""
    return g + _ASYMMETRY.reshape(3, 3, *(1,) * (g.ndim - 2))


@pytest.mark.parametrize(
    "corrupt, cls, message",
    [
        (
            _corrupt_substitution("_epsilon", lambda eps: eps + 1e-3),
            ConsistencyError,
            "epsilon rows must sum to zero",
        ),
        (
            _corrupt_substitution("_aggregate", lambda g: g + 1e-3),
            ConsistencyError,
            "economy-wide substitution rows must sum to zero",
        ),
        (
            _corrupt_substitution("_aggregate", _asymmetric),
            ConsistencyError,
            "share-weighted symmetry of economy-wide substitution failed",
        ),
        (
            _corrupt_substitution("_aggregate", lambda g: -g),
            ConsistencyError,
            "economy-wide own substitution must be negative",
        ),
        (_corrupt_boundary, Infeasible, "positive-denominator vectors must lie strictly above"),
        (
            _forget_p2,
            UnmatchedSignature,
            "offset signature ((-1, 1, 1), (-1, 1, -1)) with denominator sign +1",
        ),
    ],
    ids=["epsilon-rows", "g-rows", "g-symmetry", "g-own-sign", "infeasible", "no-signature"],
)
def test_sweep_aborts_as_the_scalar_path(reference_scenario, monkeypatch, corrupt, cls, message):
    # Each corruption breaks a check that every valid input passes. The
    # sweep must raise what the scalar pipeline raises on the same point,
    # after naming the point; the fixture was built before the corruption.
    corrupt(monkeypatch)
    table, lines = reference_scenario.table, reference_scenario.lines
    with pytest.raises(Ews32Error) as scalar:
        g = ews_from_epsilon(epsilon_from_aes(reference_scenario.aes, table), table)
        classify_subregion(ews_ratio_vector(g), lines, table)
    assert type(scalar.value) is cls and str(scalar.value).startswith(message)
    # The template's own point, twice: the first one fails.
    with pytest.raises(cls) as swept:
        sweep(reference_scenario, parse_grid("land_capital_1=1:1:2"))
    assert type(swept.value) is cls
    prefix = r"grid point 0 \(land_capital_1=1\.0, land_labor_1=1\.0, .*, capital_labor_2=1\.0\): "
    assert re.fullmatch(prefix + re.escape(str(scalar.value)), str(swept.value))


@pytest.mark.parametrize(
    "flip_p3, cls, first",
    [(True, ClosedFormMismatch, 2), (False, UnmatchedSignature, 3)],
    ids=["dense-check-first", "classification-first"],
)
def test_sweep_aborts_at_the_first_failing_point_in_grid_order(
    reference_scenario, monkeypatch, flip_p3, cls, first
):
    # Points 0-1 are rejected tensors, point 2 is in P3 and points 3-8 in
    # P2. Without P2's signature points 3-8 fail classification; with
    # P3's output row flipped too, point 2 fails the later dense check
    # first in grid order. The named index counts grid points, not the
    # valid points among them.
    grid = parse_grid("capital_labor_2=-2:6:9")
    rows = sweep(reference_scenario, grid)
    assert [row["subregion"] for row in rows] == [None, None, "P3"] + ["P2"] * 6
    _forget_p2(monkeypatch)
    if flip_p3:
        patch_wrong_table(monkeypatch, Subregion.P3, 0)
    value = rows[first]["capital_labor_2"]
    with pytest.raises(cls, match=rf"^grid point {first} \(.*capital_labor_2={value!r}\): "):
        sweep(reference_scenario, grid)


def test_sweep_aborts_at_the_first_failing_point_of_a_two_sector_grid(
    reference_scenario, monkeypatch
):
    # Both axes reject tensors: land_capital_1 below 0 in sector 1 and
    # capital_labor_2 below 0 in sector 2. The first P2 point is 30 =
    # 3 * 9 + 3, the fourth tensor of each sector; without P2's signature
    # it is the first to fail, and its message names it by its grid
    # index and both swept values.
    grid = parse_grid("land_capital_1=-3:3:7,capital_labor_2=-2:6:9")
    rows = sweep(reference_scenario, grid)
    first = next(k for k, row in enumerate(rows) if row["subregion"] == "P2")
    assert first == 30
    _forget_p2(monkeypatch)
    lc, cl = rows[first]["land_capital_1"], rows[first]["capital_labor_2"]
    named = rf"^grid point {first} \(land_capital_1={lc!r}, .*, capital_labor_2={cl!r}\): "
    with pytest.raises(UnmatchedSignature, match=named):
        sweep(reference_scenario, grid)


def test_grid_keys_list_sector_one_before_sector_two():
    # The sweep joins the two sectors' tensors by this order.
    assert [substitution._KEY_SLOTS[key][0] for key in GRID_KEYS] == [0, 0, 0, 1, 1, 1]
    assert {key: substitution._KEY_SLOTS[key] for key in GRID_KEYS} == SLOTS


def test_sweep_checks_each_distinct_sector_tensor_once(reference_scenario, monkeypatch):
    # The perfbench grid: 400 sector-1 tensors and 10 sector-2 tensors
    # make 4,000 points, and only the 410 sector tensors are checked.
    module = importlib.import_module("ews32.sweep")
    real, checked = module._aes_flags, []

    def counted(s, th):
        checked.append(math.prod(s.shape[2:]))
        return real(s, th)

    monkeypatch.setattr(module, "_aes_flags", counted)
    grid = parse_grid("land_capital_1=-2:2:20,land_labor_1=-2:2:20,capital_labor_2=-2:2:10")
    rows = sweep(reference_scenario, grid)
    assert len(rows) == 4000
    assert sum(checked) == 410


def gathered_route(first, second, table):
    """g and the epsilon row-sum verdict of the points that join sector 1
    tensor first[k] with sector 2 tensor second[k], on the stack of the
    points' gathered (2, 3, 3) tensors: each point's epsilon scaled from
    its tensor, its row sums over both sectors, and g summed over the
    sectors in one expression."""
    eps = table.theta.T[:, np.newaxis, :] * np.stack((first, second), axis=1)
    gap = np.abs(eps[..., 0] + eps[..., 1] + eps[..., 2]).max(axis=(-2, -1))
    ok = substitution._identity_ok(gap, lambda: np.abs(eps).max(axis=(-3, -2, -1)))
    lam = table.lam
    return lam[:, 0, None] * eps[..., 0, :, :] + lam[:, 1, None] * eps[..., 1, :, :] + 0.0, ok


@st.composite
def sector_space_cases(draw):
    """A random ranked table, a sampled valid template on it, and a grid
    of up to two keys per sector with up to four values each over [-5, 5]:
    a sector without keys has one tensor, and some grids have no valid
    point."""
    seeds = st.integers(0, 2**32 - 1)
    table = random_ranked_table(np.random.default_rng(draw(seeds)))
    scenario = Scenario("drawn", table, sample_valid_aes(table, draw(seeds)))
    keys = draw(st.lists(st.sampled_from(GRID_KEYS[:3]), max_size=2, unique=True))
    keys += draw(st.lists(st.sampled_from(GRID_KEYS[3:]), max_size=2, unique=True))
    values = st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=4)
    return scenario, {key: draw(values) for key in keys}


@given(sector_space_cases(), st.integers(0, 2**32 - 1))
@example((REFERENCE, {}), 0)  # one tensor per sector
@example((REFERENCE, {"land_capital_1": [-3.0, -2.0], "capital_labor_2": [1.0]}), 0)
@example((REFERENCE, {"land_capital_1": [1.0, 2.0], "capital_labor_2": [-3.0, -2.0]}), 0)
def test_sector_space_g_is_the_gathered_route(case, seed):
    # The sweep forms each sector tensor's epsilon, row-sum gap and term
    # of g once; g and the verdicts must have the bits of the gathered
    # route, on the pairs of every sector tensor and on the valid points
    # the sweep passes. Each tensor is scaled and moved off its
    # completion by its own relative noise, so that a pair's verdict can
    # rest on the larger of its two gaps, or pass only relative to the
    # larger of its two tensors' entries.
    scenario, grid = case
    table = scenario.table
    module = importlib.import_module("ews32.sweep")
    axes = {key: np.array(grid[key]) for key in GRID_KEYS if key in grid}
    # Each sector's stack holds its tensors as s[i, h, tensor].
    sectors = module._sector_tensors(scenario, axes)
    codes = [
        np.dot(1 << np.arange(4), ~substitution._aes_flags(s, th[:, np.newaxis]))
        for s, th in zip(sectors, table.theta.T)
    ]
    rng = np.random.default_rng(seed)
    moved = []
    for s in sectors:
        noise = rng.choice([0.0, 1e-12, 1e-9, 1e-6], size=s.shape[-1])
        scale = rng.choice([1e-3, 1.0, 1e8], size=s.shape[-1])
        moved.append(scale * s * (1.0 + noise * rng.standard_normal(s.shape)))

    n1 = sectors[1].shape[-1]
    valid = np.flatnonzero(np.bitwise_or.outer(*codes).ravel() == 0)
    # Every pair of sector tensors, then the valid points on the tensors
    # they use.
    every = [np.ones(s.shape[-1], dtype=bool) for s in sectors]
    cases = [(np.arange(sectors[0].shape[-1] * n1), every), (valid, [c == 0 for c in codes])]
    for points, used in cases:
        first, second = divmod(points, n1)
        want_g, want_ok = gathered_route(
            np.moveaxis(moved[0][..., first], -1, 0),
            np.moveaxis(moved[1][..., second], -1, 0),
            table,
        )
        got_g, got_ok = module._sector_space_g(
            [m.compress(k, axis=-1) for m, k in zip(moved, used)], table
        )
        assert got_g.shape == (3, 3, len(points)) and want_g.shape == (len(points), 3, 3)
        assert np.array_equal(np.moveaxis(got_g, -1, 0).view(np.uint64), want_g.view(np.uint64))
        assert np.array_equal(got_ok, want_ok)


def _same_bits(batched, alone) -> bool:
    """Whether the float arrays hold the same bits, NaN payloads and the
    sign of zero included."""
    batched, alone = np.asarray(batched, dtype=float), np.asarray(alone, dtype=float)
    return batched.shape == alone.shape and batched.tobytes() == alone.tobytes()


@st.composite
def points_last_cases(draw):
    """A random ranked table, its sectors' completed tensor stacks
    s[i, h, tensor] from a drawn grid of one or two keys per sector, some
    of whose values are huge, and a few entries of the completed stacks
    set to infinity or NaN; and a seed for the noise of the sign grids."""
    seeds = st.integers(0, 2**32 - 1)
    table = random_ranked_table(np.random.default_rng(draw(seeds)))
    scenario = Scenario("drawn", table, sample_valid_aes(table, draw(seeds)))
    value = st.one_of(st.floats(-5.0, 5.0), st.floats(1e100, 1e308), st.floats(-1e308, -1e100))
    keys = draw(st.lists(st.sampled_from(GRID_KEYS[:3]), min_size=1, max_size=2, unique=True))
    keys += draw(st.lists(st.sampled_from(GRID_KEYS[3:]), min_size=1, max_size=2, unique=True))
    axes = {
        key: np.array(draw(st.lists(value, min_size=1, max_size=3)))
        for key in GRID_KEYS
        if key in keys
    }
    with np.errstate(all="ignore"):
        sectors = importlib.import_module("ews32.sweep")._sector_tensors(scenario, axes)
    for s in sectors:
        for _ in range(draw(st.integers(0, 2))):
            i, h = draw(st.integers(0, 2)), draw(st.integers(0, 2))
            s[i, h, draw(st.integers(0, s.shape[-1] - 1))] = draw(
                st.sampled_from([np.inf, -np.inf, np.nan])
            )
    return scenario, sectors, draw(seeds)


@given(points_last_cases())
@example(
    (
        REFERENCE,
        [np.array(REFERENCE.aes.sigma[j])[..., np.newaxis] for j in range(2)],
        0,
    )
)
def test_batched_helpers_give_each_point_its_own_bits(case):
    # The sweep's stacks hold the tensor or point axis last. Each batched
    # helper must give every point the flags and the bits that the same
    # helper gives that point's own matrix, as the report path calls it.
    scenario, sectors, seed = case
    table, lines = scenario.table, scenario.lines
    module = importlib.import_module("ews32.sweep")
    with np.errstate(all="ignore"):
        eps, terms = [], []
        for s, th, lam in zip(sectors, table.theta.T, table.lam.T):
            alone = [s[..., k] for k in range(s.shape[-1])]
            # Completion is a fixed point on a completed stack, with the
            # bits of completing each tensor on its own.
            assert _same_bits(
                substitution._complete(s.copy(), th[:, np.newaxis]),
                np.stack([substitution._complete(a.copy(), th) for a in alone], axis=-1),
            )
            flags = substitution._aes_flags(s, th[:, np.newaxis])
            assert np.array_equal(
                flags, np.stack([substitution._aes_flags(a, th) for a in alone], axis=-1)
            )
            e = substitution._epsilon(s, th[:, np.newaxis])
            assert _same_bits(e, np.stack([substitution._epsilon(a, th) for a in alone], -1))
            assert _same_bits(
                substitution._rowsum_gap(e),
                [substitution._rowsum_gap(e[..., k]) for k in range(e.shape[-1])],
            )
            term = substitution._term(e, lam[:, np.newaxis])
            assert _same_bits(
                term, np.stack([substitution._term(e[..., k], lam) for k in range(e.shape[-1])], -1)
            )
            eps.append(e)
            terms.append(term)
        # g of every pair of sector tensors, in grid order.
        g = substitution._aggregate(terms[0][..., np.newaxis], terms[1][..., np.newaxis, :])
        g = g.reshape(3, 3, -1)
        pairs = list(itertools.product(range(terms[0].shape[-1]), range(terms[1].shape[-1])))
        alone = [substitution._aggregate(terms[0][..., a], terms[1][..., b]) for a, b in pairs]
        assert _same_bits(g, np.stack(alone, axis=-1))
        failures = substitution._ews_failures(g, table)
        for p, matrix in enumerate(alone):
            assert [bool(f[p]) for f in failures] == [
                bool(f) for f in substitution._ews_failures(matrix, table)
            ]
        s_, t, u = g[LABOR, CAPITAL], g[LABOR, LAND], g[CAPITAL, LAND]
        s_prime, u_prime, sign_t = s_ / t, u / t, np.where(t > 0.0, 1, -1)
        region, failed, offsets = geometry._classify(s_prime, u_prime, sign_t, lines, table)
        for p in range(len(pairs)):
            one = geometry._classify(
                s_prime[p].item(), u_prime[p].item(), sign_t[p].item(), lines, table
            )
            assert region[p] == one[0]
            assert [bool(f[p]) for f in failed] == [bool(f) for f in one[1]]
            assert _same_bits(offsets[..., p], one[2])
        assert module._first_fault(failed).tolist() == [
            next((k + 1 for k, f in enumerate(failed) if f[p]), 0) for p in range(len(pairs))
        ]
    # Sign grids [4, 3, point]: tabled grids of random subregions, some
    # entries moved near zero or to NaN, against the same subregions.
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, len(geometry.REGIONS), size=len(pairs))
    values = statics._TABLED.take(codes, axis=-1)
    values = values * rng.uniform(0.5, 2.0, size=values.shape)
    values[rng.random(values.shape) < 0.05] = rng.choice([1e-14, -1e-14, np.nan, 0.0])
    signs = statics._signs(values)
    disagree = statics._contradicts_tables(signs, codes)
    for p, code in enumerate(codes.tolist()):
        one = statics._signs(values[..., p])
        assert np.array_equal(signs[..., p], one)
        assert disagree[p] == statics._contradicts_tables(one, code)


def _last_flag_set(classified):
    region, failed, offsets = classified
    return region, failed[:-1] + [np.ones_like(failed[-1])], offsets


@pytest.mark.parametrize(
    "name, corrupt, stage",
    [
        ("_epsilon", lambda eps: eps + 1e-3, "epsilon rows"),
        ("_aggregate", lambda g: g + 1e-3, "g invariants"),
        ("_classify", _last_flag_set, "classification"),
        ("dense_signs", lambda solved: (-solved[0], solved[1]), "dense check"),
    ],
    ids=["epsilon-rows", "g-invariants", "classification", "dense-check"],
)
def test_sweep_names_a_point_only_the_stacked_pipeline_refuses(
    reference_scenario, monkeypatch, name, corrupt, stage
):
    # Only the sweep module's binding is corrupted: the stacked pipeline
    # refuses the point at the stage, while run_report, run on it again,
    # accepts it.
    module = importlib.import_module("ews32.sweep")
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: corrupt(real(*args)))
    with pytest.raises(ConsistencyError) as caught:
        sweep(reference_scenario, parse_grid("land_capital_1=1:1:2"))
    assert type(caught.value) is ConsistencyError
    assert re.fullmatch(
        r"grid point 0 \(land_capital_1=1\.0, .*, capital_labor_2=1\.0\): "
        rf"stacked stage '{stage}' refused a point the scalar steps accept",
        str(caught.value),
    )


def test_a_dense_residual_of_exactly_the_tolerance_is_classified(reference_scenario, monkeypatch):
    # The dense check's real signs with a residual of exactly RESIDUAL_TOL
    # pass: the rows are the sweep's own. One float more refuses the
    # point, which the scalar steps accept.
    module = importlib.import_module("ews32.sweep")
    real = module.dense_signs
    grid = parse_grid("land_capital_1=1:1:2")
    want = format_csv(sweep(reference_scenario, grid))
    for residual in (statics.RESIDUAL_TOL, np.nextafter(statics.RESIDUAL_TOL, 1.0)):

        def at_residual(system, residual=residual):
            signs, solved = real(system)
            return signs, np.full_like(solved, residual)

        monkeypatch.setattr(module, "dense_signs", at_residual)
        if residual == statics.RESIDUAL_TOL:
            assert format_csv(sweep(reference_scenario, grid)) == want
        else:
            with pytest.raises(ConsistencyError, match=r"stacked stage 'dense check' refused"):
                sweep(reference_scenario, grid)


def test_sweep_names_a_scalar_error_the_stacked_stage_does_not_stand_for(
    reference_scenario, monkeypatch
):
    # The stacked g invariants refuse a point whose t the scalar steps
    # find degenerate: the pipelines disagree, which is no input fault.
    table = reference_scenario.table
    lam, theta = table.lam, table.theta
    scenario = Scenario("t-zero", table, sample_valid_aes(table, 0))
    x = -lam[LABOR, 1] * theta[LAND, 1] * scenario.aes.sigma[1, LAND, LABOR] / (
        lam[LABOR, 0] * theta[LAND, 0]
    )
    (row,) = sweep(scenario, {"land_labor_1": [x]})
    assert row["status"] == "rejected (degenerate ratio)"
    real = substitution._aggregate
    monkeypatch.setattr(
        importlib.import_module("ews32.sweep"), "_aggregate", lambda *args: real(*args) + 1e-3
    )
    with pytest.raises(ConsistencyError) as caught:
        sweep(scenario, {"land_labor_1": [x]})
    assert type(caught.value) is ConsistencyError
    assert re.fullmatch(
        r"grid point 0 \(land_capital_1=.*\): stacked stage 'g invariants' refused a point "
        r"the scalar steps raise DegenerateT: labor-land substitution is numerically zero; .*",
        str(caught.value),
    )


def _zero_t(table, aes):
    """The land_labor_1 that zeroes t with the rest of aes: t = g[labor,
    land] sums lam[labor, j] * theta[land, j] * sigma[j, labor, land] over
    sectors j."""
    lam, theta = table.lam, table.theta
    return -lam[LABOR, 1] * theta[LAND, 1] * aes.sigma[1, LAND, LABOR] / (
        lam[LABOR, 0] * theta[LAND, 0]
    )


def test_sweep_reports_degenerate_ratio(reference_scenario):
    table = reference_scenario.table
    statuses = []
    for seed in range(10):
        aes = sample_valid_aes(table, seed)
        (row,) = sweep(Scenario("t-zero", table, aes), {"land_labor_1": [_zero_t(table, aes)]})
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


@st.composite
def quasi_concavity_edge_docs(draw):
    """A ranked table and a sampled valid tensor whose land-capital
    elasticity in one sector is a few ulps from the root of its
    completion's scaled land-capital minor, then each own elasticity
    moved by up to the identity tolerance. With x that elasticity and
    theta, sigma the sector's shares and elasticities, the minor is
    theta_land * theta_capital * theta_labor times
    x * (theta_capital * sigma_capital_labor + theta_land * sigma_land_labor)
    + theta_labor * sigma_land_labor * sigma_capital_labor."""
    seeds = st.integers(0, 2**32 - 1)
    table = random_ranked_table(np.random.default_rng(draw(seeds)))
    sigma = sample_valid_aes(table, draw(seeds)).sigma.copy()
    j = draw(st.integers(0, 1))
    th, s = table.theta[:, j], sigma[j]
    ll, cl = s[LAND, LABOR], s[CAPITAL, LABOR]
    root = -th[LABOR] * ll * cl / (th[CAPITAL] * cl + th[LAND] * ll)
    s[LAND, CAPITAL] = s[CAPITAL, LAND] = root + draw(st.integers(-4, 4)) * math.ulp(root)
    for i in range(3):
        s[i, i] = 0.0
        s[i, i] = -(s[i] @ th) / th[i]
    for sector in sigma:
        for i in range(3):
            sector[i, i] += draw(st.floats(-IDENTITY_TOL, IDENTITY_TOL))
    return {
        "theta": table.theta.tolist(),
        "theta_sector": table.theta_sector.tolist(),
        "sigma": sigma.tolist(),
    }


@given(quasi_concavity_edge_docs())
@example(dict(REFERENCE_DOC, sigma=QC_EDGE_SIGMA))
def test_an_accepted_document_is_accepted_at_its_own_sweep_point(doc):
    # A document is valid only if the completion it is analysed as is,
    # and that completion is the tensor of a one-point sweep at the
    # document's own values.
    try:
        scenario = scenario_from_mapping(doc)
    except ValidationError:
        return
    value = doc["sigma"][0][0][1]
    try:
        (row,) = sweep(scenario, parse_grid(f"land_capital_1={value!r}:{value!r}:1"))
    except ConsistencyError:
        # The exit-1 band of a vector within roundoff of a border line
        # (ROADMAP item 3).
        reject()
    assert row["status"] == "ok"


@pytest.mark.xfail(
    strict=True,
    raises=ClosedFormMismatch,
    reason="a vector within roundoff of the P2/P3 border line is classified P3 while its "
    "dense output and real-reward signs read 0 (ROADMAP item 3)",
)
def test_a_point_in_the_near_line_band_is_classified_or_refused(reference_scenario):
    # Between land_capital_1 = 3.5 (P2) and 4 (P3) the reference vector
    # crosses a border line. At this value the classifier places it off
    # the line, in P3, but the dense solve gives two signs of exactly 0,
    # so the sweep ends in ClosedFormMismatch (exit 1). Either outcome
    # below is what every input must end in.
    value = 3.864957264973782
    (row,) = sweep(reference_scenario, parse_grid(f"land_capital_1={value!r}:{value!r}:1"))
    assert row["status"] in ("ok", "rejected (on a border line)")

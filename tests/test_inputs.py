"""The input boundary: every number a library caller hands over.

Document fields, sweep axes, figure windows, shocks and the arguments of
the public constructors each accept a number or a rectangular nest of
lists, tuples and arrays of finite ints and floats. Anything else is
refused with a ValidationError, never a raw exception, and an accepted
value reads exactly as its float array.
"""

import importlib
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import ews32
from ews32 import (
    AesTensor,
    ConsistencyError,
    ParseError,
    ShockVector,
    SingularSystem,
    ValidationError,
    aggregate_substitution,
    assemble_system,
    build_share_table,
    boundary_value,
    determinant_delta,
    ews_from_stu,
    format_report,
    render_figure,
    run_report,
    scenario_from_mapping,
    solve_responses,
    solve_shocks,
)
from ews32.shares import _finite_array
from ews32.sweep import format_csv, sweep

from test_scenario import REFERENCE_DOC

REFERENCE = scenario_from_mapping(dict(REFERENCE_DOC))
THETA, THETA_SECTOR = REFERENCE_DOC["theta"], REFERENCE_DOC["theta_sector"]
# Levels whose factor incomes are the reference factor shares.
ENDOWMENTS, PRICES = REFERENCE.table.theta_factor.tolist(), [1.0, 1.0, 1.0]
STU = (REFERENCE.vector.s, REFERENCE.vector.t, REFERENCE.vector.u)
SYSTEM = assemble_system(REFERENCE.table, REFERENCE.ews).tolist()
SHOCK = ShockVector(price_shock=1.0, endowment_shocks=(0.5, 0.0, -0.5))

# The reference document's numeric fields; price and endowments are
# read from its one shock.
FIELDS = ("theta", "theta_sector", "sigma", "price", "endowments")

# One leaf nested 100 deep, past the dimensions numpy holds.
DEEP = 0.5
for _ in range(100):
    DEEP = [DEEP]

_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**20), 10**20),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(-128, 127).map(np.int8),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(np.float32),
)
_LEAVES = st.one_of(
    _NUMBERS,
    st.sampled_from([10**400, -(10**400)]),
    st.sampled_from([True, False, np.True_, np.False_]),
    st.sampled_from(["1", "-2.5e3", "nan", "abc", ""]),
    st.sampled_from([None, math.nan, math.inf, -math.inf]),
)

def _object_array(items) -> np.ndarray:
    """A 1-D object array holding items as they are, nests included."""
    arr = np.empty(len(items), dtype=object)
    for k, item in enumerate(items):
        arr[k] = item
    return arr


def _array(items) -> np.ndarray:
    """The array numpy makes of items, or their object array where numpy
    makes none (a ragged nest)."""
    try:
        return np.array(items)
    except (ValueError, TypeError, OverflowError):
        return _object_array(items)


def _nests(depth: int, leaves):
    """Leaves and 0-d arrays, nested up to depth levels in lists, tuples,
    arrays and object arrays; a nest may be ragged."""
    if depth == 0:
        return st.one_of(leaves, leaves.map(_array), leaves.map(lambda v: np.array(v, object)))
    inner = _nests(depth - 1, leaves)
    items = st.lists(inner, max_size=4)
    return st.one_of(
        inner, items, items.map(tuple), items.map(_array), items.map(_object_array)
    )


@st.composite
def _rewritten(draw, value):
    """value with each list drawn anew as a list, tuple or array, or as an
    object array if it holds numbers, and each leaf as a float, a numpy
    float or, if whole, an int."""
    if isinstance(value, list):
        items = [draw(_rewritten(item)) for item in value]
        kinds = [list, tuple, _array] + [_object_array] * (not isinstance(value[0], list))
        return draw(st.sampled_from(kinds))(items)
    kinds = [float, np.float64] + [int, np.int64] * float(value).is_integer()
    return draw(st.sampled_from(kinds))(value)


def _leaves(value) -> list:
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


def _reads_as_floats(call, value) -> None:
    """call(value) raises ValidationError, or it returns what call returns
    for the value's float array written as lists, and every leaf of the
    value is an int or a float, not a bool."""
    try:
        got = call(value)
    except ValidationError:
        return
    numbers = (int, float, np.integer, np.floating)
    assert all(isinstance(v, numbers) and type(v) is not bool for v in _leaves(value))
    assert got == call(np.array(value, dtype=float).tolist())


def _document(field: str, value) -> dict:
    if field in ("price", "endowments"):
        return dict(REFERENCE_DOC, shocks=[{field: value}])
    return dict(REFERENCE_DOC, **{field: value})


def _report(field: str):
    return lambda v: format_report(run_report(scenario_from_mapping(_document(field, v))))


def _sweep_axis(value):
    rows = sweep(REFERENCE, {"land_capital_1": value})
    return format_csv(rows), list(rows)


def _solved(solve):
    """solve of a caller's system, or the text of the SingularSystem that
    a singular one ends in."""

    def call(system):
        try:
            return solve(system)
        except SingularSystem as exc:
            return str(exc)

    return call


# Every entry point that reads a caller's numbers, with a value it
# accepts.
TARGETS = {
    "theta": (_report("theta"), REFERENCE_DOC["theta"]),
    "theta_sector": (_report("theta_sector"), REFERENCE_DOC["theta_sector"]),
    "sigma": (_report("sigma"), REFERENCE.aes.sigma.tolist()),
    "price": (_report("price"), 1.0),
    "endowments": (_report("endowments"), [1.0, 0.0, 0.0]),
    "sweep axis": (_sweep_axis, [-2.0, 0.5, 2.0]),
    "figure window": (lambda v: render_figure(REFERENCE, window=v), [[-4.0, 4.0], [-10.0, 4.0]]),
    "shock price": (lambda v: ShockVector(price_shock=v), 1.0),
    "shock endowments": (lambda v: ShockVector(endowment_shocks=v), [1.0, 0.0, 0.0]),
    "share table theta": (lambda v: build_share_table(v, THETA_SECTOR).lam.tolist(), THETA),
    "share table theta_sector": (
        lambda v: build_share_table(THETA, v).lam.tolist(),
        THETA_SECTOR,
    ),
    "AesTensor": (lambda v: AesTensor(sigma=v).sigma.tolist(), REFERENCE.aes.sigma.tolist()),
    "aggregate endowments": (
        lambda v: aggregate_substitution(REFERENCE.ews, v, PRICES).tolist(),
        ENDOWMENTS,
    ),
    "aggregate prices": (
        lambda v: aggregate_substitution(REFERENCE.ews, ENDOWMENTS, v).tolist(),
        PRICES,
    ),
    # The u slot is test_a_large_u_is_read_or_refused.
    "ews_from_stu s": (lambda v: ews_from_stu(REFERENCE.table, v, *STU[1:]).g.tolist(), STU[0]),
    "ews_from_stu t": (
        lambda v: ews_from_stu(REFERENCE.table, STU[0], v, STU[2]).g.tolist(),
        STU[1],
    ),
    "boundary_value": (
        lambda v: np.asarray(boundary_value(v, REFERENCE.table)).tolist(),
        [-3.0, 0.5, 2.0],
    ),
    "solve_shocks system": (_solved(lambda v: solve_shocks(v, (SHOCK, SHOCK))), SYSTEM),
    "solve_responses system": (_solved(lambda v: solve_responses(v, SHOCK)), SYSTEM),
    "determinant_delta system": (
        lambda v: determinant_delta(v, REFERENCE.table, REFERENCE.ews),
        SYSTEM,
    ),
}


@given(st.one_of(_nests(3, _NUMBERS), _nests(3, _LEAVES)))
@example(np.array(1.0))
@example([10**400])
@example(((0, 10**400), (0, 1)))
@example("1")
@example(None)
@example(10**400)
@example((1, 2, 10**400))
@example(5)
@example(DEEP)
# Finite, but the matrix or the level ratios they make overflow.
@example(1.7e308)
@example([5e-324, 1.0, 1.0])
@settings(max_examples=200)
def test_every_number_a_caller_hands_over_is_read_or_refused(value):
    for call, _ in TARGETS.values():
        _reads_as_floats(call, value)


@pytest.mark.parametrize("target", list(TARGETS))
@given(data=st.data())
@settings(max_examples=20)
def test_an_accepted_value_reads_the_same_in_any_container(target, data):
    call, plain = TARGETS[target]
    assert call(data.draw(_rewritten(plain))) == call(plain)


_VIEWS = {
    "whole": lambda a: a,
    "transposed": lambda a: a.T,
    "strided": lambda a: a[..., ::2],
    "reversed": lambda a: a[::-1],
}


@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=4),
        elements=st.floats() | st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
    ),
    st.sampled_from(list(_VIEWS)),
)
def test_a_float_array_reads_as_its_object_array(arr, view):
    # A float64 array takes the reader's fast path; the same numbers as
    # an object array take the leaf-by-leaf path.
    assume(arr.ndim or view in ("whole", "transposed"))
    value = _VIEWS[view](arr)
    fast, slow = _finite_array(value), _finite_array(value.astype(object))
    if slow is None:
        assert fast is None
        return
    assert (fast.dtype, fast.shape) == (slow.dtype, slow.shape)
    assert fast.tobytes() == slow.tobytes()
    assert not np.shares_memory(fast, value)


@pytest.mark.xfail(
    raises=ConsistencyError,
    strict=True,
    reason="the float land/capital minor check cancels, and past 1e154 overflows (ROADMAP item 3)",
)
@pytest.mark.parametrize(
    "u", [pytest.param(5899083690330626.0, marks=pytest.mark.blas_kernel_bits), 1e200]
)
def test_a_large_u_is_read_or_refused(u):
    # A valid placement: the minor is a positive multiple of
    # u(s + t) + (theta_L/theta_K)st, which grows with u.
    try:
        ews_from_stu(REFERENCE.table, *STU[:2], u)
    except ValidationError:
        pass


@pytest.mark.parametrize("field", FIELDS)
def test_a_nest_deeper_than_numpy_holds_is_a_parse_error(field):
    with pytest.raises(ParseError):
        scenario_from_mapping(_document(field, DEEP))


_NAN_THETA = [row[:] for row in THETA]
_NAN_THETA[1][0] = math.nan


@pytest.mark.parametrize(
    "field, value, construct",
    [
        ("theta", _NAN_THETA, lambda v: build_share_table(v, THETA_SECTOR)),
        ("theta", [[0.5, 0.5], [0.5, 0.5]], lambda v: build_share_table(v, THETA_SECTOR)),
        ("sigma", REFERENCE.aes.sigma[0].tolist(), lambda v: AesTensor(sigma=v)),
        ("price", "1", lambda v: ShockVector(price_shock=v)),
    ],
    ids=["nan-share", "2x2-theta", "3x3-sigma", "string-price"],
)
def test_a_malformed_value_is_refused_alike_by_document_and_constructor(field, value, construct):
    with pytest.raises(ParseError) as document:
        scenario_from_mapping(_document(field, value))
    with pytest.raises(ParseError) as library:
        construct(value)
    assert (type(document.value), str(document.value)) == (type(library.value), str(library.value))


def test_a_document_reads_each_number_once(monkeypatch):
    # Seven numeric fields: theta, theta_sector, sigma, and each of two
    # shocks' price and endowments; and the scenario's derived g, which
    # EwsMatrix reads once as it is built.
    reads = []

    def counted(value):
        reads.append(value)
        return finite_array(value)

    finite_array = ews32.shares._finite_array
    for info in pkgutil.iter_modules(ews32.__path__):
        module = importlib.import_module(f"ews32.{info.name}")
        if hasattr(module, "_finite_array"):
            monkeypatch.setattr(module, "_finite_array", counted)
    doc = dict(
        REFERENCE_DOC,
        sigma=REFERENCE.aes.sigma.tolist(),
        shocks=[{"price": 1.0, "endowments": [0.0, 1.0, 0.0]}, {"price": -0.5}],
    )
    scenario_from_mapping(doc)
    assert len(reads) == 8

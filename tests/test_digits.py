"""The one exact decimal writer, ews32._digits, in both of its formats:
"%.9g" for the sweep CSV and "%.3f" for the figure SVG. The value
strategies and the check shared by each format's property test, in
test_sweep.py and test_figure.py, are here."""

import importlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from ews32 import _digits, format_csv, scenario_from_mapping
from ews32._digits import nine_digits, three_decimals
from ews32.figure import _points_text, _polylines

from conftest import percent_polylines, percent_text, reference_csv
from test_scenario import REFERENCE_DOC

def written(fmt: str, values) -> list[str] | None:
    """The writer's fmt text of each value, or None if it refuses them."""
    values = np.array(values, dtype=float)
    words = (nine_digits if fmt == "%.9g" else three_decimals)(values)
    if words is None:
        return None
    rows = words.T if fmt == "%.9g" else words
    return [row.tobytes().translate(None, b"\0").decode("ascii") for row in rows]


def certifiable(fmt: str, value: float) -> bool:
    """Whether value's product |value| * 10**(8 - X), with X its decimal
    exponent for "%.9g" and 5 for "%.3f", is exactly more than 1e-6 from
    every half-integer and from rounding to 10**9, with X in -4..8: the
    product's float then rounds as the exact product does."""
    if not math.isfinite(value):
        return False
    a = Fraction(abs(value))
    if fmt == "%.3f":
        x = 5
    elif Fraction(1, 10**4) <= a < 10**9:
        x = next(x for x in range(-4, 9) if a < Fraction(10) ** (x + 1))
    else:
        return False
    p = a * Fraction(10) ** (8 - x)
    return abs(p - math.floor(p) - Fraction(1, 2)) > Fraction(1, 10**6) and p < 10**9 - 1


def near_half(m: int, step: int) -> float:
    """m / 1000 + 0.0005, or the float one ulp below (-1) or above (+1) it."""
    half = (m + 0.5) / 1000
    return math.nextafter(half, step * math.inf) if step else half


def beside_a_power_of_ten(exponent: int, steps: int, sign: float) -> float:
    """sign * 10**exponent, stepped |steps| floats up or down."""
    value = float(f"1e{exponent}")
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return sign * value


SIGNS = st.sampled_from([1.0, -1.0])
# Both formats' families of values.
FAMILIES = (
    # Random bit patterns: subnormals, +-0.0, inf and nan among them.
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))),
    st.floats(-1e3, 1e3),
    st.floats(-1e6, 1e6),
    # k / 16 for odd k: an exact tie in the third decimal.
    st.integers(-(2**23), 2**23).map(lambda k: (2 * k + 1) / 16),
    st.builds(near_half, st.integers(-(10**9), 10**9), st.sampled_from([-1, 0, 1])),
    st.floats(-0.0005, 0.0),  # negatives that "%.3f" rounds to zero
    st.builds(lambda exponent, sign: sign * 10.0**exponent, st.floats(-7.0, 11.0), SIGNS),
    st.builds(beside_a_power_of_ten, st.integers(-7, 11), st.integers(-2, 2), SIGNS),
    # Carries past each format's last digit, and the values beside them.
    st.builds(
        lambda value, sign: sign * value,
        st.sampled_from([9.9999999996, 999999.9994, 999999.9995, 999999.9996, 999999999.4]),
        SIGNS,
    ),
    st.one_of(st.floats(1e6, 1e308), st.sampled_from([math.inf, -math.inf, math.nan])),
)


@st.composite
def value_lists(draw):
    """Values from one family, or from all of them mixed."""
    family = draw(st.sampled_from(FAMILIES + (st.one_of(*FAMILIES),)))
    return draw(st.lists(family, min_size=1, max_size=40))


REFERENCE = scenario_from_mapping(dict(REFERENCE_DOC))


def classified_rows(s_prime: np.ndarray, u_prime: np.ndarray):
    """SweepRows of a one-key grid over the reference template whose every
    row is classified, with these S' and U'."""
    m = len(s_prime)
    return importlib.import_module("ews32.sweep").SweepRows(
        {"land_capital_1": np.linspace(0.5, 2.0, m)},
        REFERENCE.aes.sigma,
        np.arange(m),
        s_prime,
        u_prime,
        np.where(np.arange(m) % 2, 1, -1),
        np.arange(m) % 12,
        np.zeros(m, dtype=int),
    )


def check_writes_what_percent_writes_or_refuses(fmt, values, data):
    """A value is written as fmt "%" writes it or refused, never written
    wrong; it is written whenever its scaled product is clear of a tie and
    of a carry, and a batch is written exactly when each of its values is,
    with the same text. The format's caller, format_csv for "%.9g" and
    _polylines for "%.3f", writes the same bytes either way; data, when
    given, draws the runs that split the "%.3f" points."""
    alone = [written(fmt, [v]) for v in values]
    for value, text in zip(values, alone):
        if text is None:
            assert not certifiable(fmt, value)
        else:
            assert text == [fmt % value]
    assert written(fmt, values) == ([text for (text,) in alone] if all(alone) else None)
    if fmt == "%.9g":
        rows = classified_rows(np.array(values), np.array(values[::-1]))
        assert format_csv(rows) == reference_csv(rows)
        return
    xy = np.array(values + values[:1] * (len(values) % 2)).reshape(-1, 2)
    cuts = set() if data is None else data.draw(st.sets(st.integers(1, len(xy))))
    ends = np.array(sorted(cuts | {len(xy)}))
    text = _points_text(xy, ends)
    assert text is None or text == percent_text(xy, ends)
    assert _polylines(xy, ends) == percent_polylines(xy, ends)


def test_the_writer_tables_are_fixed_at_import():
    # The word table, the "%.9g" exponent tables and the "%.3f" group views
    # of the word table are built once, at import, and none can be changed
    # in place.
    tables = {name: value for name, value in vars(_digits).items() if isinstance(value, np.ndarray)}
    names = {"_WORDS", "_POWERS", "_SCALE", "_START", "_LEADS", "_THOUSANDS", "_UNITS", "_DECIMALS"}
    assert set(tables) == names
    for table in tables.values():
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = table[(0,) * table.ndim]

"""Exact vectorized "%.9g" and "%.3f": each value's text as little-endian
uint32 words, whose NUL bytes are deleted from the joined text.

Both write v from the nine digits of n = rint(|v| * 10**(8 - X)) in three
groups of three, the point after digit X: "%.9g" takes X from v's decimal
exponent and drops trailing fraction zeros, "%.3f" fixes X = 5 and drops
the integer part's leading zeros but the units digit.
"""

from __future__ import annotations

import itertools

import numpy as np

WORD = np.dtype("<u4")


def _at(q: int, t: int, k: int) -> int:
    """The index in _WORDS of group 0 with point place q and flags t and k."""
    return (4 * (q + 1) + 2 * t + k) * 1000


def _word_table() -> np.ndarray:
    """The word of each three-digit group g at _at(q, t, k) + g, read-only:
    the point after digit q of the group (-1: before it, 3: after a later
    group), its trailing fraction zeros dropped if t, for a format that
    drops them when every later digit is zero, and its leading zeros kept
    if k, when an earlier digit is not zero. A group with no point leaves
    a byte NUL for its format: first in an integer group, last in others."""
    g = np.arange(1000)
    words = np.zeros((20 * 1000, 4), dtype=np.uint8)
    for q, t, k in itertools.product(range(-1, 4), (0, 1), (0, 1)):
        cells = [0] if q == 3 else []
        for i, place in enumerate((100, 10, 1)):
            # A zero fraction digit with only zeros after it, or a leading
            # zero that is not the units digit.
            dropped = (t and g % (10 * place) == 0) if i > q else (not k and i != q and g < place)
            cells.append(np.where(dropped, 0, g // place % 10 + ord("0")))
            if i == q:
                cells.append(np.where(t and g % place == 0, 0, ord(".")))
        cells += [0] * (4 - len(cells))
        words[_at(q, t, k) + g] = np.column_stack(np.broadcast_arrays(*cells))
    words = words.view(WORD).ravel()
    words.flags.writeable = False
    return words


_WORDS = _word_table()


def _groups(p: np.ndarray) -> tuple[np.ndarray, ...] | None:
    """n // 1000, n // 10**6, n // 1000 % 1000 and n % 1000 for n =
    rint(p), as intp arrays; None unless every p is certified.

    Each p is |v| * 10**(8 - X), one correctly rounded product by an exact
    power of ten. Every half-integer below 10**9 is a float and rounding
    is monotone, so when p is none, the exact product lies on p's side of
    each of them: it is no tie and, while rint(p) < 10**9, rounds to the
    nine digits of rint(p), as "%" rounds it. NaN is not certified.
    """
    n = np.rint(p)
    # rint(p) < 10**9 exactly when p < 999999999.5; p - n is exact, and
    # 0.5 in size only where p is a half-integer.
    if not (p.max() < 999_999_999.5 and np.abs(p - n).max() < 0.5):
        return None
    n = n.astype(np.intp)
    whole = n // 1000
    high = whole // 1000
    return whole, high, whole - 1000 * high, n - 1000 * whole


def _exponent_tables() -> tuple[np.ndarray, ...]:
    """The bounds of "%.9g"'s codes, then per code its tables, all read-only.

    v's code is the number of bounds at or below it: -10**X for X from 9
    down to -4, each stepped one float towards zero, then 10**X for X from
    -4 to 9. Each literal from 1e-4 up is a float no smaller than the power
    of ten it names, and no float lies between the two, so codes 1-13 hold
    the negative v with X from 8 down to -4 and codes 15-27 the positive v
    with X from -4 to 8, exactly. The other codes hold what "%.9g" writes
    with an exponent, zero, or NaN, which sorts last. Per code: the scale
    10**(8 - X), negated for a negative v and NaN where the code holds no
    certified value; each group's index in _WORDS less the group, as if a
    later digit were not zero; and the two lead words, a NUL byte left for
    a separator, the sign and, for X < 0, "0." and the zeros after it."""
    bounds = np.array(
        [np.nextafter(-float(f"1e{x}"), 0.0) for x in range(9, -5, -1)]
        + [float(f"1e{x}") for x in range(-4, 10)]
    )
    scales = np.full(len(bounds) + 1, np.nan)
    starts = np.zeros((3, len(scales)), dtype=np.intp)
    leads = np.zeros((len(scales), 8), dtype=np.uint8)
    for x, negative in itertools.product(range(-4, 9), (False, True)):
        code = 9 - x if negative else 19 + x
        scales[code] = (-1.0 if negative else 1.0) * 10 ** (8 - x)
        # The last group has no later digit, and no group a leading zero.
        starts[:, code] = [_at(min(max(x - 3 * j, -1), 3), j == 2, 1) for j in range(3)]
        text = b"\0" + b"-" * negative + (b"0." + b"0" * (-x - 1) if x < 0 else b"")
        leads[code, : len(text)] = np.frombuffer(text, dtype=np.uint8)
    leads = leads.view(WORD).T.copy()
    for table in (bounds, scales, starts, leads):
        table.flags.writeable = False
    return bounds, scales, starts, leads


_POWERS, _SCALE, _START, _LEADS = _exponent_tables()


def nine_digits(values: np.ndarray) -> np.ndarray | None:
    """The words [5, n] of "%.9g" % v for each of the n values, the first
    byte of each text NUL; None unless every value is certified. 0, -0.0,
    non-finite values and |v| < 1e-4 or >= 1e9, which "%.9g" writes with
    an exponent, are not."""
    code = np.searchsorted(_POWERS, values, side="right")
    groups = _groups(values * _SCALE.take(code))
    if groups is None:
        return None
    _, high, middle, low = groups
    index = _START.take(code, axis=1)
    # t, at 2000 past the group, for a group whose later digits are all zero.
    zero = low == 0
    index[0] += high + 2000 * (zero & (middle == 0))
    index[1] += middle + 2000 * zero
    index[2] += low
    return np.concatenate((_LEADS.take(code, axis=1), _WORDS.take(index)))


# "%.3f"'s two integer groups, the point after the second, and decimals.
_THOUSANDS, _UNITS, _DECIMALS = (_WORDS[_at(q, 0, 0) :] for q in (3, 2, -1))


@np.errstate(over="ignore")
def three_decimals(values: np.ndarray) -> np.ndarray | None:
    """The words [..., 3] of "%.3f" % v for each of the values, the last
    byte of each text NUL; None unless every value is certified. The sign
    comes from the sign bit, so -0.0 writes "-0.000". Non-finite values,
    and |v| whose product with 1000 rounds to 10**9 or more, are not."""
    groups = _groups(np.abs(values) * 1000.0)
    if groups is None:
        return None
    whole, high, middle, low = groups
    words = np.empty(values.shape + (3,), dtype=WORD)
    words[..., 0] = _THOUSANDS[high]
    # k, at 1000 past the group, for a units group after a thousands group.
    words[..., 1] = _UNITS[np.minimum(whole, middle + 1000)]
    words[..., 2] = _DECIMALS[low]
    np.bitwise_or(words[..., 0], ord("-"), out=words[..., 0], where=np.signbit(values))
    return words

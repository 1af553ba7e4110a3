"""Comparative statics of the two-sector economy.

The 5x5 linear system stacks two zero-profit rows (distributive shares)
on three full-employment rows (economy-wide substitution plus allocation
shares). Unknowns are the three factor prices deflated by the first
good's price and the two output changes; shocks are the relative goods
price and the three endowments. Everything here is computed twice: once
through the closed forms (determinant, cofactors, sign tables) and once
through a dense pivoted solve. The two routes must agree or we raise.
_checked_statics runs a report's checks in order and makes its one solve
call, for the four unit check shocks and then each scenario shock.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ClosedFormMismatch, ParseError, SingularSystem, ValidationError
from .geometry import REGIONS, SIGNATURES, LineCoeffs, Subregion, _locate, line_coefficients
from .shares import CAPITAL, LABOR, LAND, ShareTable, _read, _readonly
from .substitution import EwsMatrix, EwsRatioVector, _require_ews_invariants, ews_ratio_vector

# Closed forms vs dense linear algebra, relative.
CROSS_CHECK_TOL = 1e-9
# Solve residuals, relative to the size of the sums they come from and
# absolute when that is below one.
RESIDUAL_TOL = 1e-10
# Entries at most this size get sign 0, too close to call; the sign
# tables contain no zeros, so such a sign never matches them.
SIGN_ZERO_TOL = 1e-12

_FACTOR_ROWS = (LAND, CAPITAL, LABOR)


@dataclass(frozen=True)
class ShockVector:
    """Log-differential shocks: relative goods price and endowments."""

    price_shock: float = 0.0
    endowment_shocks: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        price = _read(self.price_shock, (), "price")
        endow = _read(self.endowment_shocks, (3,), "endowments")
        # Copies, so the shock is hashable and no caller's array moves it.
        object.__setattr__(self, "price_shock", float(price))
        object.__setattr__(self, "endowment_shocks", tuple(endow.tolist()))

    def right_hand_side(self) -> np.ndarray:
        return np.array(
            [0.0, -self.price_shock, *self.endowment_shocks], dtype=float
        )


@dataclass(frozen=True)
class ResponseVector:
    """Solution of the system: factor prices deflated by the first
    good's price, and the two output changes; residual is the solve's
    worst residual, relative to its scale past RESIDUAL_TOL."""

    w_hat: tuple[float, float, float]
    x_hat: tuple[float, float]
    residual: float

    def as_array(self) -> np.ndarray:
        return np.array([*self.w_hat, *self.x_hat], dtype=float)


@dataclass(frozen=True)
class SignPattern:
    """A tabled 2x3 sign grid; entries in {-1, +1}. For "rybczynski"
    rows are sectors and columns factors; for "stolper_samuelson" rows
    are the two price deflators."""

    entries: tuple[tuple[int, int, int], tuple[int, int, int]]


@dataclass(frozen=True)
class DeltaReport:
    """System determinant through three routes: dense elimination, the
    closed form in own-substitution terms, and the closed form in
    cross-substitution terms. Always negative."""

    dense: float
    via_own_terms: float
    via_cross_terms: float

    @property
    def value(self) -> float:
        return self.via_own_terms


@dataclass(frozen=True)
class CofactorReport:
    """The six output-response cofactors through three routes; each array
    is indexed [sector, factor]."""

    direct: np.ndarray
    expanded: np.ndarray
    factored: np.ndarray

    def __post_init__(self):
        for name in ("direct", "expanded", "factored"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))


@dataclass(frozen=True)
class ComparativeStatics:
    """One economy's read-only 5x5 system, determinant, output elasticities to
    endowments [sector, factor], and real factor-price elasticities to the
    relative goods price [deflator, factor]; deflator row 0 is the first
    good's price, row 1 the second's."""

    system: np.ndarray
    delta: DeltaReport
    rybczynski: np.ndarray
    stolper_samuelson: np.ndarray


def _relative_gap(x: float, y: float) -> float:
    # Entries that are zero in both routes (vectors essentially on a
    # border line) agree by definition; without the escape the relative
    # measure is noise over noise.
    if abs(x - y) <= SIGN_ZERO_TOL:
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


def assemble_system(table: ShareTable, g: EwsMatrix) -> np.ndarray:
    """The read-only [5, 5] coefficient matrix of the comparative-statics
    system: zero-profit over full-employment rows."""
    return _system(table, g.g)


def _system(table: ShareTable, g: np.ndarray) -> np.ndarray:
    """assemble_system's layout a[5, 5, ...], from the matrices g[3, 3, ...]
    of any array or view, read once where they are; any batch axes trail,
    as in every other helper."""
    tail = (1,) * (g.ndim - 2)
    a = np.zeros((5, 5, *g.shape[2:]))
    a[:2, :3] = table.theta.T.reshape(2, 3, *tail)
    a[2:, :3] = g
    a[2:, 3:] = table.lam.reshape(3, 2, *tail)
    a.flags.writeable = False
    return a


def determinant_delta(system: np.ndarray, table: ShareTable, g: EwsMatrix) -> DeltaReport:
    """Determinant of the system through three agreeing routes. The
    system is read first (ParseError); then, as in cofactors, g is checked
    against the invariants of table's economy-wide substitution, and the
    system must be assemble_system(table, g) (ValidationError)."""
    system = _read(system, (5, 5), "system")
    _require_ews_invariants(g.g, table, ValidationError)
    if not np.array_equal(system, assemble_system(table, g)):
        raise ValidationError("system must be assemble_system(table, g)")
    return _determinant_delta(system, table, g)


def _determinant_delta(system: np.ndarray, table: ShareTable, g: EwsMatrix) -> DeltaReport:
    """determinant_delta of a g already checked."""
    # An overflowing determinant is refused below as a disagreement, with
    # no numpy warning ahead of the error.
    with np.errstate(over="ignore", invalid="ignore"):
        dense = float(np.linalg.det(system))
    a, b, _ = table.diff
    tf = table.theta_factor.tolist()
    ts = table.theta_sector.tolist()
    gg = g.g.tolist()
    scale = ts[0] * ts[1] / (tf[LAND] * tf[CAPITAL] * tf[LABOR])
    own = scale * (
        a * a * gg[CAPITAL][CAPITAL] * tf[CAPITAL]
        + b * b * gg[LAND][LAND] * tf[LAND]
        - 2.0 * a * b * gg[CAPITAL][LAND] * tf[CAPITAL]
    )
    cross = -scale * (
        (a + b) ** 2 * gg[CAPITAL][LAND] * tf[CAPITAL]
        + gg[LABOR][CAPITAL] * tf[LABOR] * a * a
        + gg[LABOR][LAND] * tf[LABOR] * b * b
    )
    gaps = (_relative_gap(dense, own), _relative_gap(dense, cross), _relative_gap(own, cross))
    if not all(gap <= CROSS_CHECK_TOL for gap in gaps):
        raise ClosedFormMismatch(
            f"determinant routes disagree: dense {dense!r}, own-terms {own!r}, "
            f"cross-terms {cross!r}"
        )
    if not (dense < 0.0 and own < 0.0 and cross < 0.0):
        raise ClosedFormMismatch(f"system determinant must be negative, got {dense!r}")
    return DeltaReport(dense=dense, via_own_terms=own, via_cross_terms=cross)


def _det3(m) -> float:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _expanded_cofactors(a: float, b: float, gg, lc) -> list[float]:
    """One sector's (land, capital, labor) cofactors by their expanded
    four-term forms, from the substitution rows gg and the other sector's
    allocation column lc."""
    return [
        a * gg[CAPITAL][CAPITAL] * lc[LABOR]
        + b * lc[CAPITAL] * gg[LABOR][LAND]
        - a * gg[LABOR][CAPITAL] * lc[CAPITAL]
        - b * gg[CAPITAL][LAND] * lc[LABOR],
        a * gg[LAND][CAPITAL] * lc[LABOR]
        + b * lc[LAND] * gg[LABOR][LAND]
        - a * gg[LABOR][CAPITAL] * lc[LAND]
        - b * gg[LAND][LAND] * lc[LABOR],
        a * gg[LAND][CAPITAL] * lc[CAPITAL]
        + b * lc[LAND] * gg[CAPITAL][LAND]
        - a * gg[CAPITAL][CAPITAL] * lc[LAND]
        - b * gg[LAND][LAND] * lc[CAPITAL],
    ]


# The two factors other than each one, in row order.
_OTHER_FACTORS = tuple(tuple(f for f in _FACTOR_ROWS if f != factor) for factor in _FACTOR_ROWS)


def _cofactor_routes(
    table: ShareTable, g: EwsMatrix, vector: EwsRatioVector, lines: LineCoeffs, offsets
) -> tuple[list, list, list]:
    """The six cofactors [sector][factor] as a literal 3x3 determinant, by
    the expanded four-term form, and through the border-line factorization
    e * t * offset, on the vector's offsets [sector, factor] to the lines,
    as LineCoeffs.offsets gives them; lists of Python floats. Raise unless
    the three agree."""
    a, b, _ = table.diff
    gg = g.g.tolist()
    lam = table.lam.tolist()
    direct, expanded = [], []
    for sector in range(2):
        # The cofactor for sector 0 carries the other sector's allocation
        # column, and vice versa.
        lc = [row[1 - sector] for row in lam]
        direct.append(
            [
                _det3(
                    [
                        [a, b, 0.0],
                        [gg[i][LAND], gg[i][CAPITAL], lc[i]],
                        [gg[h][LAND], gg[h][CAPITAL], lc[h]],
                    ]
                )
                for i, h in _OTHER_FACTORS
            ]
        )
        expanded.append(_expanded_cofactors(a, b, gg, lc))
    factored = (lines.abe[..., 2].T * vector.t * offsets).tolist()

    # A NaN entry drops out of the scale and fails its own comparison.
    scale = max(1e-300, *map(abs, direct[0] + direct[1]))
    for route, values in (("expanded", expanded), ("factored", factored)):
        for sector in range(2):
            for factor in _FACTOR_ROWS:
                want, got = direct[sector][factor], values[sector][factor]
                gap = abs(want - got) / scale
                if not gap <= CROSS_CHECK_TOL:
                    raise ClosedFormMismatch(
                        f"{route} cofactor route disagrees with the determinant at sector "
                        f"{sector + 1}, factor {factor}: {want!r} vs {got!r} "
                        f"(relative gap {gap:e})"
                    )
    return direct, expanded, factored


def cofactors(table: ShareTable, g: EwsMatrix) -> CofactorReport:
    """The six cofactors driving output responses, each computed three
    ways: as a literal 3x3 determinant, by its expanded four-term form,
    and through the border-line factorization, which reads the ratio
    vector of g and the border lines of table. The forms hold only for a
    g that keeps the invariants of table's economy-wide substitution, so
    g is checked first: ValidationError naming the first it breaks."""
    _require_ews_invariants(g.g, table, ValidationError)
    vector, lines = ews_ratio_vector(g), line_coefficients(table)
    direct, expanded, factored = _cofactor_routes(
        table, g, vector, lines, lines.offsets(vector.s_prime, vector.u_prime)
    )
    return CofactorReport(direct=direct, expanded=expanded, factored=factored)


def _residual(gap: np.ndarray, sums, rows: int) -> np.ndarray:
    """Each system's worst column residual, from the gaps |a @ x - rhs|
    of its solutions x, whose axis rows holds a column's five rows and the
    next axis the columns. A column's residual is roundoff on the sums
    |a| @ |x|, which sums() gives in the same layout, so past RESIDUAL_TOL
    it is divided by that column's largest sum, when above one; a system
    passes when the result is at most RESIDUAL_TOL, and NaN or overflow
    fails."""
    residual = gap.max(axis=(rows, rows + 1))
    # The scale is at least one, so it can decide only past RESIDUAL_TOL,
    # and NaN fails either way.
    if not (residual <= RESIDUAL_TOL).all():
        column = gap.max(axis=rows)
        scale = np.maximum(1.0, sums().max(axis=rows))
        residual = np.where(column > RESIDUAL_TOL, column / scale, column).max(axis=rows)
    return residual


def _dense_solve(a: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """LAPACK's pivoted solve of the one system a[5, 5] for each column of
    rhs[..., 5, k], with no warning on overflow: the solutions x[..., 5, k],
    all NaN for a singular system, and per leading entry of rhs, the
    _residual and whether any solution or sum |a| @ |x| overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            x = np.linalg.solve(a, rhs)
        except np.linalg.LinAlgError:
            x = np.full(rhs.shape, np.nan)
        gap = a @ x
        gap -= rhs
        np.abs(gap, out=gap)
        sums = np.abs(a) @ np.abs(x)
        residual = _residual(gap, lambda: sums, gap.ndim - 2)
    # A singular system's NaN solution is left to the residual bound.
    overflow = (np.isinf(x) | np.isinf(sums)).any(axis=(-2, -1))
    return x, residual, overflow


def _eliminate(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The solutions x[5, k, ...] of every system a[5, 5, ...], its system
    axes last, for the columns of rhs[5, k], by one Gaussian elimination
    with partial pivoting over the whole stack: each column's pivot is
    the first of the largest |entry| at or below the diagonal, as LAPACK
    picks it, and every step is one elementwise operation on the stack,
    so each system's solution has the bits of its own elimination. A zero
    pivot leaves infinities or NaNs, with no warning."""
    n = a.shape[0]
    m = np.empty((n, n + rhs.shape[1], *a.shape[2:]))
    m[:, :n] = a
    m[:, n:] = rhs.reshape(*rhs.shape, *(1,) * (a.ndim - 2))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for col in range(n):
            # The pivot row; a NaN entry is never larger, as in idamax.
            largest = np.abs(m[col, col])
            pivot = np.full(largest.shape, col)
            for row in range(col + 1, n):
                size = np.abs(m[row, col])
                pivot[size > largest] = row
                largest = np.maximum(largest, size)
            top = m[col, col:].copy()
            for row in range(col + 1, n):
                swap = pivot == row
                np.copyto(m[col, col:], m[row, col:], where=swap)
                np.copyto(m[row, col:], top, where=swap)
            # Row by row, so that no temporary is larger than one row.
            for row in range(col + 1, n):
                m[row, col + 1 :] -= m[row, col] / m[col, col] * m[col, col + 1 :]
        # Back substitution through the upper triangle, into an array of
        # its own, so that m is freed on return.
        x = np.empty_like(m[:, n:])
        for row in reversed(range(n)):
            x[row] = m[row, n:]
            for j in range(row + 1, n):
                x[row] -= m[row, j] * x[j]
            x[row] /= m[row, row]
    return x


def _require_residual(residual) -> None:
    """SingularSystem unless a _dense_solve residual passes its bound."""
    if not residual <= RESIDUAL_TOL:
        raise SingularSystem(f"solve residual {residual:e} exceeds {RESIDUAL_TOL:e}")


def _responses(
    shocks: Sequence[ShockVector], x: np.ndarray, residual: np.ndarray, overflow: np.ndarray
) -> tuple[ResponseVector, ...]:
    """The responses to shocks from the _dense_solve solutions x[k, 5, 1],
    residuals[k] and overflow flags[k] of one single-column system per
    shock. The response is linear in the shock, so a finite shock whose
    response or residual bound overflows is an input fault:
    ValidationError. The first shock that fails, in order, names the
    error, an overflow before a residual past its bound."""
    failed = overflow | ~(residual <= RESIDUAL_TOL)
    if failed.any():
        first = int(failed.argmax())
        if overflow[first]:
            raise ValidationError(f"the response to {shocks[first]!r} overflows floating point")
        _require_residual(residual[first])
    return tuple(
        ResponseVector(w_hat=tuple(row[:3]), x_hat=tuple(row[3:]), residual=r)
        for row, r in zip(x[..., 0].tolist(), residual.tolist())
    )


def _require_shocks(shocks, what: str) -> None:
    """ParseError unless shocks is a tuple or list of ShockVectors."""
    if not isinstance(shocks, (tuple, list)) or not all(
        isinstance(shock, ShockVector) for shock in shocks
    ):
        raise ParseError(f"{what} must be a tuple or list of ShockVectors: {shocks!r}")


def solve_shocks(system: np.ndarray, shocks: Sequence[ShockVector]) -> tuple[ResponseVector, ...]:
    """Dense pivoted solve of the system for each shock, in one call: the
    system broadcasts against one single-column right-hand side per
    shock, so each response has the bits of its own one-shock solve. A
    report makes the same call with its four check shocks ahead of its
    scenario's shocks (see _checked_statics). The system is read first,
    then the shocks, a tuple or list of ShockVectors (ParseError). A
    finite shock whose response overflows is a ValidationError; the first
    shock that fails, in order, names the error, an overflow before a
    residual past its bound."""
    system = _read(system, (5, 5), "system")
    _require_shocks(shocks, "shocks")
    if not shocks:
        return ()
    x, residual, overflow = _dense_solve(
        system, np.array([shock.right_hand_side() for shock in shocks])[..., np.newaxis]
    )
    return _responses(shocks, x, residual, overflow)


def solve_responses(system: np.ndarray, shock: ShockVector) -> ResponseVector:
    """Dense pivoted solve of the system for one shock, as solve_shocks."""
    return solve_shocks(system, (shock,))[0]


# Right-hand sides of the dense checks, one column each: the three unit
# endowment shocks, then the unit relative-price shock.
_CHECK_SHOCKS = np.column_stack(
    [ShockVector(endowment_shocks=tuple(unit)).right_hand_side() for unit in np.eye(3)]
    + [ShockVector(price_shock=1.0).right_hand_side()]
)
_PRICE_COLUMN = 3


def _dense_elasticities(x: np.ndarray) -> np.ndarray:
    """Output elasticities [sector, factor, ...] over real-reward
    elasticities [deflator, factor, ...], as rows 0-1 and 2-3, read from
    solutions x[5, 4, ...] for the columns of _CHECK_SHOCKS."""
    w = x[np.newaxis, :3, _PRICE_COLUMN]
    # Deflator 1 is the first good's price, deflator 2 the second's.
    return np.concatenate((x[3:, :3], w, w + 1.0))


def dense_signs(system: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sign grids [4, 3, ...] of the systems system[5, 5, ...], rows as in
    _dense_elasticities and the system axes last, as _system stacks them,
    from one _eliminate of the whole stack for the columns of
    _CHECK_SHOCKS, and each system's _residual: NaN for an all-zero
    system, and failing for any exactly singular one."""
    x = _eliminate(system, _CHECK_SHOCKS)
    signs = _signs(_dense_elasticities(x))
    with np.errstate(over="ignore", invalid="ignore"):
        gap = np.einsum("ij...,jk...->ik...", system, x)
        gap -= _CHECK_SHOCKS.reshape(5, 4, *(1,) * (system.ndim - 2))
        np.abs(gap, out=gap)
        residual = _residual(
            gap, lambda: np.einsum("ij...,jk...->ik...", np.abs(system), np.abs(x)), 0
        )
    return signs, residual


def comparative_statics(table: ShareTable, g: EwsMatrix) -> ComparativeStatics:
    """Assemble the system once and derive both elasticity matrices. It
    derives the ratio vector of g (DegenerateT if g has none) and the
    border lines of table, which classify the vector and which the
    factored cofactors read.

    The output elasticities come from the cofactor closed forms over the
    determinant and are verified entry by entry against unit-endowment
    dense solves; the real-reward elasticities follow from them by
    reciprocity and are verified against a dense pure-price-shock solve.
    Their signs must be the tabled signs of the vector's subregion, and a
    vector classify_subregion refuses is refused: a report's checks. As
    in cofactors, g is first checked against the invariants of table's
    economy-wide substitution (ValidationError).
    """
    _require_ews_invariants(g.g, table, ValidationError)
    vector, lines = ews_ratio_vector(g), line_coefficients(table)
    region, offsets = _locate(vector, lines, table)
    return _checked_statics(table, g, vector, lines, offsets, region, ())[0]


def _checked_statics(
    table: ShareTable,
    g: EwsMatrix,
    vector: EwsRatioVector,
    lines: LineCoeffs,
    offsets,
    region: Subregion,
    shocks: Sequence[ShockVector],
) -> tuple[ComparativeStatics, tuple[ResponseVector, ...]]:
    """comparative_statics of a vector in region, whose offsets to the
    lines classified it, and the responses to shocks, from one solve of
    single-column systems: the four check shocks, then the shocks. The
    first failing check names the error, in order: the closed forms, the
    check residual, the closed forms against the dense checks, the tabled
    signs of region, then _responses."""
    system = assemble_system(table, g)
    delta = _determinant_delta(system, table, g)
    cof, _, _ = _cofactor_routes(table, g, vector, lines, offsets)
    ryb = [
        [
            (1.0 if (factor + sector) % 2 == 0 else -1.0) * cof[sector][factor] / delta.value
            for factor in _FACTOR_ROWS
        ]
        for sector in range(2)
    ]
    tf = table.theta_factor.tolist()
    ts = table.theta_sector.tolist()
    ss = [
        [-(ts[1] / tf[factor]) * ryb[1][factor] for factor in _FACTOR_ROWS],
        [(ts[0] / tf[factor]) * ryb[0][factor] for factor in _FACTOR_ROWS],
    ]
    checks = _CHECK_SHOCKS.shape[1]
    rows = [*_CHECK_SHOCKS.T, *(shock.right_hand_side() for shock in shocks)]
    x, residual, overflow = _dense_solve(system, np.array(rows)[..., np.newaxis])
    # np.max propagates a NaN residual.
    _require_residual(residual[:checks].max())
    dense = _dense_elasticities(x[:checks, :, 0].T).tolist()
    for row, (closed_row, solved_row) in enumerate(zip(ryb + ss, dense)):
        for factor, closed, solved in zip(_FACTOR_ROWS, closed_row, solved_row):
            if not _relative_gap(closed, solved) <= CROSS_CHECK_TOL:
                what = (
                    "output-response closed form disagrees with the dense solve at sector"
                    if row < 2
                    else "reciprocity form disagrees with the dense price-shock solve at deflator"
                )
                raise ClosedFormMismatch(
                    f"{what} {row % 2 + 1}, factor {factor}: {closed!r} vs {solved!r}"
                )
    signs = _signs(ryb + ss)
    if _contradicts_tables(signs, REGIONS.index(region)):
        raise _sign_mismatch(region, signs)
    statics = ComparativeStatics(
        system=system, delta=delta, rybczynski=_readonly(ryb), stolper_samuelson=_readonly(ss)
    )
    return statics, _responses(shocks, x[checks:], residual[checks:], overflow[checks:])


# Sign tables, one pattern per subregion. Rows are sectors for the output
# patterns and price deflators for the real-reward patterns; columns are
# (land, capital, labor).
#
# The output response of sector s to factor f is (-1)^(s+f) * C / delta,
# where the cofactor C = e * t * offset is the linear form of line
# (f, s), e its vertical coefficient. delta is negative, and under the
# ranking the vertical coefficients of the (land, capital, labor) lines
# have signs (+, -, -) in both sectors, so H[s][f] = -(-1)^(s+f) * sign(e)
# is constant and a response has the sign sign_t * H[s][f] * sign(offset):
# the output table is sign_t times the Hadamard product of H with the
# subregion's offset signature.
H = ((-1, -1, 1), (1, 1, -1))

RYBCZYNSKI_SIGNS: dict[Subregion, tuple[tuple[int, int, int], tuple[int, int, int]]] = {
    region: tuple(
        tuple(region.sign_t * h * o for h, o in zip(h_row, o_row))
        for h_row, o_row in zip(H, signature)
    )
    for region, signature in SIGNATURES.items()
}

# By reciprocity a factor's real reward in the first good's price moves
# against the second sector's output response to that factor, and in the
# second good's price with the first sector's: the ss rows of
# comparative_statics, whose share ratios are positive.
STOLPER_SAMUELSON_SIGNS: dict[Subregion, tuple[tuple[int, int, int], tuple[int, int, int]]] = {
    region: (tuple(-v for v in sector_2), sector_1)
    for region, (sector_1, sector_2) in RYBCZYNSKI_SIGNS.items()
}


def sign_pattern_lookup(region: Subregion, kind: str) -> SignPattern:
    """Tabled sign pattern of a subregion, kind "rybczynski" or
    "stolper_samuelson"."""
    if kind == "rybczynski":
        return SignPattern(entries=RYBCZYNSKI_SIGNS[region])
    if kind == "stolper_samuelson":
        return SignPattern(entries=STOLPER_SAMUELSON_SIGNS[region])
    raise ValueError(f"unknown sign-pattern kind {kind!r}")


def _contradicts_tables(signs: np.ndarray, codes) -> np.ndarray:
    """Whether each sign grid signs[4, 3, ...] (output over real-reward
    rows) differs from the tabled rows of its subregion REGIONS[codes],
    per point. A sign too close to call is 0, which no table holds."""
    return (signs != _TABLED.take(codes, axis=-1)).any(axis=(0, 1))


def _sign_mismatch(region: Subregion, signs: np.ndarray) -> ClosedFormMismatch:
    """The error for a sign grid [4, 3] that contradicts the tabled rows
    of its subregion."""
    signs, tabled = signs.tolist(), _TABLED[..., REGIONS.index(region)].tolist()
    return ClosedFormMismatch(
        f"computed signs contradict the tabled signs of {region.value}: output signs "
        f"{signs[:2]} vs {tabled[:2]}, real-reward signs {signs[2:]} vs {tabled[2:]}"
    )


def _signs(values) -> np.ndarray:
    """Signs of values, entry by entry: 0 where too close to zero to
    call (NaN included), else +1 or -1."""
    arr = np.asarray(values, dtype=float)
    return (arr > SIGN_ZERO_TOL).astype(int) - (arr < -SIGN_ZERO_TOL)


def strong_rybczynski(region: Subregion) -> bool:
    """Whether each extreme factor's growth raises its intensive sector's
    output and lowers the other's: land for sector 1, capital for 2."""
    sector_1, sector_2 = RYBCZYNSKI_SIGNS[region]
    return sector_1[LAND] > 0 > sector_2[LAND] and sector_2[CAPITAL] > 0 > sector_1[CAPITAL]


# The sign tables' derived forms, fixed at import: each subregion's
# output over real-reward rows as one read-only grid [4, 3, region] in
# REGIONS order, which the dense checks read, and each subregion's
# strong_rybczynski.
_TABLED = np.stack([RYBCZYNSKI_SIGNS[r] + STOLPER_SAMUELSON_SIGNS[r] for r in REGIONS], axis=-1)
_TABLED.flags.writeable = False
_STRONG = tuple(strong_rybczynski(r) for r in REGIONS)

"""Comparative statics of the two-sector economy.

The 5x5 linear system stacks two zero-profit rows (distributive shares)
on three full-employment rows (economy-wide substitution plus allocation
shares). Unknowns are the three factor prices deflated by the first
good's price and the two output changes; shocks are the relative goods
price and the three endowments. Everything here is computed twice: once
through the closed forms (determinant, cofactors, sign tables) and once
through a dense pivoted solve. The two routes must agree or we raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ClosedFormMismatch, SingularSystem, ValidationError
from .geometry import SIGNATURES, LineCoeffs, Subregion, line_coefficients
from .shares import CAPITAL, LABOR, LAND, ShareTable, _readonly
from .substitution import EwsMatrix, EwsRatioVector, ews_ratio_vector

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
class SystemMatrix:
    """Coefficient matrix of the comparative-statics system."""

    a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", _readonly(self.a))


@dataclass(frozen=True)
class ShockVector:
    """Log-differential shocks: relative goods price and endowments."""

    price_shock: float = 0.0
    endowment_shocks: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if len(self.endowment_shocks) != 3:
            raise ValidationError(f"endowment shocks must have 3 entries, got {self!r}")
        if not all(map(math.isfinite, (self.price_shock, *self.endowment_shocks))):
            raise ValidationError(f"shock entries must be finite, got {self!r}")

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

    @property
    def values(self) -> np.ndarray:
        return self.direct


@dataclass(frozen=True)
class ComparativeStatics:
    """One economy's system, determinant, output elasticities to
    endowments [sector, factor], and real factor-price elasticities to the
    relative goods price [deflator, factor]; deflator row 0 is the first
    good's price, row 1 the second's."""

    system: SystemMatrix
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


def assemble_system(table: ShareTable, g: EwsMatrix) -> SystemMatrix:
    """Stack zero-profit and full-employment rows, for one matrix g or a
    stack g[..., 3, 3]."""
    a = np.zeros(g.g.shape[:-2] + (5, 5))
    a[..., 0, :3] = table.theta[:, 0]
    a[..., 1, :3] = table.theta[:, 1]
    for row, factor in enumerate(_FACTOR_ROWS):
        a[..., 2 + row, :3] = g.g[..., factor, :]
        a[..., 2 + row, 3:] = table.lam[factor]
    return SystemMatrix(a=a)


def determinant_delta(sys: SystemMatrix, table: ShareTable, g: EwsMatrix) -> DeltaReport:
    """Determinant of the system through three agreeing routes."""
    dense = float(np.linalg.det(sys.a))
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


def _magnitude(rows, floor: float) -> float:
    """Largest |entry| of nested rows of floats, at least floor; NaN if
    any entry is NaN, which the builtin max can drop."""
    scale = floor
    for row in rows:
        for v in row:
            if abs(v) > scale or v != v:
                scale = abs(v)
    return scale


def _cofactor_routes(
    table: ShareTable, g: EwsMatrix, vector: EwsRatioVector, lines: LineCoeffs
) -> tuple[list, list, list]:
    """The six cofactors [sector][factor] as a literal 3x3 determinant, by
    the expanded four-term form and through the border-line factorization
    e * t * offset, on Python floats; raise unless the three agree."""
    a, b, _ = table.diff
    gg = g.g.tolist()
    lam = table.lam.tolist()
    abe = lines.abe.tolist()
    t, s_prime, u_prime = vector.t, vector.s_prime, vector.u_prime
    direct, expanded, factored = [], [], []
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
        factored.append(
            [
                e * t * (u_prime - (la * s_prime + lb) / e)
                for la, lb, e in (abe[factor][sector] for factor in _FACTOR_ROWS)
            ]
        )

    scale = _magnitude(direct, 1e-300)
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
    and through the border-line factorization. Derives the ratio vector
    and the line coefficients that comparative_statics takes from its
    caller."""
    direct, expanded, factored = _cofactor_routes(
        table, g, ews_ratio_vector(g), line_coefficients(table)
    )
    return CofactorReport(direct=direct, expanded=expanded, factored=factored)


def _dense_solve(a: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense pivoted solve of every system a[..., 5, 5] over leading axes
    for each column of rhs[5, k]: the solutions x[..., 5, k], NaN for an
    exactly singular system, and each system's worst column residual. A
    column's residual is roundoff on the sums |a| @ |x|, so past
    RESIDUAL_TOL it is divided by that column's largest sum, when above
    one; a system passes when the result is at most RESIDUAL_TOL, and NaN
    fails."""
    try:
        x = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        singular = np.linalg.det(a) == 0.0
        x = np.linalg.solve(np.where(singular[..., None, None], np.eye(5), a), rhs)
        x[singular] = np.nan
    residual = np.abs(a @ x - rhs).max(axis=-2)
    # The scale is at least one, so it can decide only past RESIDUAL_TOL.
    past = residual > RESIDUAL_TOL
    if past.any():
        scale = np.maximum(1.0, (np.abs(a) @ np.abs(x)).max(axis=-2))
        residual = np.where(past, residual / scale, residual)
    return x, residual.max(axis=-1)


def _residual_error(residual) -> SingularSystem:
    """The error for a _dense_solve residual past its bound."""
    return SingularSystem(f"solve residual {residual:e} exceeds {RESIDUAL_TOL:e}")


def _require_residual(residual) -> None:
    """SingularSystem unless a _dense_solve residual passes its bound."""
    if not residual <= RESIDUAL_TOL:
        raise _residual_error(residual)


def solve_responses(sys: SystemMatrix, shock: ShockVector) -> ResponseVector:
    """Dense pivoted solve of the system for one shock. The response is
    linear in the shock, so a finite shock whose response or residual
    bound overflows is an input fault: ValidationError."""
    with np.errstate(over="ignore", invalid="ignore"):
        x, residual = _dense_solve(sys.a, shock.right_hand_side()[:, np.newaxis])
        # The bound's sums |a| @ |x| must be finite too; a singular
        # system's NaN solution is left to the bound.
        overflow = np.isinf(x).any() or np.isinf(np.abs(sys.a) @ np.abs(x)).any()
    if overflow:
        raise ValidationError(f"the response to {shock!r} overflows floating point")
    _require_residual(residual)
    x = x[:, 0].tolist()
    return ResponseVector(w_hat=tuple(x[:3]), x_hat=tuple(x[3:]), residual=float(residual))


# Right-hand sides of the dense checks, one column each: the three unit
# endowment shocks, then the unit relative-price shock.
_CHECK_SHOCKS = np.column_stack(
    [ShockVector(endowment_shocks=tuple(unit)).right_hand_side() for unit in np.eye(3)]
    + [ShockVector(price_shock=1.0).right_hand_side()]
)
_PRICE_COLUMN = 3


def _dense_elasticities(x: np.ndarray) -> np.ndarray:
    """Output elasticities [..., sector, factor] over real-reward
    elasticities [..., deflator, factor], as rows 0-1 and 2-3, read from
    solutions x[..., 5, 4] for the columns of _CHECK_SHOCKS."""
    w = x[..., np.newaxis, :3, _PRICE_COLUMN]
    # Deflator 1 is the first good's price, deflator 2 the second's.
    return np.concatenate((x[..., 3:, :3], w, w + 1.0), axis=-2)


def dense_signs(sys: SystemMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Sign grids [..., 4, 3] of every system over leading axes, rows as
    in _dense_elasticities, from one pivoted solve for the columns of
    _CHECK_SHOCKS, and each system's _dense_solve residual: NaN for a
    singular system."""
    x, residual = _dense_solve(sys.a, _CHECK_SHOCKS)
    return _signs(_dense_elasticities(x)), residual


def comparative_statics(
    table: ShareTable, g: EwsMatrix, vector: EwsRatioVector, lines: LineCoeffs
) -> ComparativeStatics:
    """Assemble the system once and derive both elasticity matrices; the
    caller passes the ratio vector of g and the border lines of table,
    which the factored cofactors read.

    The output elasticities come from the cofactor closed forms over the
    determinant and are verified entry by entry against unit-endowment
    dense solves; the real-reward elasticities follow from them by
    reciprocity and are verified against a dense pure-price-shock solve.
    One pivoted solve with the four right-hand sides serves both checks.
    """
    sys = assemble_system(table, g)
    delta = determinant_delta(sys, table, g)
    cof, _, _ = _cofactor_routes(table, g, vector, lines)
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
    x, residual = _dense_solve(sys.a, _CHECK_SHOCKS)
    _require_residual(residual)
    dense = _dense_elasticities(x).tolist()
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
    return ComparativeStatics(
        system=sys,
        delta=delta,
        rybczynski=np.array(ryb),
        stolper_samuelson=np.array(ss),
    )


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


def _contradicts_tables(signs: np.ndarray, regions, codes) -> tuple[np.ndarray, np.ndarray]:
    """Whether each sign grid signs[..., 4, 3] (output over real-reward
    rows) differs from the tabled rows of its subregion regions[codes],
    over leading axes, and those rows as the tables now stand. A sign too
    close to call is 0, which no table holds."""
    tabled = np.array([RYBCZYNSKI_SIGNS[r] + STOLPER_SAMUELSON_SIGNS[r] for r in regions])[codes]
    return (signs != tabled).any(axis=(-2, -1)), tabled


def _sign_mismatch(region: Subregion, signs: np.ndarray, tabled: np.ndarray) -> ClosedFormMismatch:
    """The error for a sign grid [4, 3] that contradicts the tabled rows
    of its subregion."""
    signs, tabled = signs.tolist(), tabled.tolist()
    return ClosedFormMismatch(
        f"computed signs contradict the tabled signs of {region.value}: output signs "
        f"{signs[:2]} vs {tabled[:2]}, real-reward signs {signs[2:]} vs {tabled[2:]}"
    )


def _signs(values) -> np.ndarray:
    """Signs of values over leading axes: 0 where too close to zero to
    call (NaN included), else +1 or -1."""
    arr = np.asarray(values, dtype=float)
    return (arr > SIGN_ZERO_TOL).astype(int) - (arr < -SIGN_ZERO_TOL)


def strong_rybczynski(region: Subregion) -> bool:
    """Whether each extreme factor's growth raises its intensive sector's
    output and lowers the other's: land for sector 1, capital for 2."""
    sector_1, sector_2 = RYBCZYNSKI_SIGNS[region]
    return sector_1[LAND] > 0 > sector_2[LAND] and sector_2[CAPITAL] > 0 > sector_1[CAPITAL]

"""Allen elasticities, economy-wide substitution, and the ratio vector.

The pipeline is sigma -> epsilon -> g: per-sector Allen elasticities are
scaled by distributive shares into price elasticities of factor demand,
then aggregated across sectors with allocation shares into the 3x3
economy-wide substitution matrix g. The off-diagonal triple of g, divided
through by its labor-land entry, is the ratio vector that drives all
later classification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConsistencyError,
    DegenerateT,
    GenerationExhausted,
    Infeasible,
    InconsistentLevels,
    InvalidAes,
    NonPositiveLevels,
    ParseError,
    ValidationError,
)
from .shares import CAPITAL, FACTOR_NAMES, LABOR, LAND, ShareTable, _read

# Identity checks allow this gap relative to the largest magnitude among
# the entries they compare, and absolutely when those are below one:
# roundoff grows with the elasticities.
IDENTITY_TOL = 1e-10
# Below this the ratio vector is numerically meaningless.
DEGENERATE_T_TOL = 1e-12

# Each Allen-tensor check: its ValidityReport field and the name that
# error messages and sweep statuses give a failure, in reporting order.
_AES_CHECKS = (
    ("own_negativity_ok", "own-negativity"),
    ("quasi_concavity_ok", "quasi-concavity"),
    ("symmetry_ok", "symmetry"),
    ("homogeneity_ok", "homogeneity"),
)

# A sector tensor's free elasticities are its upper triangle, (row,
# column) indices in row-major order; completion sets the rest. _KEY_SLOTS
# names each one and gives its (sector, row, column) slot, sector by sector.
_UPPER = np.triu_indices(3, 1)
_KEY_SLOTS = {
    f"{FACTOR_NAMES[i]}_{FACTOR_NAMES[h]}_{j + 1}": (j, i, h)
    for j in range(2)
    for i, h in np.transpose(_UPPER).tolist()
}


@dataclass(frozen=True)
class AesTensor:
    """Allen partial elasticities sigma[j, i, h] for sector j and factor
    pair (i, h); symmetric in (i, h) with negative diagonal."""

    sigma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sigma", _read(self.sigma, (2, 3, 3), "sigma"))


@dataclass(frozen=True)
class EwsMatrix:
    """Economy-wide substitution matrix g[i, h]: output-constant response
    of factor i's aggregate use to factor h's price; one finite 3x3."""

    g: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "g", _read(self.g, (3, 3), "g"))


@dataclass(frozen=True)
class EwsRatioVector:
    """The off-diagonal substitution triple and its normalized form.

    (s, t, u) = (g[labor, capital], g[labor, land], g[capital, land]);
    s_prime = s/t, u_prime = u/t. sign_t is +1 or -1.
    """

    s: float
    t: float
    u: float
    s_prime: float
    u_prime: float
    sign_t: int

    @property
    def quadrant(self) -> int:
        """Quadrant of (s_prime, u_prime), counted 1..4 counterclockwise."""
        if self.s_prime > 0:
            return 1 if self.u_prime > 0 else 4
        return 2 if self.u_prime > 0 else 3


@dataclass(frozen=True)
class ValidityReport:
    """Itemized outcome of the Allen-tensor checks, per sector: a sector
    passes a check when the tensor as given and its completion both do."""

    symmetry_ok: tuple[bool, bool]
    own_negativity_ok: tuple[bool, bool]
    homogeneity_ok: tuple[bool, bool]
    quasi_concavity_ok: tuple[bool, bool]

    @property
    def ok(self) -> bool:
        return not self.failed_checks

    @property
    def failed_checks(self) -> tuple[str, ...]:
        """Names of the checks that fail in either sector."""
        return tuple(name for field, name in _AES_CHECKS if not all(getattr(self, field)))


def _identity_ok(gap, scale):
    """Whether each identity gap (per point) is within IDENTITY_TOL times
    scale(), the largest magnitude among the entries each gap compares,
    or times one if that is smaller. A NaN gap fails."""
    ok = gap <= IDENTITY_TOL
    # The relative bound is never below IDENTITY_TOL, and a NaN entry
    # makes its gap NaN, so the entries matter only past IDENTITY_TOL.
    if not ok.all():
        ok = gap <= IDENTITY_TOL * np.maximum(1.0, scale())
    return ok


def _weighted_rows(s: np.ndarray, th: np.ndarray) -> np.ndarray:
    """Share-weighted row sums sum_h s[i, h, ...] * th[h, ...], shaped
    [i, ...]. vecdot reduces with the BLAS dot that `row @ th` uses, so
    each tensor of a stack gets the bits of that tensor on its own."""
    return np.vecdot(s, th[np.newaxis], axis=1)


def _complete(s: np.ndarray, th: np.ndarray) -> np.ndarray:
    """Complete sector tensors s[3, 3, ...] with shares th[3, ...] in place
    and return s: mirror the upper triangle, which holds the free
    elasticities, and set the own ones so share-weighted rows sum to zero."""
    i, h = _UPPER
    s[h, i] = s[i, h]
    own = np.arange(3)
    s[own, own] = 0.0
    s[own, own] = -_weighted_rows(s, th) / th
    return s


@np.errstate(over="ignore", invalid="ignore")
def _aes_flags(s: np.ndarray, th: np.ndarray) -> np.ndarray:
    """Pass flags of the Allen-tensor checks, in _AES_CHECKS order, for
    sector tensors s[3, 3, ...] with shares th[3, ...]; shaped (4, ...).

    Own-negativity, strict quasi-concavity (scaled land-capital minor
    positive), symmetry, and share-weighted row sums of zero.
    """
    # The scaled entries theta_i * theta_h * sigma_ih of each tensor, in
    # that product order: the minor is decided at its sign.
    e = th[:, np.newaxis] * th[np.newaxis] * s
    return np.array(
        [
            (s.diagonal(0, 0, 1) < 0.0).all(axis=-1),
            e[LAND, LAND] * e[CAPITAL, CAPITAL] - e[LAND, CAPITAL] ** 2 > 0.0,
            _identity_ok(
                np.abs(s - s.swapaxes(0, 1)).max(axis=(0, 1)),
                lambda: np.abs(s).max(axis=(0, 1)),
            ),
            _identity_ok(
                np.abs(_weighted_rows(s, th)).max(axis=0),
                lambda: np.abs(s * th[np.newaxis]).max(axis=(0, 1)),
            ),
        ]
    )


def _validity(aes: AesTensor, table: ShareTable) -> tuple[ValidityReport, np.ndarray]:
    """validate_aes's report and the completion (see _complete) it checks
    beside the tensor as given, as completion[i, h, sector]."""
    # The tensor as given and its completion, stack[i, h, copy, sector].
    stack = np.array((aes.sigma, aes.sigma)).transpose(2, 3, 0, 1).copy()
    completion = _complete(stack[:, :, 1], table.theta)
    flags = _aes_flags(stack, table.theta[:, np.newaxis]).all(axis=1).tolist()
    report = ValidityReport(**{field: tuple(flag) for (field, _), flag in zip(_AES_CHECKS, flags)})
    return report, completion


def validate_aes(aes: AesTensor, table: ShareTable) -> ValidityReport:
    """Check symmetry, negative own elasticities, share-weighted row sums
    of zero, and strict quasi-concavity (scaled 2x2 minor positive) for
    each sector, on the tensor as given and on its completion, the tensor
    that epsilon_from_aes analyses: a sector passes a check only if both
    do."""
    return _validity(aes, table)[0]


def _invalid(report: ValidityReport) -> InvalidAes:
    """The error, carrying the report, for a report that fails."""
    failures = [
        f"{name} (sector {j + 1})"
        for field, name in _AES_CHECKS
        for j, flag in enumerate(getattr(report, field))
        if not flag
    ]
    return InvalidAes("Allen tensor invalid: " + "; ".join(failures), report)


def cobb_douglas_aes(table: ShareTable) -> AesTensor:
    """Unit elasticities between distinct factors; diagonals follow from
    homogeneity as -(1 - theta_ij)/theta_ij."""
    return AesTensor(sigma=_complete(np.ones((3, 3, 2)), table.theta).transpose(2, 0, 1))


def _epsilon(s: np.ndarray, th: np.ndarray) -> np.ndarray:
    """Price elasticities of sector Allen tensors s[3, 3, ...] with their
    sectors' shares th[3, ...]: each elasticity scaled by the
    price-owner's distributive share."""
    return th[np.newaxis] * s


def _rowsum_gap(m: np.ndarray) -> np.ndarray:
    """Worst absolute row sum of each matrix m[3, 3, ...]: zero up to
    roundoff for a sector's epsilon tensors and for g, by linear
    homogeneity."""
    return np.abs(m[:, 0] + m[:, 1] + m[:, 2]).max(axis=0)


def epsilon_from_aes(aes: AesTensor, table: ShareTable) -> np.ndarray:
    """Complete the Allen tensor once (see _complete), raise InvalidAes,
    carrying validate_aes' report, unless the tensor and that completion
    pass it, then scale each elasticity of the completion by the
    price-owner's distributive share: the read-only price elasticities of
    cost-minimizing input use eps[j, i, h], the response of factor i's
    unit requirement in sector j to factor h's price. Rows sum to zero by
    linear homogeneity of cost."""
    report, completion = _validity(aes, table)
    if not report.ok:
        raise _invalid(report)
    eps = _epsilon(completion, table.theta)
    gap = _rowsum_gap(eps).max()
    if not _identity_ok(gap, lambda: np.abs(eps).max()):
        raise ConsistencyError(f"epsilon rows must sum to zero, worst residual {gap:e}")
    eps.flags.writeable = False
    return eps.transpose(2, 0, 1)


def _term(eps: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """A sector's term of g from its epsilon tensors eps[3, 3, ...] and
    its allocation shares lam[3, ...] (column j of the table's lam for
    sector j): lam[i] * eps[i, h, ...]."""
    return lam[:, np.newaxis] * eps


def _aggregate(term_1: np.ndarray, term_2: np.ndarray) -> np.ndarray:
    """Economy-wide substitution from the two sectors' terms (see _term):
    g[i, h, ...] = sum over sectors j of lam[i, j] * eps[j, i, h, ...].

    The sum starts from zero: adding 0.0 leaves every value as it is but
    -0.0, which becomes 0.0, so a zero entry (and a zero s' after it) is
    written as 0, never -0."""
    return term_1 + term_2 + 0.0


def ews_from_epsilon(eps: np.ndarray, table: ShareTable) -> EwsMatrix:
    """Aggregate sector price elasticities eps[j, i, h] with allocation shares."""
    term = _term(eps.transpose(1, 2, 0), table.lam)
    g = _aggregate(term[..., 0], term[..., 1])
    _require_ews_invariants(g, table)
    return EwsMatrix(g=g)


# Invariants of economy-wide substitution, in checking order. They hold
# for the g of every valid input, so there a failure means an upstream
# bug; a caller's own g that breaks one is a ValidationError.
_EWS_INVARIANTS = (
    "economy-wide substitution rows must sum to zero",
    "share-weighted symmetry of economy-wide substitution failed",
    "economy-wide own substitution must be negative",
    "land/capital substitution minor must be positive",
    "at most one economy-wide complement pair is possible",
)


@np.errstate(over="ignore", invalid="ignore")
def _ews_failures(g: np.ndarray, table: ShareTable) -> list[np.ndarray]:
    """Failure flags of the invariants, in _EWS_INVARIANTS order, for each
    matrix g[3, 3, ...]."""
    minor = g[CAPITAL, CAPITAL] * g[LAND, LAND] - g[LAND, CAPITAL] * g[CAPITAL, LAND]
    complements = (
        (g[LABOR, CAPITAL] < 0.0).astype(int) + (g[LABOR, LAND] < 0.0) + (g[CAPITAL, LAND] < 0.0)
    )
    # Row i weighted by factor i's share.
    weighted = g * table.theta_factor.reshape(3, *(1,) * (g.ndim - 1))
    return [
        ~_identity_ok(_rowsum_gap(g), lambda: np.abs(g).max(axis=(0, 1))),
        ~_identity_ok(
            np.abs(weighted - weighted.swapaxes(0, 1)).max(axis=(0, 1)),
            lambda: np.abs(weighted).max(axis=(0, 1)),
        ),
        ~(g.diagonal(0, 0, 1) < 0.0).all(axis=-1),
        ~(minor > 0.0),
        complements > 1,
    ]


def _require_ews_invariants(g: np.ndarray, table: ShareTable, error=ConsistencyError) -> None:
    """Raise error, named by the first invariant that the matrix g breaks."""
    for message, failed in zip(_EWS_INVARIANTS, _ews_failures(g, table)):
        if failed:
            raise error(message)


def _degenerate(t):
    """Whether labor-land substitution t (per point) is too close
    to zero for the ratio vector to be defined."""
    return np.abs(t) <= DEGENERATE_T_TOL


def ews_ratio_vector(g: EwsMatrix) -> EwsRatioVector:
    """Normalize the off-diagonal triple by the labor-land entry."""
    s = float(g.g[LABOR, CAPITAL])
    t = float(g.g[LABOR, LAND])
    u = float(g.g[CAPITAL, LAND])
    if _degenerate(t):
        raise DegenerateT(
            "labor-land substitution is numerically zero; the ratio vector is undefined"
        )
    return EwsRatioVector(
        s=s, t=t, u=u, s_prime=s / t, u_prime=u / t, sign_t=1 if t > 0 else -1
    )


@np.errstate(over="ignore", invalid="ignore")
def ews_from_stu(table: ShareTable, s: float, t: float, u: float) -> EwsMatrix:
    """Build the full substitution matrix from a target off-diagonal
    triple, using share-weighted symmetry for the upper triangle and zero
    row sums for the diagonal.

    Valid placements need s + t > 0 and u(s + t) + (theta_L/theta_K)st > 0;
    the own-negativity and minor conditions then follow. A finite triple
    whose matrix overflows is an input fault: ValidationError.
    """
    s, t, u = _read((s, t, u), (3,), "(s, t, u)").tolist()
    ratio_lk = table.labor_to_capital
    if not s + t > 0.0:
        raise Infeasible("labor's off-diagonal substitution terms must sum positive")
    if not u * (s + t) + ratio_lk * s * t > 0.0:
        raise Infeasible("placement lies outside the feasible side of the boundary curve")
    tf = table.theta_factor
    g = np.empty((3, 3))
    g[LABOR, CAPITAL] = s
    g[LABOR, LAND] = t
    g[CAPITAL, LAND] = u
    g[CAPITAL, LABOR] = (tf[LABOR] / tf[CAPITAL]) * s
    g[LAND, CAPITAL] = (tf[CAPITAL] / tf[LAND]) * u
    g[LAND, LABOR] = (tf[LABOR] / tf[LAND]) * t
    for i in range(3):
        g[i, i] = 0.0
        g[i, i] = -g[i].sum()
    if not np.isfinite(g).all():
        raise ValidationError(f"the matrix of (s, t, u) = {(s, t, u)} overflows floating point")
    _require_ews_invariants(g, table)
    return EwsMatrix(g=g)


# Bound of sample_valid_aes' off-diagonal draws.
SAMPLE_SPREAD = 3.0


def sample_valid_aes(table: ShareTable, seed: int, max_attempts: int = 10000) -> AesTensor:
    """Draw a random valid Allen tensor: off-diagonals uniform within
    +-SAMPLE_SPREAD, diagonals completed by homogeneity, rejected until
    own-negativity and quasi-concavity hold. Deterministic per seed. A
    seed numpy refuses, or a max_attempts that is not an integer, is a
    ParseError."""
    try:
        rng, attempts = np.random.default_rng(seed), range(max_attempts)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"sample_valid_aes needs an integer seed and max_attempts: {exc}") from exc
    sigma = np.empty((2, 3, 3))
    for j in range(2):
        s, th = sigma[j], table.theta[:, j]
        for _ in attempts:
            s[_UPPER] = rng.uniform(-SAMPLE_SPREAD, SAMPLE_SPREAD, size=3)
            if _aes_flags(_complete(s, th), th).all():
                break
        else:
            raise GenerationExhausted(
                f"no valid Allen tensor for sector {j + 1} in {max_attempts} draws"
            )
    return AesTensor(sigma=sigma)


@np.errstate(over="ignore")
def aggregate_substitution(g: EwsMatrix, endowments, prices) -> np.ndarray:
    """Aggregate substitution in levels: s[i, h] = g[i, h] * V_i / w_h.

    Requires factor incomes w_i * V_i proportional to the factor shares
    the matrix g was built from; otherwise the result cannot be symmetric
    and the levels contradict the share data. Levels whose result
    overflows are an input fault: ValidationError.
    """
    v = _read(endowments, (3,), "endowments")
    w = _read(prices, (3,), "prices")
    if not (np.all(v > 0.0) and np.all(w > 0.0)):
        raise NonPositiveLevels("endowments and prices must be strictly positive")
    s = g.g * v[:, np.newaxis] / w[np.newaxis, :]
    if np.isinf(s).any():
        raise ValidationError("aggregate substitution in these levels overflows floating point")
    if not _identity_ok(np.max(np.abs(s - s.T)), lambda: np.abs(s).max()):
        raise InconsistentLevels(
            "factor incomes implied by the levels do not match the share table; "
            "aggregate substitution would lose symmetry"
        )
    return s

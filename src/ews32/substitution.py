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
)
from .shares import CAPITAL, LABOR, LAND, ShareTable, _readonly

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


@dataclass(frozen=True)
class AesTensor:
    """Allen partial elasticities sigma[j, i, h] for sector j and factor
    pair (i, h); symmetric in (i, h) with negative diagonal."""

    sigma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sigma", _readonly(self.sigma))
        if self.sigma.shape != (2, 3, 3):
            raise InvalidAes(f"sigma must be 2x3x3, got {self.sigma.shape}")


@dataclass(frozen=True)
class EpsilonTensor:
    """Price elasticities of cost-minimizing input use, eps[j, i, h]:
    response of factor i's unit requirement in sector j to factor h's
    price. Rows sum to zero by linear homogeneity of cost."""

    eps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eps", _readonly(self.eps))


@dataclass(frozen=True)
class EwsMatrix:
    """Economy-wide substitution matrix g[i, h]: output-constant response
    of factor i's aggregate use to factor h's price."""

    g: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "g", _readonly(self.g))


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
    """Itemized outcome of the Allen-tensor checks, per sector."""

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


def _identity_ok(gap, entries, axis):
    """Whether each identity gap (over leading axes) is within
    IDENTITY_TOL times the largest |entries| over axis, or times one if
    that is smaller. A NaN gap fails."""
    ok = gap <= IDENTITY_TOL
    # The relative bound is never below IDENTITY_TOL, and a NaN entry
    # makes its gap NaN, so the entries matter only past IDENTITY_TOL.
    if not ok.all():
        ok = gap <= IDENTITY_TOL * np.maximum(1.0, np.abs(entries).max(axis=axis))
    return ok


def _complete_diagonal(s: np.ndarray, th: np.ndarray) -> None:
    """Set the own elasticities of sector tensors s[..., 3, 3] with shares
    th[..., 3], in place, so that each share-weighted row sums to zero
    (homogeneity)."""
    own = np.arange(3)
    s[..., own, own] = 0.0
    # vecdot reduces with the BLAS dot that `row @ th` uses, so a stack of
    # tensors gets the same bits as each tensor on its own.
    s[..., own, own] = -np.vecdot(s, th[..., np.newaxis, :]) / th


def _aes_flags(s: np.ndarray, th: np.ndarray) -> np.ndarray:
    """Pass flags of the Allen-tensor checks, in _AES_CHECKS order, for
    sector tensors s[..., 3, 3] with shares th[..., 3]; shaped (4, ...).

    Own-negativity, strict quasi-concavity (scaled land-capital minor
    positive), symmetry, and share-weighted row sums of zero.
    """
    e = th[..., :, np.newaxis] * th[..., np.newaxis, :] * s
    weighted = s * th[..., np.newaxis, :]
    return np.array(
        [
            (s.diagonal(0, -2, -1) < 0.0).all(axis=-1),
            e[..., LAND, LAND] * e[..., CAPITAL, CAPITAL] - e[..., LAND, CAPITAL] ** 2 > 0.0,
            _identity_ok(np.abs(s - s.swapaxes(-1, -2)).max(axis=(-2, -1)), s, (-2, -1)),
            _identity_ok(
                np.abs(np.vecdot(s, th[..., np.newaxis, :])).max(axis=-1), weighted, (-2, -1)
            ),
        ]
    )


def validate_aes(aes: AesTensor, table: ShareTable) -> ValidityReport:
    """Check symmetry, negative own elasticities, share-weighted row sums
    of zero, and strict quasi-concavity (scaled 2x2 minor positive) for
    each sector."""
    flags = _aes_flags(aes.sigma, table.theta.T)
    return ValidityReport(
        **{field: tuple(bool(f) for f in flag) for (field, _), flag in zip(_AES_CHECKS, flags)}
    )


def require_valid_aes(aes: AesTensor, table: ShareTable) -> ValidityReport:
    """Raise InvalidAes, carrying the report, unless every Allen-tensor
    invariant holds; return the report."""
    report = validate_aes(aes, table)
    if report.ok:
        return report
    failures = [
        f"{name} (sector {j + 1})"
        for field, name in _AES_CHECKS
        for j, flag in enumerate(getattr(report, field))
        if not flag
    ]
    raise InvalidAes("Allen tensor invalid: " + "; ".join(failures), report)


def cobb_douglas_aes(table: ShareTable) -> AesTensor:
    """Unit elasticities between distinct factors; diagonals follow from
    homogeneity as -(1 - theta_ij)/theta_ij."""
    sigma = np.ones((2, 3, 3))
    _complete_diagonal(sigma, table.theta.T)
    return AesTensor(sigma=sigma)


def _epsilon(sigma: np.ndarray, table: ShareTable) -> np.ndarray:
    """Price elasticities of Allen tensors sigma[..., 2, 3, 3]."""
    return table.theta.T[:, np.newaxis, :] * sigma


def _rowsum_gap(eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Worst absolute row sum of each epsilon tensor over leading axes,
    zero up to roundoff by linear homogeneity, and whether it is within
    the identity tolerance."""
    gap = np.abs(eps.sum(axis=-1)).max(axis=(-2, -1))
    return gap, _identity_ok(gap, eps, (-3, -2, -1))


def _rowsum_error(gap: float) -> ConsistencyError:
    """The error for an epsilon tensor whose worst row sum is gap."""
    return ConsistencyError(f"epsilon rows must sum to zero, worst residual {gap:e}")


def _checked_epsilon(aes: AesTensor, table: ShareTable) -> EpsilonTensor:
    """Epsilon of a tensor that has passed validation, with its row-sum
    check."""
    eps = _epsilon(aes.sigma, table)
    gap, ok = _rowsum_gap(eps)
    if not ok:
        raise _rowsum_error(float(gap))
    return EpsilonTensor(eps=eps)


def epsilon_from_aes(aes: AesTensor, table: ShareTable) -> EpsilonTensor:
    """Scale each Allen elasticity by the price-owner's distributive share."""
    require_valid_aes(aes, table)
    return _checked_epsilon(aes, table)


def _aggregate(eps: np.ndarray, table: ShareTable) -> np.ndarray:
    """Economy-wide substitution of epsilon tensors eps[..., 2, 3, 3]."""
    return np.einsum("ij,...jih->...ih", table.lam, eps)


def ews_from_epsilon(eps: EpsilonTensor, table: ShareTable) -> EwsMatrix:
    """Aggregate sector price elasticities with allocation shares."""
    g = _aggregate(eps.eps, table)
    _require_ews_invariants(g, table)
    return EwsMatrix(g=g)


# Invariants of economy-wide substitution, in checking order. They hold
# for every valid input, so a failure means an upstream bug.
_EWS_INVARIANTS = (
    "economy-wide substitution rows must sum to zero",
    "share-weighted symmetry of economy-wide substitution failed",
    "economy-wide own substitution must be negative",
    "land/capital substitution minor must be positive",
    "at most one economy-wide complement pair is possible",
)


def _ews_failures(g: np.ndarray, table: ShareTable) -> list[np.ndarray]:
    """Failure flags of the invariants, in _EWS_INVARIANTS order, for each
    matrix over leading axes of g."""
    tf = table.theta_factor
    minor = (
        g[..., CAPITAL, CAPITAL] * g[..., LAND, LAND]
        - g[..., LAND, CAPITAL] * g[..., CAPITAL, LAND]
    )
    complements = (
        (g[..., LABOR, CAPITAL] < 0.0).astype(int)
        + (g[..., LABOR, LAND] < 0.0)
        + (g[..., CAPITAL, LAND] < 0.0)
    )
    weighted = g * tf[:, np.newaxis]
    return [
        ~_identity_ok(np.abs(g.sum(axis=-1)).max(axis=-1), g, (-2, -1)),
        ~_identity_ok(
            np.abs(weighted - weighted.swapaxes(-1, -2)).max(axis=(-2, -1)), weighted, (-2, -1)
        ),
        ~(g.diagonal(0, -2, -1) < 0.0).all(axis=-1),
        ~(minor > 0.0),
        complements > 1,
    ]


def _require_ews_invariants(g: np.ndarray, table: ShareTable) -> None:
    """Raise ConsistencyError for the first invariant that the matrix g
    breaks."""
    for message, failed in zip(_EWS_INVARIANTS, _ews_failures(g, table)):
        if failed:
            raise ConsistencyError(message)


def _degenerate(t):
    """Whether labor-land substitution t (over leading axes) is too close
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


def ews_from_stu(table: ShareTable, s: float, t: float, u: float) -> EwsMatrix:
    """Build the full substitution matrix from a target off-diagonal
    triple, using share-weighted symmetry for the upper triangle and zero
    row sums for the diagonal.

    Valid placements need s + t > 0 and u(s + t) + (theta_L/theta_K)st > 0;
    the own-negativity and minor conditions then follow.
    """
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
    _require_ews_invariants(g, table)
    return EwsMatrix(g=g)


def sample_valid_aes(
    table: ShareTable,
    seed: int,
    spread: float = 3.0,
    max_attempts: int = 10000,
) -> AesTensor:
    """Draw a random valid Allen tensor: off-diagonals uniform on
    [-spread, spread], diagonals completed by homogeneity, rejected until
    own-negativity and quasi-concavity hold. Deterministic per seed."""
    rng = np.random.default_rng(seed)
    sigma = np.empty((2, 3, 3))
    for j in range(2):
        th = table.theta[:, j]
        for _ in range(max_attempts):
            tk, tl, kl = rng.uniform(-spread, spread, size=3)
            s = np.array([[0.0, tk, tl], [tk, 0.0, kl], [tl, kl, 0.0]])
            _complete_diagonal(s, th)
            if _aes_flags(s, th).all():
                sigma[j] = s
                break
        else:
            raise GenerationExhausted(
                f"no valid Allen tensor for sector {j + 1} in {max_attempts} draws"
            )
    return AesTensor(sigma=sigma)


def aggregate_substitution(g: EwsMatrix, endowments, prices) -> np.ndarray:
    """Aggregate substitution in levels: s[i, h] = g[i, h] * V_i / w_h.

    Requires factor incomes w_i * V_i proportional to the factor shares
    the matrix g was built from; otherwise the result cannot be symmetric
    and the levels contradict the share data.
    """
    v = np.asarray(endowments, dtype=float)
    w = np.asarray(prices, dtype=float)
    if v.shape != (3,) or w.shape != (3,):
        raise NonPositiveLevels("endowments and prices must each have 3 entries")
    # Written to fail, not pass, on NaN.
    if not (np.all(v > 0.0) and np.all(w > 0.0)):
        raise NonPositiveLevels("endowments and prices must be strictly positive")
    s = g.g * v[:, np.newaxis] / w[np.newaxis, :]
    if not _identity_ok(np.max(np.abs(s - s.T)), s, None):
        raise InconsistentLevels(
            "factor incomes implied by the levels do not match the share table; "
            "aggregate substitution would lose symmetry"
        )
    return s

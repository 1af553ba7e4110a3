"""Parameter sweeps over the off-diagonal Allen elasticities.

A grid spec names any subset of the six free elasticities and a range
for each; the sweep takes the Cartesian product in a fixed key order,
builds the whole stack of tensors at once (diagonals always recomputed
from homogeneity), and runs the pipeline over the stack in one pass:
validation, epsilon and g with their invariants, the ratio vector, its
classification, and a dense solve of every classified point's system
whose signs must match the tabled patterns. Invalid points stay in the
output with a rejection status instead of being dropped.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ClosedFormMismatch, ConsistencyError, ParseError
from .geometry import REGIONS, _ON_LINE_FAULT, _classify, _classify_error, line_coefficients
from .scenario import Scenario
from .shares import CAPITAL, LABOR, LAND, _first_fault
from .statics import (
    RESIDUAL_TOL,
    assemble_system,
    dense_signs,
    sign_pattern_lookup,
    strong_rybczynski,
)
from .substitution import (
    _AES_CHECKS,
    _EWS_INVARIANTS,
    EwsMatrix,
    _aes_flags,
    _aggregate,
    _complete_diagonal,
    _degenerate,
    _epsilon,
    _ews_failures,
    _rowsum_error,
    _rowsum_gap,
)

# Canonical grid keys and the (sector, row, column) they set. Symmetric
# partners are set together; diagonals are never free.
GRID_KEYS = (
    "land_capital_1",
    "land_labor_1",
    "capital_labor_1",
    "land_capital_2",
    "land_labor_2",
    "capital_labor_2",
)
_KEY_SLOTS = {
    "land_capital_1": (0, 0, 1),
    "land_labor_1": (0, 0, 2),
    "capital_labor_1": (0, 1, 2),
    "land_capital_2": (1, 0, 1),
    "land_labor_2": (1, 0, 2),
    "capital_labor_2": (1, 1, 2),
}

CSV_COLUMNS = GRID_KEYS + (
    "s_prime",
    "u_prime",
    "sign_t",
    "subregion",
    "strong_result",
    "status",
)

# The sweep holds every grid point's tensor, intermediates and row at
# once, so a grid is refused above this many points.
MAX_GRID_POINTS = 1_000_000

# Status of a point per bit mask of failed Allen-tensor checks (bit k for
# _AES_CHECKS[k]); a valid point starts out "ok".
_AES_STATUSES = ["ok"] + [
    "rejected ("
    + "/".join(name for k, (_, name) in enumerate(_AES_CHECKS) if mask >> k & 1)
    + ")"
    for mask in range(1, 1 << len(_AES_CHECKS))
]

# Pipeline stage at which a valid point leaves, in pipeline order; the
# first four follow the order of the checks passed to _first_fault.
_OK, _ROWSUM, _INVARIANT, _DEGENERATE, _CLASSIFY, _DENSE = range(6)


def parse_grid(spec: str) -> dict[str, list[float]]:
    """Parse "key=lo:hi:count" clauses separated by commas."""
    grid: dict[str, list[float]] = {}
    if not spec.strip():
        raise ParseError("empty grid spec")
    for clause in spec.split(","):
        clause = clause.strip()
        if "=" not in clause:
            raise ParseError(f"grid clause {clause!r} is not key=lo:hi:count")
        key, _, rng = clause.partition("=")
        key = key.strip()
        if key not in _KEY_SLOTS:
            raise ParseError(f"unknown grid key {key!r}; valid keys: {', '.join(GRID_KEYS)}")
        if key in grid:
            raise ParseError(f"grid key {key!r} given twice")
        parts = rng.split(":")
        if len(parts) != 3:
            raise ParseError(f"grid range {rng!r} is not lo:hi:count")
        try:
            lo, hi = float(parts[0]), float(parts[1])
            count = int(parts[2])
        except ValueError as exc:
            raise ParseError(f"grid range {rng!r}: {exc}") from exc
        # Finite iff both bounds are finite and the span does not overflow.
        if not math.isfinite(hi - lo):
            raise ParseError(f"grid range {rng!r} must have finite bounds and span")
        if count < 1:
            raise ParseError(f"grid count must be at least 1, got {count}")
        if count > MAX_GRID_POINTS:
            raise ParseError(f"grid count {count} exceeds {MAX_GRID_POINTS} points")
        grid[key] = [float(v) for v in np.linspace(lo, hi, count)]
    return grid


def _grid_tensors(scenario: Scenario, grid: dict[str, list[float]], active, points) -> np.ndarray:
    """Every grid point's Allen tensor, (points, 2, 3, 3), in grid order:
    the template with the swept entries set and the diagonals completed."""
    axes = np.meshgrid(*(np.asarray(grid[key], dtype=float) for key in active), indexing="ij")
    sigma = np.empty((points, 2, 3, 3))
    sigma[:] = scenario.aes.sigma
    for key, values in zip(active, axes):
        sector, row, col = _KEY_SLOTS[key]
        sigma[:, sector, row, col] = sigma[:, sector, col, row] = values.ravel()
    # Diagonals follow from the off-diagonals; stale template values
    # would silently break homogeneity.
    _complete_diagonal(sigma, scenario.table.theta.T)
    return sigma


def _point(index: int, sigma: np.ndarray) -> str:
    values = ", ".join(f"{key}={float(sigma[index][slot])!r}" for key, slot in _KEY_SLOTS.items())
    return f"grid point {index} ({values})"


def sweep(scenario: Scenario, grid: dict[str, list[float]]) -> list[dict]:
    """One result row per grid point, in deterministic grid order.

    Every classified point's tabled sign patterns are checked against a
    dense solve of its system. A consistency failure raises for the first
    failing grid point in grid order, ClosedFormMismatch when the dense
    signs or residuals contradict the tables.
    """
    for key in grid:
        if key not in _KEY_SLOTS:
            raise ParseError(f"unknown grid key {key!r}")
    active = [key for key in GRID_KEYS if key in grid]
    points = math.prod(len(grid[key]) for key in active)
    if points > MAX_GRID_POINTS:
        raise ParseError(f"grid has {points} points, more than {MAX_GRID_POINTS}")
    table = scenario.table
    # Every point runs through every stage; one that an earlier stage
    # rejected may hold infinities or NaNs later, which its stage code
    # already accounts for.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        sigma = _grid_tensors(scenario, grid, active, points)
        aes_failed = ~_aes_flags(sigma, table.theta.T).all(axis=-1)
        aes_code = np.dot(1 << np.arange(len(_AES_CHECKS)), aes_failed)
        valid = np.flatnonzero(aes_code == 0)

        eps = _epsilon(sigma[valid], table)
        gap, rowsum_ok = _rowsum_gap(eps)
        g = _aggregate(eps, table)
        invariant = _first_fault(_ews_failures(g, table))
        s, t, u = g[:, LABOR, CAPITAL], g[:, LABOR, LAND], g[:, CAPITAL, LAND]
        s_prime, u_prime = s / t, u / t
        sign_t = np.where(t > 0.0, 1, -1)
        region, failed, offsets = _classify(
            s_prime, u_prime, sign_t, line_coefficients(table), table
        )
        fault = _first_fault(failed)
    stage = _first_fault([~rowsum_ok, invariant > 0, _degenerate(t), fault > 0])

    classified = np.flatnonzero(stage == _OK)
    ryb, ss, residual = dense_signs(assemble_system(table, EwsMatrix(g=g[classified])))
    tabled = [
        np.array([sign_pattern_lookup(r, kind).entries for r in REGIONS])[region[classified]]
        for kind in ("rybczynski", "stolper_samuelson")
    ]
    agree = (
        np.all(ryb == tabled[0], axis=(-2, -1))
        & np.all(ss == tabled[1], axis=(-2, -1))
        & (residual <= RESIDUAL_TOL)
    )
    stage[classified[~agree]] = _DENSE

    caught = (stage == _DEGENERATE) | ((stage == _CLASSIFY) & (fault == _ON_LINE_FAULT))
    bad = np.flatnonzero((stage != _OK) & ~caught)
    if bad.size:
        k = bad[0]
        where = _point(int(valid[k]), sigma)
        if stage[k] == _ROWSUM:
            exc = _rowsum_error(float(gap[k]))
        elif stage[k] == _INVARIANT:
            exc = ConsistencyError(_EWS_INVARIANTS[invariant[k] - 1])
        elif stage[k] == _CLASSIFY:
            exc = _classify_error(int(fault[k]), offsets[k], int(sign_t[k]))
        else:
            c = int(np.searchsorted(classified, k))
            exc = ClosedFormMismatch(
                f"dense solve contradicts the tabled signs of "
                f"{REGIONS[region[k]].value}: output signs {ryb[c].tolist()} vs "
                f"{tabled[0][c].tolist()}, real-reward signs {ss[c].tolist()} vs "
                f"{tabled[1][c].tolist()}, scaled residual {residual[c]:.3e}"
            )
        raise type(exc)(f"{where}: {exc}")

    status = np.array(_AES_STATUSES, dtype=object)[aes_code]
    status[valid[stage == _DEGENERATE]] = "rejected (degenerate ratio)"
    status[valid[stage == _CLASSIFY]] = "rejected (on a border line)"
    ok = valid[classified]
    strong = np.array([strong_rybczynski(r) for r in REGIONS], dtype=object)
    names = np.array([r.value for r in REGIONS], dtype=object)
    results = []
    for values in (
        s_prime[classified],
        u_prime[classified],
        sign_t[classified],
        names[region[classified]],
        strong[region[classified]],
    ):
        column = np.full(len(sigma), None, dtype=object)
        column[ok] = values.tolist()
        results.append(column.tolist())
    columns = [sigma[:, sector, row, col].tolist() for sector, row, col in _KEY_SLOTS.values()]
    return [
        dict(zip(CSV_COLUMNS, row)) for row in zip(*columns, *results, status.tolist())
    ]


def format_csv(rows: list[dict]) -> str:
    """Fixed-column CSV with 9 significant digits."""
    out = [",".join(CSV_COLUMNS)]
    for row in rows:
        cells = []
        for col in CSV_COLUMNS:
            value = row.get(col)
            if value is None:
                cells.append("")
            elif col == "sign_t":
                cells.append("+" if value > 0 else "-")
            elif col == "strong_result":
                cells.append("true" if value else "false")
            elif isinstance(value, float):
                cells.append(f"{value:.9g}")
            else:
                cells.append(str(value))
        out.append(",".join(cells))
    return "\n".join(out) + "\n"

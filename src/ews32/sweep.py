"""Parameter sweeps over the off-diagonal Allen elasticities.

A grid spec names any subset of the six free elasticities and a range
for each; the sweep takes the Cartesian product in a fixed key order,
builds the whole stack of tensors at once (diagonals always recomputed
from homogeneity), and runs the pipeline over the stack in one pass:
validation, epsilon and g with their invariants, the ratio vector, its
classification, and a dense solve of every classified point's system
whose signs must match the tabled patterns. Invalid points stay in the
output with a rejection status instead of being dropped.

The result keeps the engine's columns (SweepRows); a row's dict is built
only when it is read, and format_csv writes the CSV from the columns.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence

import numpy as np

from .errors import ConsistencyError, ParseError
from .geometry import REGIONS, _ON_LINE_FAULT, _classify, _classify_error
from .scenario import Scenario, _finite_numbers
from .shares import CAPITAL, LABOR, LAND, _first_fault
from .statics import (
    RESIDUAL_TOL,
    _contradicts_tables,
    _residual_error,
    _sign_mismatch,
    assemble_system,
    dense_signs,
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
_KEY_SLOTS = {
    "land_capital_1": (0, 0, 1),
    "land_labor_1": (0, 0, 2),
    "capital_labor_1": (0, 1, 2),
    "land_capital_2": (1, 0, 1),
    "land_labor_2": (1, 0, 2),
    "capital_labor_2": (1, 1, 2),
}
GRID_KEYS = tuple(_KEY_SLOTS)

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


def sweep(scenario: Scenario, grid: dict[str, list[float]]) -> SweepRows:
    """One result row per grid point, in deterministic grid order, as
    SweepRows.

    Every classified point's tabled sign patterns are checked against a
    dense solve of its system. A consistency failure raises for the first
    failing grid point in grid order: SingularSystem for a solve residual
    past its bound, ClosedFormMismatch when the dense signs contradict the
    tables, as in run_report.
    """
    for key, values in grid.items():
        if key not in _KEY_SLOTS:
            raise ParseError(f"unknown grid key {key!r}")
        if not (len(values) and _finite_numbers(values)):
            raise ParseError(f"grid key {key!r} needs one or more values, all finite numbers")
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
        region, failed, offsets = _classify(s_prime, u_prime, sign_t, scenario.lines, table)
        fault = _first_fault(failed)
    stage = _first_fault([~rowsum_ok, invariant > 0, _degenerate(t), fault > 0])

    classified = np.flatnonzero(stage == _OK)
    signs, residual = dense_signs(assemble_system(table, EwsMatrix(g=g[classified])))
    disagree, tabled = _contradicts_tables(signs, REGIONS, region[classified])
    stage[classified[disagree | ~(residual <= RESIDUAL_TOL)]] = _DENSE

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
            exc = (
                _sign_mismatch(REGIONS[region[k]], signs[c], tabled[c])
                if residual[c] <= RESIDUAL_TOL
                else _residual_error(residual[c])
            )
        raise type(exc)(f"{where}: {exc}")

    status = np.array(_AES_STATUSES, dtype=object)[aes_code]
    status[valid[stage == _DEGENERATE]] = "rejected (degenerate ratio)"
    status[valid[stage == _CLASSIFY]] = "rejected (on a border line)"
    return SweepRows(
        {key: np.array(grid[key], dtype=float) for key in active},
        scenario.aes.sigma,
        valid[classified],
        s_prime[classified],
        u_prime[classified],
        sign_t[classified],
        region[classified],
        status,
    )


class SweepRows(Sequence):
    """The rows of one sweep in grid order: a read-only sequence of dicts
    keyed by CSV_COLUMNS, held as the sweep's columns. A row's dict is
    built when the row is read."""

    def __init__(self, axes, sigma, ok, s_prime, u_prime, sign_t, region, status):
        self._axes = axes  # swept key -> its grid values, in GRID_KEYS order
        self._shape = tuple(len(values) for values in axes.values())
        # A row before its swept values, classification and status are
        # filled in: the template's elasticities and empty cells.
        self._blank = dict.fromkeys(CSV_COLUMNS)
        self._blank.update((key, float(sigma[slot])) for key, slot in _KEY_SLOTS.items())
        self._ok = ok  # indices of the classified rows, ascending
        self._s_prime, self._u_prime, self._sign_t, self._region = s_prime, u_prime, sign_t, region
        # Evaluated per sweep from the tables as they stand.
        self._strong = [strong_rybczynski(r) for r in REGIONS]
        self.status = status  # one status string per row
        status.flags.writeable = False

    def __len__(self) -> int:
        return len(self.status)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"sweep row {index} out of range for {len(self)} rows")
        row = dict(self._blank)
        rest = i
        for key, n in zip(reversed(self._axes), reversed(self._shape)):
            rest, k = divmod(rest, n)
            row[key] = float(self._axes[key][k])
        c = int(np.searchsorted(self._ok, i))
        if c < len(self._ok) and self._ok[c] == i:
            code = int(self._region[c])
            row.update(
                s_prime=float(self._s_prime[c]),
                u_prime=float(self._u_prime[c]),
                sign_t=int(self._sign_t[c]),
                subregion=REGIONS[code].value,
                strong_result=self._strong[code],
            )
        row["status"] = self.status[i]
        return row


def format_csv(rows: SweepRows) -> str:
    """Fixed-column CSV with 9 significant digits, built from the sweep's
    columns: each grid value, template value and classified point is
    formatted once, and the body in one % call."""
    n, swept = len(rows), len(rows._axes)
    # A row's line: the unswept template values are written into it, the
    # swept values, classification cells and status are its arguments.
    line = ",".join(
        "%s" if key in rows._axes else "%.9g" % rows._blank[key] for key in GRID_KEYS
    ) + ",%s,%s\n"
    cells = np.empty((*rows._shape, swept + 2), dtype=object)
    # A swept key's strings vary along its own grid axis only.
    for k, values in enumerate(rows._axes.values()):
        along = [1] * swept
        along[k] = -1
        text = ("%.9g\n" * len(values) % tuple(values.tolist())).split("\n")[:-1]
        cells[..., k] = np.array(text, dtype=object).reshape(along)
    cells = cells.reshape(n, -1)
    # A classified point's cells s',u',sign_t,subregion,strong_result as
    # one string; the rest leave them empty.
    tails = np.array(
        [
            [f"{sign},{region.value},{'true' if strong else 'false'}" for sign in "-+"]
            for region, strong in zip(REGIONS, rows._strong)
        ],
        dtype=object,
    )
    m = len(rows._ok)
    classified = np.empty((m, 3), dtype=object)
    classified[:, 0] = rows._s_prime.tolist()
    classified[:, 1] = rows._u_prime.tolist()
    classified[:, 2] = tails[rows._region, (rows._sign_t > 0).astype(int)]
    cells[:, -2] = ",,,,"
    text = "%.9g,%.9g,%s\n" * m % tuple(classified.ravel().tolist())
    cells[rows._ok, -2] = text.split("\n")[:-1]
    cells[:, -1] = rows.status
    return ",".join(CSV_COLUMNS) + "\n" + line * n % tuple(cells.ravel().tolist())

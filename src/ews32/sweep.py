"""Parameter sweeps over the off-diagonal Allen elasticities.

A grid spec names any subset of the six free elasticities and a range
for each; the sweep walks the Cartesian product in a fixed key order,
rebuilds the tensor at every point (diagonals always recomputed from
homogeneity), and classifies the valid points. Invalid points stay in
the output with a rejection status instead of being dropped.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import DegenerateT, InvalidAes, OnLine, ParseError
from .geometry import classify_subregion, line_coefficients
from .scenario import Scenario
from .statics import strong_rybczynski
from .substitution import (
    AesTensor,
    _complete_diagonal,
    epsilon_from_aes,
    ews_from_epsilon,
    ews_ratio_vector,
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
        if count < 1:
            raise ParseError(f"grid count must be at least 1, got {count}")
        grid[key] = [float(v) for v in np.linspace(lo, hi, count)]
    return grid


def _tensor_at(scenario: Scenario, overrides: dict[str, float]) -> AesTensor:
    sigma = np.array(scenario.aes.sigma)
    for key, value in overrides.items():
        sector, row, col = _KEY_SLOTS[key]
        sigma[sector, row, col] = value
        sigma[sector, col, row] = value
    # Diagonals follow from the off-diagonals; stale template values
    # would silently break homogeneity.
    for sector in range(2):
        _complete_diagonal(sigma[sector], scenario.table.theta[:, sector])
    return AesTensor(sigma=sigma)


def _offdiag_values(aes: AesTensor) -> dict[str, float]:
    return {
        key: float(aes.sigma[sector, row, col])
        for key, (sector, row, col) in _KEY_SLOTS.items()
    }


def sweep(scenario: Scenario, grid: dict[str, list[float]]) -> list[dict]:
    """One result row per grid point, in deterministic grid order."""
    for key in grid:
        if key not in _KEY_SLOTS:
            raise ParseError(f"unknown grid key {key!r}")
    active = [key for key in GRID_KEYS if key in grid]
    table = scenario.table
    lines = line_coefficients(table)
    rows = []
    for combo in itertools.product(*(grid[key] for key in active)):
        overrides = dict(zip(active, combo))
        aes = _tensor_at(scenario, overrides)
        row: dict = dict(_offdiag_values(aes))
        row.update(
            s_prime=None, u_prime=None, sign_t=None, subregion=None, strong_result=None
        )
        try:
            ews = ews_from_epsilon(epsilon_from_aes(aes, table), table)
            vector = ews_ratio_vector(ews)
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

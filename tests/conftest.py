"""Shared fixtures and independent oracles.

The dense helpers here deliberately rebuild the 5x5 system from raw
shares instead of calling the package's assembly code, so tests compare
two genuinely separate routes to the same numbers.
"""

import math

import numpy as np
import pytest
from hypothesis import settings

from ews32 import (
    LABOR,
    Infeasible,
    OnLine,
    anchor_points,
    boundary_value,
    build_share_table,
    check_intensity_ranking,
    classify_subregion,
    epsilon_from_aes,
    ews_from_epsilon,
    ews_from_stu,
    ews_ratio_vector,
    line_coefficients,
    sample_valid_aes,
)
from ews32.sweep import CSV_COLUMNS

# Property tests draw the same examples on every run and stay within the
# suite's time budget; no example database is written.
settings.register_profile(
    "deterministic", derandomize=True, deadline=None, max_examples=100, database=None
)
settings.load_profile("deterministic")

REFERENCE_THETA = [[0.50, 0.20], [0.15, 0.50], [0.35, 0.30]]
REFERENCE_SECTOR = [0.6, 0.4]


@pytest.fixture
def reference_table():
    return build_share_table(REFERENCE_THETA, REFERENCE_SECTOR)


def random_ranked_table(rng):
    """Rejection-sample a share table satisfying both rankings.

    Margins on the shares and on the column differences keep the derived
    geometry well scaled, so absolute 1e-10 residual checks are
    meaningful; near-ties push the common line intersection off to
    infinity where no float test makes sense.
    """
    while True:
        theta = rng.dirichlet(np.ones(3), size=2).T
        first = rng.uniform(0.05, 0.95)
        sector = np.array([first, 1.0 - first])
        if theta.min() <= 0.02:
            continue
        a, b, e = (theta[:, 0] - theta[:, 1]).tolist()
        if a < 0.01 or -b < 0.01 or e < 0.01:
            continue
        table = build_share_table(theta, sector)
        if check_intensity_ranking(table).ok:
            return table


def random_valid_ews(table, seed):
    aes = sample_valid_aes(table, seed)
    return ews_from_epsilon(epsilon_from_aes(aes, table), table)


def dense_system(table, g):
    a = np.zeros((5, 5))
    a[0, :3] = table.theta[:, 0]
    a[1, :3] = table.theta[:, 1]
    for row in range(3):
        a[2 + row, :3] = g.g[row]
        a[2 + row, 3:] = table.lam[row]
    return a


def dense_output_elasticities(table, g):
    """Unit-endowment solves; rows sectors, columns factors."""
    a = dense_system(table, g)
    out = np.empty((2, 3))
    for factor in range(3):
        rhs = np.zeros(5)
        rhs[2 + factor] = 1.0
        x = np.linalg.solve(a, rhs)
        out[:, factor] = x[3:]
    return out


def dense_price_rewards(table, g):
    """Unit relative-price solve; the three deflated factor rewards."""
    a = dense_system(table, g)
    x = np.linalg.solve(a, np.array([0.0, -1.0, 0.0, 0.0, 0.0]))
    return x[:3]


def sign_grid(values):
    return tuple(tuple(1 if v > 0 else -1 for v in row) for row in np.asarray(values))


def matrix_at(table, s_prime, u_prime, sign_t):
    """Full substitution matrix whose ratio vector sits at the given
    normalized placement."""
    t = float(sign_t)
    return ews_from_stu(table, s_prime * t, t, u_prime * t)


def sample_in_band(rng, table, region):
    """A normalized placement inside one of the three bands between the
    boundary curve and a labor-anchor height (positive denominator)."""
    anchors = anchor_points(table)
    near = anchors.r[LABOR, 0]  # labor line of the first sector
    far = anchors.r[LABOR, 1]
    if region == "P1":
        sp = rng.uniform(near[0], near[0] + 3.0)
        top = near[1]
    elif region == "P2":
        sp = rng.uniform(far[0], near[0])
        top = far[1]
    elif region == "P3":
        sp = rng.uniform(0.0, far[0])
        top = 0.0
    else:
        raise ValueError(region)
    low = boundary_value(sp, table)
    # Stay strictly interior so no draw lands on a border.
    up = low + (top - low) * rng.uniform(0.02, 0.98)
    return sp, up


def scan_m_regions(table, radius=0.01, count=2880):
    """Walk a small circle around the common line intersection on the
    negative-denominator side; return one matrix per subregion found."""
    anchors = anchor_points(table)
    lines = line_coefficients(table)
    qx, qy = anchors.q
    found = {}
    for k in range(count):
        ang = 2.0 * math.pi * (k + 0.5) / count
        sp = qx + radius * math.cos(ang)
        up = qy + radius * math.sin(ang)
        try:
            g = matrix_at(table, sp, up, -1)
            region = classify_subregion(ews_ratio_vector(g), lines, table)
        except (Infeasible, OnLine):
            continue
        found.setdefault(region, g)
    return found


def reference_csv(rows):
    """The sweep CSV cell by cell from the row dicts: fixed columns,
    floats with 9 significant digits, empty cells for None."""
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

"""Seeded input generator for the benchmark workloads.

Every input depends only on (seed, stream, index), so a run draws the
same documents however many it ends up using, and ews32's own sampler
(`sample_valid_aes`) is never called: a change to the library cannot
change the inputs it is measured on.
"""

from __future__ import annotations

import numpy as np

import oracle

REFERENCE_DOC = {
    "name": "reference",
    "theta": [[0.50, 0.20], [0.15, 0.50], [0.35, 0.30]],
    "theta_sector": [0.6, 0.4],
    "sigma": "cobb-douglas",
    "shocks": [{"price": 1.0}, {"endowments": [1.0, 0.0, 0.0]}],
}

GRID_SPEC = "land_capital_1=-2:2:20,land_labor_1=-2:2:20,capital_labor_2=-2:2:10"
# The grid's first point alone: the first op of the sweep workload.
FIRST_POINT_SPEC = "land_capital_1=-2:-2:1,land_labor_1=-2:-2:1,capital_labor_2=-2:-2:1"
# (key, sector, row, column, values) in ews32's canonical grid-key order.
GRID_AXES = (
    ("land_capital_1", 0, 0, 1, np.linspace(-2.0, 2.0, 20)),
    ("land_labor_1", 0, 0, 2, np.linspace(-2.0, 2.0, 20)),
    ("capital_labor_2", 1, 1, 2, np.linspace(-2.0, 2.0, 10)),
)

# Generated sweep templates keep the reference scenario's share of valid
# grid points (one in five). Classified points cost about twice what
# rejected ones do, and templates range from 2% to 35% valid, so without
# the band a run's speed would follow its seed's template mix.
VALID_SHARE = (0.18, 0.22)

SPREAD = 3.0
# One report document in INVALID_EVERY breaks an assumption, cycling
# through these kinds in order so call counts per op repeat exactly.
INVALID_EVERY = 8
INVALID_KINDS = ("nonstochastic", "ranking", "allen", "asymmetric")

STREAMS = {"report": 1, "sweep": 2, "figure": 3}


def rng_for(seed: int, stream: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, STREAMS[stream], index])


def share_table(rng) -> tuple[np.ndarray, np.ndarray]:
    """Rejection-sample ranked shares with margins that keep the border
    geometry well scaled."""
    while True:
        theta = rng.dirichlet(np.ones(3), size=2).T
        first = rng.uniform(0.1, 0.9)
        a, b, e = theta[:, 0] - theta[:, 1]
        if theta.min() > 0.03 and a > 0.02 and -b > 0.02 and e > 0.02 and oracle.ranked(theta):
            return theta, np.array([first, 1.0 - first])


def _sector_tensor(rng, th) -> np.ndarray:
    lk, ll, kl = rng.uniform(-SPREAD, SPREAD, size=3)
    s = np.array([[0.0, lk, ll], [lk, 0.0, kl], [ll, kl, 0.0]])
    s[np.diag_indices(3)] = -(s @ th) / th
    return s


def allen_tensor(rng, theta, valid: bool = True) -> np.ndarray:
    """Off-diagonals uniform on [-SPREAD, SPREAD], diagonals from
    homogeneity; rejected until both sectors are valid, or (valid=False)
    until the first sector is invalid and the second valid."""
    sigma = np.empty((2, 3, 3))
    for j in range(2):
        want = valid or j == 1
        while True:
            sigma[j] = _sector_tensor(rng, theta[:, j])
            if bool(oracle.sector_valid(sigma[j], theta[:, j])) == want:
                break
    return sigma


def _doc(name, theta, sector, sigma, shocks=None) -> dict:
    doc = {
        "name": name,
        "theta": theta.tolist(),
        "theta_sector": sector.tolist(),
        "sigma": sigma if isinstance(sigma, str) else sigma.tolist(),
    }
    if shocks is not None:
        doc["shocks"] = shocks
    return doc


def valid_doc(rng, name: str, with_shocks: bool = True) -> dict:
    """A document every assumption holds for, clear of every border."""
    while True:
        theta, sector = share_table(rng)
        sigma = allen_tensor(rng, theta)
        if oracle.well_posed(theta, sector, sigma):
            break
    shocks = None
    if with_shocks:
        shocks = [
            {"price": float(rng.uniform(-1.0, 1.0))},
            {"endowments": rng.uniform(-1.0, 1.0, size=3).tolist()},
        ]
    return _doc(name, theta, sector, sigma, shocks)


def invalid_doc(rng, name: str, kind: str) -> dict:
    """A document that breaks exactly one maintained assumption."""
    theta, sector = share_table(rng)
    sigma = allen_tensor(rng, theta)
    if kind == "nonstochastic":
        theta = theta.copy()
        theta[:, 0] *= 1.01
    elif kind == "ranking":
        theta, sector = theta[:, ::-1].copy(), sector[::-1].copy()
        sigma = "cobb-douglas"
    elif kind == "allen":
        sigma = allen_tensor(rng, theta, valid=False)
    elif kind == "asymmetric":
        sigma = sigma.copy()
        sigma[1, 0, 1] += 0.25
    else:
        raise ValueError(f"unknown invalid kind {kind!r}")
    return _doc(name, theta, sector, sigma, [{"price": 1.0}])


def invalid_kind(index: int) -> str | None:
    """Which assumption report document `index` breaks, if any."""
    if index % INVALID_EVERY != INVALID_EVERY - 1:
        return None
    return INVALID_KINDS[(index // INVALID_EVERY) % len(INVALID_KINDS)]


def report_doc(seed: int, index: int) -> dict:
    rng = rng_for(seed, "report", index)
    name = f"r{seed}-{index}"
    kind = invalid_kind(index)
    return valid_doc(rng, name) if kind is None else invalid_doc(rng, name, kind)


def sweep_template(seed: int, index: int) -> dict:
    """Template 0 is the reference scenario; the rest are generated."""
    if index == 0:
        return dict(REFERENCE_DOC, shocks=[])
    rng = rng_for(seed, "sweep", index)
    while True:
        doc = valid_doc(rng, f"t{seed}-{index}", with_shocks=False)
        share = oracle.tensor_valid(grid_sigma(doc), doc["theta"]).mean()
        if VALID_SHARE[0] <= share <= VALID_SHARE[1]:
            return doc


def figure_doc(seed: int, index: int) -> dict:
    return valid_doc(rng_for(seed, "figure", index), f"f{seed}-{index}", with_shocks=False)


def grid_points() -> np.ndarray:
    """The grid's (n, 3) values in sweep order (last key fastest)."""
    mesh = np.meshgrid(*(axis[4] for axis in GRID_AXES), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def grid_sigma(doc: dict) -> np.ndarray:
    """The (n, 2, 3, 3) tensors a sweep of the template visits, with
    diagonals completed by homogeneity."""
    points = grid_points()
    sigma = np.broadcast_to(template_sigma(doc), (len(points), 2, 3, 3)).copy()
    for k, (_, sector, row, col, _) in enumerate(GRID_AXES):
        sigma[:, sector, row, col] = sigma[:, sector, col, row] = points[:, k]
    return oracle.complete_diagonals(sigma, doc["theta"])


def template_sigma(doc: dict) -> np.ndarray:
    """The document's tensor, expanding the Cobb-Douglas preset."""
    theta = np.asarray(doc["theta"], dtype=float)
    if doc["sigma"] == "cobb-douglas":
        return oracle.complete_diagonals(np.ones((2, 3, 3)), theta)
    return np.asarray(doc["sigma"], dtype=float)

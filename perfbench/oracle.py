"""Independent oracle for the benchmark's output checks.

Everything here is rebuilt from the raw document numbers (shares and
Allen elasticities) with plain numpy, without calling ews32, so a check
compares two separate routes to the same quantity. Factor order is
(land, capital, labor); sectors are the two columns of theta.
"""

from __future__ import annotations

import numpy as np

RTOL = 1e-9
ATOL = 1e-12

# Default SVG window and canvas of ews32 figures, from the figure
# module's documented defaults: s' on x, u' on y, 45 px margin.
FIGURE_WINDOW = ((-4.0, 4.0), (-10.0, 4.0))
FIGURE_SIZE = (800.0, 600.0)
FIGURE_MARGIN = 45.0


def ranked(theta) -> bool:
    """Land-intensive first sector, capital-intensive second, labor in
    between, and labor's share larger in the first sector."""
    th = np.asarray(theta, dtype=float)
    r = th[:, 0] / th[:, 1]
    return bool(r[0] > r[2] > r[1] and th[2, 0] > th[2, 1])


def complete_diagonals(sigma, theta) -> np.ndarray:
    """Set each sector's own elasticities so that share-weighted rows sum
    to zero; works on one tensor (2, 3, 3) or a stack (..., 2, 3, 3)."""
    s = np.array(sigma, dtype=float)
    th = np.asarray(theta, dtype=float).T  # (sector, factor)
    idx = np.arange(3)
    s[..., idx, idx] = 0.0
    off = np.einsum("...jih,jh->...ji", s, th)
    s[..., idx, idx] = -off / th
    return s


def sector_valid(s, th) -> np.ndarray:
    """Own-negativity and strict quasi-concavity (scaled land-capital
    minor positive) of sector tensors s (..., 3, 3) with shares th
    (..., 3); symmetry and homogeneity hold by construction."""
    s = np.asarray(s, dtype=float)
    th = np.asarray(th, dtype=float)
    own = np.all(np.diagonal(s, axis1=-2, axis2=-1) < 0.0, axis=-1)
    e = th[..., :, None] * th[..., None, :] * s
    return own & (e[..., 0, 0] * e[..., 1, 1] - e[..., 0, 1] ** 2 > 0.0)


def tensor_valid(sigma, theta) -> np.ndarray:
    """Both sectors valid, for one tensor (2, 3, 3) or a stack."""
    return np.all(sector_valid(sigma, np.asarray(theta, dtype=float).T), axis=-1)


def substitution(theta, sector, sigma) -> np.ndarray:
    """Economy-wide substitution matrix g[i, h] (stacked over leading
    axes of sigma)."""
    th = np.asarray(theta, dtype=float)
    ts = np.asarray(sector, dtype=float)
    lam = ts[None, :] * th / (th @ ts)[:, None]
    eps = th.T[:, None, :] * np.asarray(sigma, dtype=float)
    return np.einsum("ij,...jih->...ih", lam, eps)


def system(theta, sector, g) -> np.ndarray:
    """The 5x5 comparative-statics matrix from raw shares (stacked over
    leading axes of g)."""
    th = np.asarray(theta, dtype=float)
    ts = np.asarray(sector, dtype=float)
    lam = ts[None, :] * th / (th @ ts)[:, None]
    g = np.asarray(g, dtype=float)
    a = np.zeros(g.shape[:-2] + (5, 5))
    a[..., 0, :3] = th[:, 0]
    a[..., 1, :3] = th[:, 1]
    a[..., 2:, :3] = g
    a[..., 2:, 3:] = lam
    return a


def rhs(price=0.0, endowments=(0.0, 0.0, 0.0)) -> np.ndarray:
    return np.array([0.0, -price, *endowments], dtype=float)


def statics(theta, sector, g):
    """Dense Rybczynski [sector, factor] and Stolper-Samuelson
    [deflator, factor] matrices (stacked over leading axes of g)."""
    a = system(theta, sector, g)
    b = np.zeros(a.shape[:-2] + (5, 4))
    b[..., 2:5, :3] = np.eye(3)
    b[..., :, 3] = rhs(price=1.0)
    x = np.linalg.solve(a, b)
    ryb = x[..., 3:5, :3]
    w = x[..., :3, 3]
    ss = np.stack([w, w + 1.0], axis=-2)
    return ryb, ss


def ratio_vector(g):
    """(s', u', sign of t) with s = g[labor, capital], t = g[labor, land],
    u = g[capital, land]."""
    g = np.asarray(g, dtype=float)
    t = g[..., 2, 0]
    return g[..., 2, 1] / t, g[..., 1, 0] / t, np.where(t > 0, 1, -1)


def strong(ryb) -> np.ndarray:
    """Each extreme factor raises its intensive sector's output and lowers
    the other's."""
    ryb = np.asarray(ryb)
    return (
        (ryb[..., 0, 0] > 0) & (ryb[..., 1, 0] < 0)
        & (ryb[..., 1, 1] > 0) & (ryb[..., 0, 1] < 0)
    )


def signs(values) -> tuple:
    return tuple(tuple(1 if v > 0 else -1 for v in row) for row in np.asarray(values))


def well_posed(theta, sector, sigma, margin=1e-6) -> bool:
    """True when a valid document sits clearly away from every border:
    no response entry near zero, t clearly nonzero, and the dense
    system well conditioned."""
    g = substitution(theta, sector, sigma)
    ryb, ss = statics(theta, sector, g)
    scale = max(np.max(np.abs(ryb)), np.max(np.abs(ss)))
    return bool(
        np.min(np.abs(ryb)) > margin * scale
        and np.min(np.abs(ss)) > margin * scale
        and abs(g[2, 0]) > margin * np.max(np.abs(g))
        and np.linalg.cond(system(theta, sector, g)) < 1e8
    )


def close(x, y) -> bool:
    return bool(np.allclose(x, y, rtol=RTOL, atol=ATOL))


def figure_point(s_prime: float, u_prime: float) -> tuple[float, float]:
    """SVG pixel position of a ratio vector in the default window."""
    (sx0, sx1), (uy0, uy1) = FIGURE_WINDOW
    width, height = FIGURE_SIZE
    px = FIGURE_MARGIN + (s_prime - sx0) / (sx1 - sx0) * (width - 2 * FIGURE_MARGIN)
    py = FIGURE_MARGIN + (uy1 - u_prime) / (uy1 - uy0) * (height - 2 * FIGURE_MARGIN)
    return px, py

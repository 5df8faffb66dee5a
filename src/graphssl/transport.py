"""Transport-style metrics comparing (measure, function) pairs.

``tlp_exact`` solves the assignment problem between equal-size empirical
measures exactly; ``tlp_map_bound`` gives an upper bound via a nearest-atom
transport map; ``discrete_vs_continuum_error`` is the plain L^2 empirical
comparison used by the convergence-rate experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from graphssl.continuum import Grid, interpolate_to_points

EXACT_BUDGET = 256


@dataclass(frozen=True)
class TlpPair:
    """An empirical measure (equal-weight atoms) with a function over its support."""

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if len(self.points) != len(self.values):
            raise ValueError("one value per atom required")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("function values must be finite")

    @property
    def m(self) -> int:
        return len(self.points)


def tlp_exact(a: TlpPair, b: TlpPair, p: float = 2.0) -> float:
    """Exact transport distance between equal-size empirical pairs.

    Solves the assignment problem with cost |x_i - y_j|^p + |f_i - g_j|^p and
    returns (total matched cost / m)^{1/p}.
    """
    from scipy.optimize import linear_sum_assignment

    if a.m != b.m:
        raise ValueError("unequal atom counts; use tlp_map_bound instead")
    if a.m > EXACT_BUDGET:
        raise ValueError(f"exact solver budget is m <= {EXACT_BUDGET}")
    if p < 1:
        raise ValueError("p must be >= 1")
    dx = np.linalg.norm(a.points[:, None, :] - b.points[None, :, :], axis=2)
    df = np.abs(a.values[:, None] - b.values[None, :])
    cost = dx ** p + df ** p
    rows, cols = linear_sum_assignment(cost)
    return float((cost[rows, cols].sum() / a.m) ** (1.0 / p))


def tlp_map_bound(cloud_points: np.ndarray, cloud_values: np.ndarray,
                  grid: Grid, grid_values: np.ndarray,
                  grid_density: np.ndarray, p: float = 2.0) -> tuple[float, float]:
    """Upper bound on the transport distance via the nearest-atom map.

    The map sends each grid node to its nearest cloud atom; the bound is
    (||Id - T||_{L^p(mu)}^p + ||f o T - g||_{L^p(mu)}^p)^{1/p} with the grid
    quadrature weighted by the density.  Returns (bound, pure transport term).
    """
    from scipy.spatial import cKDTree

    coords = grid.coordinates()
    w = grid_density * grid.h ** grid.dim
    w = w / w.sum()
    tree = cKDTree(cloud_points)
    dist, nearest = tree.query(coords)
    transport_p = float(np.sum(w * dist ** p))
    value_p = float(np.sum(w * np.abs(cloud_values[nearest] - grid_values) ** p))
    return (transport_p + value_p) ** (1.0 / p), transport_p ** (1.0 / p)


def discrete_vs_continuum_error(u_n: np.ndarray, cloud_points: np.ndarray,
                                grid: Grid, u_grid: np.ndarray) -> float:
    """Empirical L^2 error ((1/n) sum |u_n(x_j) - interp(u)(x_j)|^2)^{1/2}."""
    interp = interpolate_to_points(grid, u_grid, cloud_points)
    return float(np.sqrt(np.mean((u_n - interp) ** 2)))

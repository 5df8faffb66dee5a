"""Epsilon-neighborhood weighted graphs and their Laplacians.

Edge weights are w_ij = eps^{-d} eta(|x_i - x_j| / eps) for the indicator
profile eta = 1 on [0, 1).  The scale factor s_n = 2 / (sigma_eta * n * eps^2)
makes the scaled discrete Dirichlet energy comparable with its continuum
counterpart.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree
from scipy.spatial import cKDTree

from graphssl.density import PointCloud


def _sphere_area(d: int) -> float:
    """Surface area of the unit sphere S^{d-1}."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


@dataclass(frozen=True)
class Kernel:
    """Indicator weight profile (eta = 1 on [0, 1)) with bandwidth epsilon."""

    epsilon: float
    dim: int = 2

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")

    def weight(self, dist: np.ndarray) -> np.ndarray:
        """eta_eps(dist) = eps^{-d} eta(dist/eps)."""
        return self.epsilon ** (-self.dim) * (dist / self.epsilon < 1.0)


def kernel_constants(k: Kernel) -> tuple[float, float]:
    """Kernel moments (sigma_eta, beta_eta) of the indicator, in closed form.

    sigma_eta = (1/d) * int_{|h| < 1} |h|^2 dh = |S^{d-1}| / (d (d+2))
    beta_eta  =         int_{|h| < 1} dh       = |S^{d-1}| / d
    """
    d = k.dim
    area = _sphere_area(d)
    return (area / d) / (d + 2), area / d


@dataclass
class WeightedGraph:
    """Point cloud plus sparse symmetric edge weights and degrees.

    Self-loops are included (they cancel identically in L = D - W).  A
    ``disconnected`` flag is set instead of failing: models with tau > 0
    remain solvable on disconnected graphs.
    """

    cloud: PointCloud
    weights: sp.csr_matrix
    degrees: np.ndarray
    s_n: float
    disconnected: bool = False

    @property
    def n(self) -> int:
        return self.cloud.n


@dataclass(frozen=True)
class NeighborPairs:
    """Point pairs i < j of a cloud within ``radius``, sorted by (i, j),
    with their distances.

    One range search at the largest radius of an epsilon sweep serves every
    graph of the sweep: `EpsilonSweep` takes the pairs within each kernel's
    epsilon.
    """

    radius: float
    i: np.ndarray
    j: np.ndarray
    dists: np.ndarray


def neighbor_pairs(cloud: PointCloud, radius: float) -> NeighborPairs:
    """Fixed-radius range search, sorted by node index."""
    pts = cloud.points
    pairs = cKDTree(pts).query_pairs(radius, output_type="ndarray")
    i, j = np.divmod(np.sort(pairs[:, 0] * cloud.n + pairs[:, 1]), cloud.n)
    dists = np.linalg.norm(pts[i] - pts[j], axis=1)
    return NeighborPairs(radius=radius, i=i, j=j, dists=dists)


def _weights(n: int, k: Kernel, neighbors: NeighborPairs) -> tuple[sp.csr_matrix, np.ndarray]:
    """Symmetric CSR weights (self-loops included) from the pairs within
    epsilon, and the degrees."""
    i, j, dists = neighbors.i, neighbors.j, neighbors.dists
    if k.epsilon < neighbors.radius:
        inside = dists <= k.epsilon
        i, j, dists = i[inside], j[inside], dists[inside]
    vals = k.weight(dists)
    keep = vals > 0
    i, j, vals = i[keep], j[keep], vals[keep]
    loop = k.weight(np.zeros(n))
    # lower triangle, diagonal, upper triangle: with pairs sorted by (i, j)
    # every row's columns arrive in ascending order, so the CSR matrix needs
    # no index sort
    diag = np.arange(n)
    rows = np.concatenate([j, diag, i])
    cols = np.concatenate([i, diag, j])
    data = np.concatenate([vals, loop, vals])
    W = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    return W, np.asarray(W.sum(axis=1)).ravel()


def _warn_disconnected() -> None:
    warnings.warn("graph is disconnected; tau=0 models are ill-posed", stacklevel=3)


def build_graph(cloud: PointCloud, k: Kernel) -> WeightedGraph:
    """Assemble the weighted graph by a range search at radius epsilon.

    Weights are stored as a symmetric CSR matrix built from the upper
    triangle so that W = W^T holds bit-exactly.
    """
    n = cloud.n
    W, degrees = _weights(n, k, neighbor_pairs(cloud, k.epsilon))

    sigma_eta, _ = kernel_constants(k)
    s_n = 2.0 / (sigma_eta * n * k.epsilon ** 2)

    ncomp, _ = connected_components(W, directed=False)
    disconnected = ncomp > 1
    if disconnected:
        _warn_disconnected()
    return WeightedGraph(
        cloud=cloud, weights=W, degrees=degrees, s_n=s_n, disconnected=disconnected,
    )


def laplacian(g: WeightedGraph, normalized: bool = False) -> sp.csr_matrix:
    """Unnormalized L = D - W or normalized L = I - D^{-1/2} W D^{-1/2}."""
    if not normalized:
        return (sp.diags(g.degrees) - g.weights).tocsr()
    if np.any(g.degrees <= 0):
        raise ValueError("normalized Laplacian undefined: isolated vertex with zero degree")
    dinv = sp.diags(1.0 / np.sqrt(g.degrees))
    n = g.n
    return (sp.identity(n, format="csr") - dinv @ g.weights @ dinv).tocsr()


# above this nonzero fraction of s_n L + tau^2 I, a dense assembly and
# Cholesky beat the pair filter, CSR assembly and sparse LU: measured near
# 0.017 at n = 400 and 0.026 at n = 1600, where more is at stake
_DENSE_FILL = 0.025


class EpsilonSweep:
    """The scaled Laplacians s_n L of one cloud's graphs over an epsilon sweep.

    What does not depend on epsilon is computed once: the pairs within the
    largest epsilon, the n x n distance matrix (the formula of
    `neighbor_pairs`, so every weight is the one `build_graph` computes), the
    kernel moments, and the longest edge of a minimum spanning tree of the
    pairs.  The kernels of a sweep may differ only in epsilon.
    """

    def __init__(self, cloud: PointCloud, kernels):
        first = kernels[0]
        if any(k.dim != first.dim for k in kernels):
            raise ValueError("the kernels of a sweep may differ only in epsilon")
        n = cloud.n
        self.cloud = cloud
        self.neighbors = nb = neighbor_pairs(cloud, max(k.epsilon for k in kernels))
        pts = cloud.points
        self.dists = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        self.sigma_eta, _ = kernel_constants(first)
        self._sorted = np.sort(nb.dists)
        # csgraph reads a zero distance as a missing edge
        mst = minimum_spanning_tree(sp.csr_matrix(
            (np.maximum(nb.dists, np.finfo(float).tiny), (nb.i, nb.j)), shape=(n, n)))
        # a graph is connected iff it has this edge: every graph of the sweep
        # holds the pairs up to some distance; inf when the pairs leave the
        # cloud in pieces
        self._bottleneck = mst.data.max(initial=0.0) if mst.nnz == n - 1 else math.inf

    def scaled_laplacian(self, k: Kernel) -> np.ndarray | sp.csr_matrix:
        """s_n L for kernel ``k``: a dense symmetric array when s_n L + tau^2 I
        fills more than `_DENSE_FILL`, else the CSR matrix of
        `laplacian(build_graph(...)) * s_n`, bit for bit.  Warns as
        `build_graph` does when the graph is disconnected."""
        def has_edge(d):
            # the predicate of `_weights`
            return k.weight(np.array([d]))[0] > 0

        n = self.cloud.n
        disconnected = not has_edge(self._bottleneck)
        if disconnected:
            _warn_disconnected()
        s_n = 2.0 / (self.sigma_eta * n * k.epsilon ** 2)
        edges = bisect.bisect_left(self._sorted, True, key=lambda d: not has_edge(d))
        if n + 2 * edges <= _DENSE_FILL * n * n:
            W, degrees = _weights(n, k, self.neighbors)
            g = WeightedGraph(cloud=self.cloud, weights=W, degrees=degrees,
                              s_n=s_n, disconnected=disconnected)
            return laplacian(g) * s_n
        W = k.weight(self.dists)
        # L = D - W: the off-diagonal weights keep their bits; the degrees are
        # summed in another order than the CSR rows, so the diagonal agrees
        # to a few ulp
        diag = (W.sum(axis=1) - W.diagonal()) * s_n
        W *= -s_n
        np.fill_diagonal(W, diag)
        return W


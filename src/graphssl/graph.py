"""Epsilon-neighborhood weighted graphs and their Laplacians.

A graph is built from an n x d array of points and a bandwidth epsilon; d is
read from the array.  Edge weights are w_ij = eps^{-d} eta(|x_i - x_j| / eps)
for the indicator profile eta = 1 on [0, 1).  The scale factor
s_n = 2 / (sigma_eta * n * eps^2) makes the scaled discrete Dirichlet energy
comparable with its continuum counterpart.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


def _sphere_area(d: int) -> float:
    """Surface area of the unit sphere S^{d-1}."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def _weight(dist: np.ndarray, eps: float, d: int) -> np.ndarray:
    """eta_eps(dist) = eps^{-d} eta(dist/eps) in dimension d."""
    return eps ** (-d) * (dist / eps < 1.0)


def kernel_constants(d: int) -> tuple[float, float]:
    """Kernel moments (sigma_eta, beta_eta) of the indicator in dimension d,
    in closed form.

    sigma_eta = (1/d) * int_{|h| < 1} |h|^2 dh = |S^{d-1}| / (d (d+2))
    beta_eta  =         int_{|h| < 1} dh       = |S^{d-1}| / d
    """
    area = _sphere_area(d)
    return (area / d) / (d + 2), area / d


@dataclass
class WeightedGraph:
    """The n x d points plus sparse symmetric edge weights and degrees.

    Self-loops are included (they cancel identically in L = D - W).  A
    disconnected graph warns instead of failing: models with tau > 0 remain
    solvable on disconnected graphs.
    """

    points: np.ndarray
    weights: sp.csr_matrix
    degrees: np.ndarray
    s_n: float

    @property
    def n(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class NeighborPairs:
    """Point pairs i < j within ``radius``, sorted by (i, j), with their
    distances.

    One range search at the largest epsilon of a sweep serves every graph of
    the sweep: `EpsilonSweep` takes the pairs within each epsilon.
    """

    radius: float
    i: np.ndarray
    j: np.ndarray
    dists: np.ndarray


def neighbor_pairs(points: np.ndarray, radius: float) -> NeighborPairs:
    """Fixed-radius range search over the rows of ``points``, sorted by node
    index."""
    from scipy.spatial import cKDTree

    n = len(points)
    pairs = cKDTree(points).query_pairs(radius, output_type="ndarray")
    i, j = np.divmod(np.sort(pairs[:, 0] * n + pairs[:, 1]), n)
    dists = np.linalg.norm(points[i] - points[j], axis=1)
    return NeighborPairs(radius=radius, i=i, j=j, dists=dists)


def _weights(n: int, d: int, eps: float,
             neighbors: NeighborPairs) -> tuple[sp.csr_matrix, np.ndarray]:
    """Symmetric CSR weights (self-loops included) of n points in dimension d
    from the pairs within epsilon, and the degrees."""
    i, j, dists = neighbors.i, neighbors.j, neighbors.dists
    if eps < neighbors.radius:
        inside = dists <= eps
        i, j, dists = i[inside], j[inside], dists[inside]
    vals = _weight(dists, eps, d)
    keep = vals > 0
    i, j, vals = i[keep], j[keep], vals[keep]
    loop = _weight(np.zeros(n), eps, d)
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


def build_graph(points: np.ndarray, epsilon: float) -> WeightedGraph:
    """Assemble the weighted graph of the n x d ``points`` by a range search
    at radius epsilon.

    Weights are stored as a symmetric CSR matrix built from the upper
    triangle so that W = W^T holds bit-exactly.
    """
    from scipy.sparse.csgraph import connected_components

    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    n, d = points.shape
    W, degrees = _weights(n, d, epsilon, neighbor_pairs(points, epsilon))

    sigma_eta, _ = kernel_constants(d)
    s_n = 2.0 / (sigma_eta * n * epsilon ** 2)

    ncomp, _ = connected_components(W, directed=False)
    if ncomp > 1:
        _warn_disconnected()
    return WeightedGraph(points=points, weights=W, degrees=degrees, s_n=s_n)


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
    """The scaled Laplacians s_n L of the graphs of one n x d array of points
    over a sweep of ``epsilons``.

    What does not depend on epsilon is computed once: the pairs within the
    largest epsilon, the n x n distance matrix (the formula of
    `neighbor_pairs`, so every weight is the one `build_graph` computes), the
    kernel moments, and the longest edge of a minimum spanning tree of the
    pairs.
    """

    def __init__(self, points: np.ndarray, epsilons):
        from scipy.sparse.csgraph import minimum_spanning_tree

        if not min(epsilons) > 0:
            raise ValueError("epsilon must be positive")
        n, self.dim = points.shape
        self.points = points
        self.neighbors = nb = neighbor_pairs(points, max(epsilons))
        self.dists = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
        self.sigma_eta, _ = kernel_constants(self.dim)
        self._sorted = np.sort(nb.dists)
        # csgraph reads a zero distance as a missing edge
        mst = minimum_spanning_tree(sp.csr_matrix(
            (np.maximum(nb.dists, np.finfo(float).tiny), (nb.i, nb.j)), shape=(n, n)))
        # a graph is connected iff it has this edge: every graph of the sweep
        # holds the pairs up to some distance; inf when the pairs leave the
        # cloud in pieces
        self._bottleneck = mst.data.max(initial=0.0) if mst.nnz == n - 1 else math.inf

    def scaled_laplacian(self, epsilon: float) -> np.ndarray | sp.csr_matrix:
        """s_n L at ``epsilon``, at most the sweep's largest: a dense symmetric
        array when s_n L + tau^2 I fills more than `_DENSE_FILL`, else the CSR
        matrix of `laplacian(build_graph(...)) * s_n`, bit for bit.  Warns as
        `build_graph` does when the graph is disconnected."""
        if not 0 < epsilon <= self.neighbors.radius:
            raise ValueError(f"epsilon = {epsilon} lies outside (0, {self.neighbors.radius}]")

        def has_edge(dist):
            # the predicate of `_weights`
            return _weight(np.array([dist]), epsilon, self.dim)[0] > 0

        n = len(self.points)
        if not has_edge(self._bottleneck):
            _warn_disconnected()
        s_n = 2.0 / (self.sigma_eta * n * epsilon ** 2)
        edges = bisect.bisect_left(self._sorted, True, key=lambda d: not has_edge(d))
        if n + 2 * edges <= _DENSE_FILL * n * n:
            W, degrees = _weights(n, self.dim, epsilon, self.neighbors)
            g = WeightedGraph(points=self.points, weights=W, degrees=degrees, s_n=s_n)
            return laplacian(g) * s_n
        W = _weight(self.dists, epsilon, self.dim)
        # L = D - W: the off-diagonal weights keep their bits; the degrees are
        # summed in another order than the CSR rows, so the diagonal agrees
        # to a few ulp
        diag = (W.sum(axis=1) - W.diagonal()) * s_n
        W *= -s_n
        np.fill_diagonal(W, diag)
        return W


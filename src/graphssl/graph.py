"""Epsilon-neighborhood weighted graphs and their Laplacians.

Edge weights are w_ij = eps^{-d} eta(|x_i - x_j| / eps) for a nonincreasing
profile eta.  The scale factor s_n = 2 / (sigma_eta * n * eps^2) makes the
scaled discrete Dirichlet energy comparable with its continuum counterpart.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.integrate
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree
from scipy.spatial import cKDTree

from graphssl.density import PointCloud


class KernelValidationError(ValueError):
    """Raised when a kernel profile violates the admissibility conditions."""


def _sphere_area(d: int) -> float:
    """Surface area of the unit sphere S^{d-1}."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


@dataclass(frozen=True)
class Kernel:
    """Radial weight profile with bandwidth epsilon.

    ``profile`` is either the string "indicator" (eta = 1 on [0,1)) or a
    nonincreasing callable on [0, inf).  ``support`` bounds the profile's
    support in profile units.  A profile with unbounded support may pass
    ``support=inf``: `radius` then cuts it at t = 1, for the graphs and for
    their kernel moments alike.
    """

    epsilon: float
    dim: int = 2
    profile: str | Callable[[np.ndarray], np.ndarray] = "indicator"
    support: float = 1.0

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.validate()

    def eta(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.profile == "indicator":
            return (t < 1.0).astype(float)
        return np.asarray(self.profile(t), dtype=float)

    def validate(self) -> None:
        """Numerical check of the admissibility conditions (K1-K3)."""
        if self.profile == "indicator":
            return
        t = np.linspace(0.0, min(self.support, 50.0), 2048)
        vals = self.eta(t)
        if self.eta(np.array([0.0]))[0] <= 0:
            raise KernelValidationError("eta(0) must be positive")
        if np.any(np.diff(vals) > 1e-12):
            raise KernelValidationError("eta must be nonincreasing")
        # second moment must be finite
        tail, _ = scipy.integrate.quad(
            lambda r: self.eta(np.array([r]))[0] * r ** (self.dim + 1),
            0.0, min(self.support, np.inf), limit=200,
        )
        if not np.isfinite(tail):
            raise KernelValidationError("second radial moment diverges")

    @property
    def radius(self) -> float:
        """Neighbor-search radius: epsilon times the profile support."""
        return self.epsilon * (self.support if np.isfinite(self.support) else 1.0)

    def weight(self, dist: np.ndarray) -> np.ndarray:
        """eta_eps(dist) = eps^{-d} eta(dist/eps)."""
        return self.epsilon ** (-self.dim) * self.eta(dist / self.epsilon)


def kernel_constants(k: Kernel) -> tuple[float, float]:
    """Kernel moments (sigma_eta, beta_eta) by adaptive radial quadrature.

    sigma_eta = (1/d) * int_{|h| < R} eta(|h|) |h|^2 dh
    beta_eta  =         int_{|h| < R} eta(|h|) dh

    with R = k.radius / k.epsilon, the cut that the graphs' pair search makes.
    """
    d = k.dim
    area = _sphere_area(d)
    upper = k.radius / k.epsilon

    def f_sigma(r):
        return k.eta(np.array([r]))[0] * r ** (d + 1)

    def f_beta(r):
        return k.eta(np.array([r]))[0] * r ** (d - 1)

    sig, sig_err = scipy.integrate.quad(f_sigma, 0.0, upper, epsrel=1e-10, limit=400)
    bet, bet_err = scipy.integrate.quad(f_beta, 0.0, upper, epsrel=1e-10, limit=400)
    if not (np.isfinite(sig) and np.isfinite(bet)) or sig <= 0 or bet <= 0:
        raise KernelValidationError("divergent or degenerate kernel moments")
    return (area / d) * sig, area * bet


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
    epsilon: float
    s_n: float
    sigma_eta: float
    disconnected: bool = False
    _lap: sp.csr_matrix | None = field(default=None, init=False, repr=False)

    @property
    def n(self) -> int:
        return self.cloud.n


@dataclass(frozen=True)
class NeighborPairs:
    """Point pairs i < j of a cloud within ``radius``, sorted by (i, j),
    with their distances.

    One range search at the largest radius of an epsilon sweep serves every
    graph of the sweep: `EpsilonSweep` takes the pairs within each kernel's
    radius.
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
    """Symmetric CSR weights (self-loops included) from the pairs within the
    kernel's radius, and the degrees."""
    i, j, dists = neighbors.i, neighbors.j, neighbors.dists
    if k.radius < neighbors.radius:
        inside = dists <= k.radius
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
    """Assemble the weighted graph by fixed-radius range search.

    The search radius is epsilon times the profile support.  Weights are
    stored as a symmetric CSR matrix built from the upper triangle so that
    W = W^T holds bit-exactly.
    """
    n = cloud.n
    W, degrees = _weights(n, k, neighbor_pairs(cloud, k.radius))

    sigma_eta, _ = kernel_constants(k)
    s_n = 2.0 / (sigma_eta * n * k.epsilon ** 2)

    ncomp, _ = connected_components(W, directed=False)
    disconnected = ncomp > 1
    if disconnected:
        _warn_disconnected()
    return WeightedGraph(
        cloud=cloud, weights=W, degrees=degrees, epsilon=k.epsilon,
        s_n=s_n, sigma_eta=sigma_eta, disconnected=disconnected,
    )


def laplacian(g: WeightedGraph, normalized: bool = False) -> sp.csr_matrix:
    """Unnormalized L = D - W or normalized L = I - D^{-1/2} W D^{-1/2}."""
    if not normalized:
        if g._lap is None:
            g._lap = (sp.diags(g.degrees) - g.weights).tocsr()
        return g._lap
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
    largest radius, the n x n distance matrix (the formula of
    `neighbor_pairs`, so every weight is the one `build_graph` computes), the
    kernel moments, and the longest edge of a minimum spanning tree of the
    pairs.  The kernels of a sweep may differ only in epsilon.
    """

    def __init__(self, cloud: PointCloud, kernels):
        first = kernels[0]
        if any((k.dim, k.profile, k.support) != (first.dim, first.profile, first.support)
               for k in kernels):
            raise ValueError("the kernels of a sweep may differ only in epsilon")
        n = cloud.n
        self.cloud = cloud
        self.neighbors = nb = neighbor_pairs(cloud, max(k.radius for k in kernels))
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
            return d <= k.radius and k.weight(np.array([d]))[0] > 0

        n = self.cloud.n
        disconnected = not has_edge(self._bottleneck)
        if disconnected:
            _warn_disconnected()
        s_n = 2.0 / (self.sigma_eta * n * k.epsilon ** 2)
        edges = bisect.bisect_left(self._sorted, True, key=lambda d: not has_edge(d))
        if n + 2 * edges <= _DENSE_FILL * n * n:
            W, degrees = _weights(n, k, self.neighbors)
            g = WeightedGraph(cloud=self.cloud, weights=W, degrees=degrees,
                              epsilon=k.epsilon, s_n=s_n, sigma_eta=self.sigma_eta,
                              disconnected=disconnected)
            return laplacian(g) * s_n
        W = k.weight(self.dists)
        if k.profile != "indicator":
            # an indicator weight is already 0 beyond the radius
            W[self.dists > k.radius] = 0.0
        # L = D - W: the off-diagonal weights keep their bits; the degrees are
        # summed in another order than the CSR rows, so the diagonal agrees
        # to a few ulp
        diag = (W.sum(axis=1) - W.diagonal()) * s_n
        W *= -s_n
        np.fill_diagonal(W, diag)
        return W


def default_epsilon(n: int, d: int = 2) -> float:
    """Connectivity-scale bandwidth for smoke tests: 2 (log n / n)^{1/d}."""
    return 2.0 * (math.log(n) / n) ** (1.0 / d)

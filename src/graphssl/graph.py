"""Epsilon-neighborhood weighted graphs and their Laplacians.

Edge weights are w_ij = eps^{-d} eta(|x_i - x_j| / eps) for a nonincreasing
profile eta.  The scale factor s_n = 2 / (sigma_eta * n * eps^2) makes the
scaled discrete Dirichlet energy comparable with its continuum counterpart.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.integrate
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
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
    support in profile units; custom profiles with unbounded support may pass
    ``support=inf`` together with a finite ``cutoff`` used for neighbor search.
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

    sigma_eta = (1/d) * int_{R^d} eta(|h|) |h|^2 dh
    beta_eta  =         int_{R^d} eta(|h|) dh
    """
    d = k.dim
    area = _sphere_area(d)
    upper = k.support if np.isfinite(k.support) else np.inf

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
    _lap: sp.csr_matrix | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.cloud.n


@dataclass(frozen=True)
class NeighborPairs:
    """Point pairs i < j of a cloud within ``radius``, sorted by (i, j),
    with their distances.

    One range search at the largest radius of an epsilon sweep serves every
    graph of the sweep: `build_graph` takes the pairs within its own radius.
    """

    cloud: PointCloud
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
    return NeighborPairs(cloud=cloud, radius=radius, i=i, j=j, dists=dists)


def build_graph(cloud: PointCloud, k: Kernel,
                neighbors: NeighborPairs | None = None) -> WeightedGraph:
    """Assemble the weighted graph by fixed-radius range search.

    The search radius is epsilon times the profile support.  ``neighbors``,
    from `neighbor_pairs` on the same cloud at a radius at least as large,
    replaces the search.  Weights are stored as a symmetric CSR matrix built
    from the upper triangle so that W = W^T holds bit-exactly.
    """
    n = cloud.n
    radius = k.radius
    if neighbors is None:
        neighbors = neighbor_pairs(cloud, radius)
    elif neighbors.cloud is not cloud or neighbors.radius < radius:
        raise ValueError("neighbor pairs must come from the same cloud at a "
                         "radius at least the kernel's")
    i, j, dists = neighbors.i, neighbors.j, neighbors.dists
    if radius < neighbors.radius:
        inside = dists <= radius
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
    degrees = np.asarray(W.sum(axis=1)).ravel()

    sigma_eta, _ = kernel_constants(k)
    s_n = 2.0 / (sigma_eta * n * k.epsilon ** 2)

    ncomp, _ = connected_components(W, directed=False)
    disconnected = ncomp > 1
    if disconnected:
        warnings.warn("graph is disconnected; tau=0 models are ill-posed", stacklevel=2)
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


def default_epsilon(n: int, d: int = 2, multiplier: float = 2.0) -> float:
    """Connectivity-scale bandwidth for smoke tests: C * (log n / n)^{1/d}."""
    return multiplier * (math.log(n) / n) ** (1.0 / d)

"""Finite-volume Neumann discretization of the weighted elliptic operator.

The operator is L u = -(1/rho) div(rho^2 grad u) with zero-flux boundary
conditions on the unit box, discretized on a uniform cell-centered grid.
Fluxes use rho^2 at face midpoints and 1/rho at cell centers, which makes the
matrix symmetric in the rho-weighted inner product by construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from graphssl.density import Density
from graphssl.spectral import EigenDecomposition, decompose


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on (0,1)^d with N cells per side."""

    dim: int
    N: int

    @property
    def h(self) -> float:
        return 1.0 / self.N

    @property
    def size(self) -> int:
        return self.N ** self.dim

    def coordinates(self) -> np.ndarray:
        """Node coordinates, shape (N^d, d), C-order over axes."""
        axis = (np.arange(self.N) + 0.5) * self.h
        mesh = np.meshgrid(*([axis] * self.dim), indexing="ij")
        return np.column_stack([m.ravel() for m in mesh])


@dataclass
class ContinuumOperator:
    """Assembled finite-volume operator together with its measure weights."""

    grid: Grid
    rho: Density
    matrix: sp.csr_matrix
    rho_at_nodes: np.ndarray
    _eig_cache: dict = field(default_factory=dict, init=False, repr=False)
    _factor: tuple | None = field(default=None, init=False, repr=False)

    @property
    def weights(self) -> np.ndarray:
        """Quadrature weights rho(x_i) h^d of the mu-weighted inner product."""
        return self.rho_at_nodes * self.grid.h ** self.grid.dim

    def eigendecomposition(self, m: int | None = None) -> EigenDecomposition:
        key = m if m is not None else self.grid.size
        if key not in self._eig_cache:
            self._eig_cache[key] = decompose(self.matrix, weights=self.weights, m=m)
        return self._eig_cache[key]

    def factor(self, alpha: int, tau: float):
        """The `PoweredFactor` of (matrix, alpha, tau).  On the uniform density
        it is a `CosineFactor`, which solves by the cosine transform; every
        other density keeps sparse LU, whose roundoff sets the signs of the
        channel's near-zero nodes.  Only the last one built is kept: a loop
        over alpha holds one factorization at a time."""
        from graphssl.models import CosineFactor, PoweredFactor

        if self._factor is None or self._factor[0] != (alpha, tau):
            factor = (CosineFactor(self.grid, self.matrix, alpha, tau)
                      if self.rho.kind == "uniform" else PoweredFactor(self.matrix, alpha, tau))
            self._factor = ((alpha, tau), factor)
        return self._factor[1]


def uniform_spectrum(grid: Grid) -> np.ndarray:
    """Eigenvalues of the uniform-density operator, shape (N,) * d.

    On the uniform density the flux form is the Neumann 5-point (in 3-D
    7-point) Laplacian, which the orthonormal DCT-II diagonalizes: the mode
    with index k has eigenvalue sum over axes of (4/h^2) sin^2(pi k_axis / 2N).
    Entry k is that eigenvalue, unsorted; entry 0 is exactly 0.
    """
    axis = (4.0 / grid.h ** 2) * np.sin(np.pi * np.arange(grid.N) / (2 * grid.N)) ** 2
    return sum(np.meshgrid(*([axis] * grid.dim), indexing="ij"))


def discretize(rho: Density, N: int) -> ContinuumOperator:
    """Assemble the flux-form discretization on an N^d cell-centered grid."""
    if N < 8:
        raise ValueError("N must be at least 8")
    d = rho.dim
    grid = Grid(dim=d, N=N)
    h = grid.h
    coords = grid.coordinates()
    rho_nodes = np.asarray(rho(coords))

    n = grid.size
    shape = (N,) * d
    idx = np.arange(n).reshape(shape)

    rows, cols, data = [], [], []
    inv_rho = 1.0 / rho_nodes
    for axis in range(d):
        # faces between cells (i, i+1) along this axis
        sl_lo = [slice(None)] * d
        sl_hi = [slice(None)] * d
        sl_lo[axis] = slice(0, N - 1)
        sl_hi[axis] = slice(1, N)
        i_lo = idx[tuple(sl_lo)].ravel()
        i_hi = idx[tuple(sl_hi)].ravel()
        face_mid = 0.5 * (coords[i_lo] + coords[i_hi])
        rho_face_sq = np.asarray(rho(face_mid)) ** 2
        # flux contribution: (L u)_i += -(1/rho_i) * rho_f^2 * (u_j - u_i) / h^2
        c = rho_face_sq / h ** 2
        rows.extend([i_lo, i_lo, i_hi, i_hi])
        cols.extend([i_lo, i_hi, i_hi, i_lo])
        data.extend([c * inv_rho[i_lo], -c * inv_rho[i_lo],
                     c * inv_rho[i_hi], -c * inv_rho[i_hi]])

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    data = np.concatenate(data)
    L = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    return ContinuumOperator(grid=grid, rho=rho, matrix=L, rho_at_nodes=rho_nodes)


def interpolate_to_points(grid: Grid, values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Multilinear interpolation from cell centers to arbitrary points.

    Values are clamped at the boundary (constant extrapolation within the
    half-cell margin next to each face).
    """
    pts = np.atleast_2d(points)
    d, N, h = grid.dim, grid.N, grid.h
    vals = np.asarray(values).reshape((N,) * d)

    # fractional index relative to cell centers, clamped to [0, N-1]
    t = np.clip(pts / h - 0.5, 0.0, N - 1.0)
    i0 = np.minimum(t.astype(int), N - 2)
    frac = t - i0

    out = np.zeros(pts.shape[0])
    for corner in itertools.product((0, 1), repeat=d):
        weight = np.ones(pts.shape[0])
        index = []
        for ax, c in enumerate(corner):
            weight *= frac[:, ax] if c else (1.0 - frac[:, ax])
            index.append(i0[:, ax] + c)
        out += weight * vals[tuple(index)]
    return out


def fiedler_vector(op: ContinuumOperator, m: int, positive_at: tuple):
    """Eigenfunction of the second-smallest eigenvalue, from the ``m``
    smallest eigenpairs (at least 3).

    Returns (vector, degenerate_flag).  When lambda_2 and lambda_3 coincide
    to a relative 1e-8 the flag is set and the returned vector is one member of
    the eigenspace.  The sign is normalized so that the interpolated value at
    ``positive_at``, a point in the box, is not negative.
    """
    eig = op.eigendecomposition(m=max(m, 3))
    lam = eig.eigenvalues
    q2 = eig.vectors[:, 1].copy()
    degenerate = abs(lam[2] - lam[1]) <= 1e-8 * max(1.0, abs(lam[1]))
    if interpolate_to_points(op.grid, q2, np.atleast_2d(positive_at))[0] < 0:
        q2 = -q2
    return q2, degenerate

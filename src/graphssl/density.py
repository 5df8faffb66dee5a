"""Sampling densities on the unit box and i.i.d. point clouds as n x d arrays.

All densities live on Omega = (0,1)^d and are normalized to integrate to one.
Three families are supported: uniform, a "channel" density that dips to a
value h on a vertical strip, and a two-moons density concentrating mass on
two arcs with a fixed contrast ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np


class DomainError(ValueError):
    """Raised when a point lies outside the closure of the domain."""


# Channel profile geometry: value h on a centered strip, unit value outside,
# linear ramps joining the two levels.  The floor keeps the density strictly
# positive even at h = 0 so the weighted elliptic operator stays uniformly
# elliptic.
CHANNEL_RAMP = 0.02
CHANNEL_FLOOR = 1e-3


def _channel_profile(x1: np.ndarray, h: float, width: float) -> np.ndarray:
    """Cross-section of the channel density in the first coordinate."""
    h = max(float(h), CHANNEL_FLOOR)
    t = np.abs(np.asarray(x1, dtype=float) - 0.5)
    half = width / 2.0
    out = np.ones_like(t)
    inside = t <= half
    ramp = (t > half) & (t < half + CHANNEL_RAMP)
    out[inside] = h
    out[ramp] = h + (1.0 - h) * (t[ramp] - half) / CHANNEL_RAMP
    return out


def _arc_distance(pts: np.ndarray, center: np.ndarray, radius: float, upper: bool) -> np.ndarray:
    """Distance from points to a half-circle arc.

    ``upper`` selects the upper semicircle (angles in [0, pi]); otherwise the
    lower semicircle.  Points whose radial projection misses the arc are
    measured against the nearest arc endpoint.
    """
    rel = pts - center
    r = np.hypot(rel[:, 0], rel[:, 1])
    on_side = rel[:, 1] >= 0 if upper else rel[:, 1] <= 0
    d_radial = np.abs(r - radius)
    # endpoints at angle 0 and pi
    e0 = center + np.array([radius, 0.0])
    e1 = center + np.array([-radius, 0.0])
    d_end = np.minimum(
        np.hypot(pts[:, 0] - e0[0], pts[:, 1] - e0[1]),
        np.hypot(pts[:, 0] - e1[0], pts[:, 1] - e1[1]),
    )
    return np.where(on_side, d_radial, d_end)


def _bump(t: np.ndarray) -> np.ndarray:
    """Compactly supported C^1 bump, equal to 1 at t=0 and 0 for |t| >= 1."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    m = np.abs(t) < 1.0
    out[m] = (1.0 - t[m] ** 2) ** 2
    return out


@dataclass(frozen=True)
class Density:
    """A normalized probability density on (0,1)^d.

    kind is one of "uniform", "channel", "two_moons".  ``normalization``,
    computed on construction, is the integral of the unnormalized density
    over the box; evaluations divide by it.
    """

    kind: str
    dim: int = 2
    h: float = 1.0
    width: float = 0.1
    normalization: float = field(init=False)
    # two-moons geometry: arc radius and centers, the peak-to-floor density
    # ratio, and the width of the bump around each arc
    radius: ClassVar[float] = 0.25
    centers: ClassVar[tuple] = ((0.35, 0.45), (0.65, 0.55))
    contrast: ClassVar[float] = 100.0
    bandwidth: ClassVar[float] = 0.04

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if self.kind not in ("uniform", "channel", "two_moons"):
            raise ValueError(f"unknown density kind {self.kind!r}")
        if self.kind == "two_moons" and self.dim != 2:
            raise ValueError("two_moons density is only defined for d=2")
        object.__setattr__(self, "normalization", self._integral())

    # -- unnormalized evaluation ------------------------------------------

    def _raw(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.kind == "uniform":
            return np.ones(pts.shape[0])
        if self.kind == "channel":
            return _channel_profile(pts[:, 0], self.h, self.width)
        c0 = np.asarray(self.centers[0], dtype=float)
        c1 = np.asarray(self.centers[1], dtype=float)
        d0 = _arc_distance(pts, c0, self.radius, upper=True)
        d1 = _arc_distance(pts, c1, self.radius, upper=False)
        d = np.minimum(d0, d1)
        return 1.0 + (self.contrast - 1.0) * _bump(d / self.bandwidth)

    def _integral(self) -> float:
        """Integral of the unnormalized density over the box.

        Composite 4-point Gauss-Legendre quadrature on 256 cells per side; the
        channel density's integral factorizes, so only x1 needs quadrature.
        """
        if self.kind == "uniform":
            return 1.0
        nodes, weights = np.polynomial.legendre.leggauss(4)
        edges = np.linspace(0.0, 1.0, 257)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 / 256
        x = (mid[:, None] + half * nodes[None, :]).ravel()
        w = np.tile(half * weights, 256)
        if self.kind == "channel":
            vals = _channel_profile(x, self.h, self.width)
            return float(np.sum(w * vals))
        # two moons: 1 wherever the bump is 0, so evaluate only the grid
        # rectangles that cover each arc's bounding box widened by the bandwidth
        vals = np.ones((len(x), len(x)))
        bw, reach = self.bandwidth, self.radius + self.bandwidth
        for (cx, cy), upper in zip(self.centers, (True, False)):
            lo, hi = (cy - bw, cy + reach) if upper else (cy - reach, cy + bw)
            rows = (x >= cx - reach) & (x <= cx + reach)
            cols = (x >= lo) & (x <= hi)
            xx, yy = np.meshgrid(x[rows], x[cols], indexing="ij")
            near = self._raw(np.column_stack([xx.ravel(), yy.ravel()]))
            vals[np.ix_(rows, cols)] = near.reshape(xx.shape)
        return float(w @ vals @ w)

    # -- public API --------------------------------------------------------

    def __call__(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.shape[1] != self.dim:
            raise DomainError(f"points have dimension {pts.shape[1]}, expected {self.dim}")
        if np.any(pts < 0.0) or np.any(pts > 1.0):
            raise DomainError("point outside the closed unit box")
        return self._raw(pts) / self.normalization

    @property
    def upper_bound(self) -> float:
        """An upper bound on the unnormalized density (rejection envelope)."""
        if self.kind == "uniform":
            return 1.0
        if self.kind == "channel":  # the larger of the profile's two levels
            return max(1.0, self.h)
        return self.contrast


def sample_cloud(rho: Density, n: int, seed: int) -> np.ndarray:
    """Draw n i.i.d. points by rejection against the uniform envelope; returns
    them as an n x d array.

    Reproducible: the same (rho, n, seed) yields the identical points.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    envelope = rho.upper_bound
    out = np.empty((n, rho.dim))
    filled = 0
    while filled < n:
        batch = max(n - filled, 1024)
        cand = rng.uniform(0.0, 1.0, size=(batch, rho.dim))
        accept = rng.uniform(0.0, envelope, size=batch) < rho._raw(cand)
        cand = cand[accept]
        # keep points strictly interior
        interior = np.all((cand > 0.0) & (cand < 1.0), axis=1)
        cand = cand[interior]
        take = min(len(cand), n - filled)
        out[filled:filled + take] = cand[:take]
        filled += take
    return out

"""Labelling models, the sign function, and the fidelity weight.

Labelling model 1 labels every sampled point falling in one of two separated
balls (fidelity weight r_n = 1/n); labelling model 2 prepends a fixed set
of labeled points to the cloud (r_n = 1).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from graphssl.density import PointCloud


@dataclass(frozen=True)
class Ball:
    center: tuple
    radius: float

    def contains(self, pts: np.ndarray) -> np.ndarray:
        c = np.asarray(self.center, dtype=float)
        return np.linalg.norm(pts - c, axis=1) <= self.radius

    def distance(self, other: Ball) -> float:
        gap = np.linalg.norm(np.asarray(self.center) - np.asarray(other.center))
        return gap - self.radius - other.radius


@dataclass(frozen=True)
class Model1Spec:
    """Region labelling: the positive ball and the negative ball."""
    omega_plus: Ball
    omega_minus: Ball


@dataclass(frozen=True)
class Model2Spec:
    """Fixed labeled points with signs, prepended to the cloud."""
    points: np.ndarray
    signs: np.ndarray


@dataclass(frozen=True)
class LabelSet:
    """Labeled index set Z', labels y in {-1,+1}, and fidelity weight r_n."""

    model: int
    indices: np.ndarray
    y: np.ndarray
    r_n: float

    @property
    def size(self) -> int:
        return len(self.indices)


class LabelValidationError(ValueError):
    pass


def region_labels(spec: Model1Spec, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the points lying in a model-1 spec's regions, and their
    labels: +1 in omega_plus, -1 in omega_minus.  Separation is not checked."""
    in_plus = spec.omega_plus.contains(pts)
    in_minus = spec.omega_minus.contains(pts)
    idx = np.flatnonzero(in_plus | in_minus)
    return idx, np.where(in_plus[idx], 1.0, -1.0)


def assign_labels(cloud: PointCloud, spec) -> tuple[PointCloud, LabelSet]:
    """Apply a labelling model; returns the (possibly augmented) cloud and labels.

    Model 1 leaves the cloud unchanged and labels points falling in the
    regions; model 2 prepends the fixed labeled points, which then take part
    in graph construction identically to sampled points.
    """
    if isinstance(spec, Model1Spec):
        if spec.omega_plus.distance(spec.omega_minus) <= 0:
            raise LabelValidationError("labelled regions must have positive separation")
        idx, y = region_labels(spec, cloud.points)
        if len(idx) == 0:
            warnings.warn("no samples fell in the labelled regions", stacklevel=2)
        return cloud, LabelSet(model=1, indices=idx, y=y, r_n=1.0 / cloud.n)

    if isinstance(spec, Model2Spec):
        fixed = np.atleast_2d(np.asarray(spec.points, dtype=float))
        signs = np.asarray(spec.signs, dtype=float)
        if len(fixed) != len(signs) or not np.all(np.abs(signs) == 1):
            raise LabelValidationError("model 2 needs one sign in {-1,+1} per fixed point")
        pts = np.vstack([fixed, cloud.points])
        new_cloud = PointCloud(points=pts, seed=cloud.seed)
        idx = np.arange(len(fixed))
        return new_cloud, LabelSet(model=2, indices=idx, y=signs, r_n=1.0)

    raise TypeError(f"unknown labelling spec {type(spec)!r}")


def sign(u: np.ndarray) -> np.ndarray:
    """Elementwise sign with S(0) = 0."""
    return np.sign(np.asarray(u, dtype=float))

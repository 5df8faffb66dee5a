import numpy as np
import pytest

from graphssl.density import Density, PointCloud, sample_cloud
from graphssl.labels import (
    Ball,
    LabelValidationError,
    Model1Spec,
    Model2Spec,
    assign_labels,
    sign,
)


class TestRegions:
    def test_ball_contains(self):
        b = Ball((0.5, 0.5), 0.1)
        pts = np.array([[0.5, 0.55], [0.5, 0.65]])
        assert list(b.contains(pts)) == [True, False]

    def test_ball_ball_distance(self):
        a, b = Ball((0.0, 0.0), 0.1), Ball((1.0, 0.0), 0.2)
        assert a.distance(b) == pytest.approx(0.7)


class TestModel1:
    def test_labels_and_fidelity_weight(self):
        cloud = sample_cloud(Density("uniform"), 500, seed=0)
        spec = Model1Spec(omega_plus=Ball((0.25, 0.25), 0.1),
                          omega_minus=Ball((0.75, 0.75), 0.1))
        out_cloud, labels = assign_labels(cloud, spec)
        assert out_cloud is cloud  # cloud unchanged
        assert labels.model == 1
        assert labels.r_n == pytest.approx(1.0 / 500)
        assert labels.size > 0
        in_plus = Ball((0.25, 0.25), 0.1).contains(cloud.points[labels.indices])
        assert np.array_equal(labels.y, np.where(in_plus, 1.0, -1.0))

    def test_overlapping_regions_rejected(self):
        cloud = sample_cloud(Density("uniform"), 50, seed=0)
        spec = Model1Spec(omega_plus=Ball((0.4, 0.4), 0.2),
                          omega_minus=Ball((0.6, 0.6), 0.2))
        with pytest.raises(LabelValidationError):
            assign_labels(cloud, spec)

    def test_empty_region_warns(self):
        cloud = PointCloud(points=np.array([[0.9, 0.9]]), seed=0)
        spec = Model1Spec(omega_plus=Ball((0.1, 0.1), 0.01),
                          omega_minus=Ball((0.3, 0.3), 0.01))
        with pytest.warns(UserWarning, match="no samples"):
            assign_labels(cloud, spec)


class TestModel2:
    def test_prepends_fixed_points(self):
        cloud = sample_cloud(Density("uniform"), 100, seed=1)
        spec = Model2Spec(points=np.array([[0.2, 0.2], [0.8, 0.8]]),
                          signs=np.array([1.0, -1.0]))
        new_cloud, labels = assign_labels(cloud, spec)
        assert new_cloud.n == 102
        assert np.array_equal(new_cloud.points[:2], spec.points)
        assert labels.model == 2 and labels.r_n == 1.0
        assert np.array_equal(labels.indices, [0, 1])
        assert np.array_equal(labels.y, [1.0, -1.0])

    def test_invalid_signs_rejected(self):
        cloud = sample_cloud(Density("uniform"), 10, seed=1)
        spec = Model2Spec(points=np.array([[0.2, 0.2]]), signs=np.array([0.5]))
        with pytest.raises(LabelValidationError):
            assign_labels(cloud, spec)

    def test_unknown_spec_type(self):
        cloud = sample_cloud(Density("uniform"), 10, seed=1)
        with pytest.raises(TypeError):
            assign_labels(cloud, object())


def test_sign_convention():
    assert np.array_equal(sign(np.array([-2.0, 0.0, 3.0])), [-1.0, 0.0, 1.0])

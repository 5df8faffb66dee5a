import numpy as np
import pytest

from graphssl.density import Density, sample_cloud
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
        points = sample_cloud(Density("uniform"), 500, seed=0)
        spec = Model1Spec(omega_plus=Ball((0.25, 0.25), 0.1),
                          omega_minus=Ball((0.75, 0.75), 0.1))
        out_points, labels = assign_labels(points, spec)
        assert out_points is points  # points unchanged
        assert labels.r_n == pytest.approx(1.0 / 500)
        assert labels.size > 0
        in_plus = Ball((0.25, 0.25), 0.1).contains(points[labels.indices])
        assert np.array_equal(labels.y, np.where(in_plus, 1.0, -1.0))

    def test_overlapping_regions_rejected(self):
        points = sample_cloud(Density("uniform"), 50, seed=0)
        spec = Model1Spec(omega_plus=Ball((0.4, 0.4), 0.2),
                          omega_minus=Ball((0.6, 0.6), 0.2))
        with pytest.raises(LabelValidationError):
            assign_labels(points, spec)

    def test_overlapping_regions_rejected_on_grid_nodes(self):
        # the continuum path labels grid nodes through region_labels
        from graphssl.continuum import discretize
        from graphssl.models import continuum_labeled_nodes
        spec = Model1Spec(omega_plus=Ball((0.25, 0.25), 0.4),
                          omega_minus=Ball((0.75, 0.75), 0.4))
        with pytest.raises(LabelValidationError, match="separation"):
            continuum_labeled_nodes(discretize(Density("uniform"), 8), spec)

    def test_empty_region_warns(self):
        points = np.array([[0.9, 0.9]])
        spec = Model1Spec(omega_plus=Ball((0.1, 0.1), 0.01),
                          omega_minus=Ball((0.3, 0.3), 0.01))
        with pytest.warns(UserWarning, match="no samples"):
            assign_labels(points, spec)


class TestModel2:
    def test_prepends_fixed_points(self):
        points = sample_cloud(Density("uniform"), 100, seed=1)
        spec = Model2Spec(points=np.array([[0.2, 0.2], [0.8, 0.8]]),
                          signs=np.array([1.0, -1.0]))
        new_points, labels = assign_labels(points, spec)
        assert len(new_points) == 102
        assert np.array_equal(new_points[:2], spec.points)
        assert labels.r_n == 1.0
        assert np.array_equal(labels.indices, [0, 1])
        assert np.array_equal(labels.y, [1.0, -1.0])

    def test_invalid_signs_rejected(self):
        # refused when the spec is built, before any cloud or grid sees it
        with pytest.raises(LabelValidationError, match="sign"):
            Model2Spec(points=np.array([[0.2, 0.2]]), signs=np.array([0.5]))
        with pytest.raises(LabelValidationError, match="sign"):
            Model2Spec(points=np.array([[0.2, 0.2]]), signs=np.array([1.0, -1.0]))

    @pytest.mark.parametrize("point", [[1.5, 0.5], [0.5, -0.01], [np.nan, 0.5]])
    def test_point_outside_unit_box_rejected(self, point):
        with pytest.raises(LabelValidationError, match="unit box"):
            Model2Spec(points=np.array([[0.2, 0.2], point]), signs=np.array([1.0, -1.0]))

    def test_closed_box_boundary_accepted(self):
        spec = Model2Spec(points=np.array([[0.0, 1.0], [1.0, 0.0]]),
                          signs=np.array([1.0, -1.0]))
        assert spec.points.shape == (2, 2)

    def test_unknown_spec_type(self):
        points = sample_cloud(Density("uniform"), 10, seed=1)
        with pytest.raises(TypeError):
            assign_labels(points, object())


def test_sign_convention():
    assert np.array_equal(sign(np.array([-2.0, 0.0, 3.0])), [-1.0, 0.0, 1.0])

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from graphssl.density import (
    CHANNEL_FLOOR,
    CHANNEL_RAMP,
    Density,
    DomainError,
    sample_cloud,
    _channel_profile,
)


def _marginal_cdf_x1(rho):
    """CDF of the first coordinate under rho, by the trapezoid rule on 4097
    points of [0, 1] (and a 4096-point midpoint rule in x2 for two moons)."""
    m = 4096
    x = np.linspace(0.0, 1.0, m + 1)
    if rho.kind == "channel":
        pdf = _channel_profile(x, rho.h, rho.width) / rho.normalization
    elif rho.kind == "uniform":
        pdf = np.ones_like(x)
    else:
        y = np.linspace(0.5 / m, 1.0 - 0.5 / m, m)
        pdf = np.empty_like(x)
        for i, xi in enumerate(x):
            pts = np.column_stack([np.full(m, xi), y])
            pdf[i] = np.mean(rho._raw(pts)) / rho.normalization
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[:-1] + pdf[1:]) * np.diff(x))])
    cdf /= cdf[-1]
    return lambda q: np.interp(q, x, cdf)


class TestChannelProfile:
    def test_h_one_is_uniform(self):
        x = np.linspace(0.0, 1.0, 257)
        assert np.allclose(_channel_profile(x, 1.0, 0.1), 1.0)
        rho = Density("channel", h=1.0)
        assert np.allclose(rho(np.column_stack([x, x])), 1.0)

    def test_strip_and_outside_levels(self):
        rho = Density("channel", h=0.3, width=0.1)
        inside = rho(np.array([0.5, 0.4]))
        outside = rho(np.array([0.1, 0.9]))
        # unnormalized values are h inside and 1 outside
        assert inside * rho.normalization == pytest.approx(0.3)
        assert outside * rho.normalization == pytest.approx(1.0)

    def test_ramp_is_linear_between_levels(self):
        h, width = 0.2, 0.1
        t = 0.5 + width / 2 + CHANNEL_RAMP / 2  # midpoint of the ramp
        val = _channel_profile(np.array([t]), h, width)[0]
        assert val == pytest.approx(h + (1.0 - h) / 2)

    def test_floor_keeps_density_positive_at_h_zero(self):
        rho = Density("channel", h=0.0)
        assert rho(np.array([0.5, 0.5])) >= CHANNEL_FLOOR / 2

    def test_constant_in_second_coordinate(self):
        rho = Density("channel", h=0.4)
        ys = np.linspace(0.0, 1.0, 9)
        vals = rho(np.column_stack([np.full(9, 0.5), ys]))
        assert np.allclose(vals, vals[0])


class TestNormalization:
    @pytest.mark.parametrize("rho", [
        Density("channel", h=0.25),
        Density("channel", h=0.0),
        Density("two_moons"),
    ])
    def test_integrates_to_one(self, rho):
        # midpoint quadrature on a fine grid as an independent check
        m = 512
        x = (np.arange(m) + 0.5) / m
        xx, yy = np.meshgrid(x, x, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        integral = np.mean(rho(pts))
        assert integral == pytest.approx(1.0, rel=2e-3)

    def test_uniform_is_exactly_one(self):
        rho = Density("uniform")
        assert rho.normalization == 1.0
        assert rho(np.array([0.3, 0.9])) == 1.0


class TestTwoMoons:
    def test_normalization_matches_the_full_grid(self):
        # the normalization evaluates the density only near the arcs; off
        # them the value is exactly 1, so the full quadrature grid gives the
        # same bits
        rho = Density("two_moons")
        nodes, weights = np.polynomial.legendre.leggauss(4)
        edges = np.linspace(0.0, 1.0, 257)
        mid = 0.5 * (edges[:-1] + edges[1:])
        x = (mid[:, None] + (0.5 / 256) * nodes[None, :]).ravel()
        w = np.tile((0.5 / 256) * weights, 256)
        xx, yy = np.meshgrid(x, x, indexing="ij")
        vals = rho._raw(np.column_stack([xx.ravel(), yy.ravel()])).reshape(len(x), len(x))
        assert rho.normalization == float(w @ vals @ w)

    def test_contrast_on_vs_off_curve(self):
        rho = Density("two_moons")
        on_arc = np.asarray(rho.centers[0]) + np.array([0.0, rho.radius])
        off = np.array([0.05, 0.05])
        ratio = rho(on_arc) / rho(off)
        assert ratio == pytest.approx(rho.contrast, rel=1e-9)

    def test_dim_restriction(self):
        with pytest.raises(ValueError):
            Density("two_moons", dim=3)


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Density("gaussian")

    def test_point_outside_box(self):
        rho = Density("uniform")
        with pytest.raises(DomainError):
            rho(np.array([[1.5, 0.5]]))

    def test_wrong_dimension(self):
        rho = Density("uniform", dim=3)
        with pytest.raises(DomainError):
            rho(np.array([[0.5, 0.5]]))


class TestSampling:
    def test_reproducible(self):
        rho = Density("channel", h=0.3)
        a = sample_cloud(rho, 500, seed=3)
        b = sample_cloud(rho, 500, seed=3)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample_cloud(rho, 500, seed=4))

    def test_points_strictly_interior(self):
        cloud = sample_cloud(Density("uniform"), 2000, seed=0)
        assert np.all(cloud > 0.0) and np.all(cloud < 1.0)

    @pytest.mark.parametrize("rho", [
        Density("uniform"),
        Density("channel", h=0.2),
        Density("two_moons"),
    ])
    def test_marginal_ks(self, rho):
        cloud = sample_cloud(rho, 4000, seed=11)
        cdf = _marginal_cdf_x1(rho)
        stat = kstest(cloud[:, 0], cdf)
        assert stat.pvalue > 1e-3

    def test_channel_strip_mass_binomial(self):
        # empirical mass in the strip vs quadrature of the density, 3-sigma
        rho = Density("channel", h=0.1)
        n = 100_000
        cloud = sample_cloud(rho, n, seed=5)
        half = rho.width / 2
        x = np.linspace(0.5 - half, 0.5 + half, 20001)
        p_strip = np.trapezoid(_channel_profile(x, rho.h, rho.width), x) / rho.normalization
        hits = np.sum(np.abs(cloud[:, 0] - 0.5) <= half)
        sigma = np.sqrt(n * p_strip * (1 - p_strip))
        assert abs(hits - n * p_strip) <= 3 * sigma

    def test_channel_deeper_than_one_keeps_its_strip_mass(self):
        # at h > 1 the profile peaks at h, so the rejection envelope must
        # reach h: a cap at 1 put 10 % of the points in a strip of mass 24 %
        rho = Density("channel", h=3.0)
        n = 200_000
        cloud = sample_cloud(rho, n, seed=5)
        half = rho.width / 2
        x = np.linspace(0.5 - half, 0.5 + half, 20001)
        p_strip = np.trapezoid(_channel_profile(x, rho.h, rho.width), x) / rho.normalization
        hits = np.sum(np.abs(cloud[:, 0] - 0.5) <= half)
        assert abs(hits - n * p_strip) <= 4 * np.sqrt(n * p_strip * (1 - p_strip))

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            sample_cloud(Density("uniform"), 0, seed=0)


@settings(deadline=None, max_examples=50)
@given(h=st.floats(0.0, 1.0), x=st.floats(0.0, 1.0))
def test_channel_profile_bounded(h, x):
    v = _channel_profile(np.array([x]), h, 0.1)[0]
    assert max(h, CHANNEL_FLOOR) - 1e-12 <= v <= 1.0 + 1e-12

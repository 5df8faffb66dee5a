import numpy as np
import pytest

from graphssl.continuum import (Grid, discretize, fiedler_vector, interpolate_to_points,
                                uniform_spectrum)
from graphssl.density import Density
from graphssl.spectral import decompose


def _inner(op, a, b):
    """The rho-weighted inner product of grid functions a and b."""
    return float(np.sum(a * b * op.weights))


def neumann_1d_eigenvalues(N):
    """Exact eigenvalues of the cell-centered Neumann second-difference matrix."""
    k = np.arange(N)
    return (4.0 * N ** 2) * np.sin(k * np.pi / (2 * N)) ** 2


class TestUniformSpectrum:
    def test_matches_separable_exact_values(self):
        # the flux-form operator with constant density is the Kronecker sum of
        # 1D Neumann second-difference matrices with known eigenvalues
        N = 16
        op = discretize(Density("uniform"), N)
        lam1 = neumann_1d_eigenvalues(N)
        ref = np.sort((lam1[:, None] + lam1[None, :]).ravel())
        eig = op.eigendecomposition()
        assert np.allclose(eig.eigenvalues, ref, rtol=1e-8, atol=1e-6)

    @pytest.mark.parametrize("dim, N", [(2, 16), (3, 8)])
    def test_closed_form_matches_dense_eigensolve(self, dim, N):
        op = discretize(Density("uniform", dim=dim), N)
        lam = np.sort(uniform_spectrum(op.grid), axis=None)
        dense = decompose(op.matrix, weights=op.weights).eigenvalues
        assert lam[0] == 0.0
        assert np.max(np.abs(lam[1:] - dense[1:]) / lam[1:]) <= 1e-12

    def test_low_modes_near_analytic(self):
        # first nonzero eigenvalues approximate pi^2 (i^2 + j^2)
        op = discretize(Density("uniform"), 64)
        eig = op.eigendecomposition(m=6)
        analytic = np.array([0.0, np.pi ** 2, np.pi ** 2, 2 * np.pi ** 2,
                             4 * np.pi ** 2, 4 * np.pi ** 2])
        assert np.allclose(eig.eigenvalues, analytic, rtol=2e-3, atol=1e-8)

    def test_d3_low_modes(self):
        op = discretize(Density("uniform", dim=3), 12)
        eig = op.eigendecomposition(m=4)
        analytic = np.array([0.0, np.pi ** 2, np.pi ** 2, np.pi ** 2])
        assert np.allclose(eig.eigenvalues, analytic, rtol=6e-3, atol=1e-8)


class TestOperatorStructure:
    def test_symmetric_in_weighted_inner_product(self):
        op = discretize(Density("channel", h=0.3), 24)
        rng = np.random.default_rng(0)
        u, v = rng.standard_normal((2, op.grid.size))
        lhs = _inner(op, op.matrix @ u, v)
        rhs = _inner(op, u, op.matrix @ v)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_annihilates_constants(self):
        op = discretize(Density("channel", h=0.3), 24)
        assert np.allclose(op.matrix @ np.ones(op.grid.size), 0.0, atol=1e-8)

    def test_weights_sum_to_density_mass(self):
        op = discretize(Density("two_moons"), 32)
        assert op.weights.sum() == pytest.approx(1.0, rel=1e-2)

    def test_minimum_resolution(self):
        with pytest.raises(ValueError):
            discretize(Density("uniform"), 4)


class TestInterpolation:
    def test_exact_on_multilinear(self):
        grid = Grid(dim=2, N=32)
        coords = grid.coordinates()
        f = 2.0 + 3.0 * coords[:, 0] - coords[:, 1] + 0.5 * coords[:, 0] * coords[:, 1]
        rng = np.random.default_rng(1)
        pts = rng.uniform(grid.h, 1 - grid.h, size=(50, 2))  # inside the center hull
        ref = 2.0 + 3.0 * pts[:, 0] - pts[:, 1] + 0.5 * pts[:, 0] * pts[:, 1]
        assert np.allclose(interpolate_to_points(grid, f, pts), ref, rtol=1e-12)

    def test_boundary_clamping(self):
        grid = Grid(dim=2, N=8)
        f = grid.coordinates()[:, 0]
        val = interpolate_to_points(grid, f, np.array([[0.0, 0.5]]))[0]
        assert val == pytest.approx(grid.h / 2)  # clamped to first cell center


class TestFiedler:
    def test_uniform_box_is_degenerate(self):
        op = discretize(Density("uniform"), 24)
        _, degenerate = fiedler_vector(op)
        assert degenerate  # lambda_2 = lambda_3 by symmetry

    def test_channel_sign_split_at_half(self):
        # deep channel: the second eigenfunction separates left from right
        op = discretize(Density("channel", h=0.0), 32)
        vec, degenerate = fiedler_vector(op, positive_at=(0.25, 0.5))
        assert not degenerate
        coords = op.grid.coordinates()
        left = coords[:, 0] < 0.5 - op.rho.width
        right = coords[:, 0] > 0.5 + op.rho.width
        assert np.all(vec[left] > 0) and np.all(vec[right] < 0)

    def test_sign_normalization(self):
        op = discretize(Density("channel", h=0.0), 32)
        v1, _ = fiedler_vector(op, positive_at=(0.25, 0.5))
        v2, _ = fiedler_vector(op, positive_at=(0.75, 0.5))
        assert np.allclose(v1, -v2)

    @pytest.mark.parametrize("modes", [20, 150])  # ARPACK and dense eigh
    def test_more_modes_give_the_same_vector(self, modes):
        # mcmc-moons takes the Fiedler pair from its chains' decomposition
        op = discretize(Density("two_moons"), 32)
        few, deg_few = fiedler_vector(op, m=8, positive_at=(0.35, 0.70))
        many, deg_many = fiedler_vector(op, m=modes, positive_at=(0.35, 0.70))
        assert deg_few == deg_many and not deg_many
        assert np.max(np.abs(few - many)) <= 1e-10

    @pytest.mark.parametrize("modes", [20, 150])
    def test_more_modes_same_degenerate_eigenspace(self, modes):
        # lambda_2 = lambda_3: each call returns some member of the eigenspace,
        # so the vectors themselves need not agree
        op = discretize(Density("uniform"), 32)
        lam2 = op.eigendecomposition(m=8).eigenvalues[1]
        for m in (8, modes):
            vec, degenerate = fiedler_vector(op, m=m, positive_at=(0.35, 0.70))
            assert degenerate
            assert _inner(op, vec, vec) == pytest.approx(1.0, rel=1e-10)
            assert np.max(np.abs(op.matrix @ vec - lam2 * vec)) <= 1e-8 * lam2

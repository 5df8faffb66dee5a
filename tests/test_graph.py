import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from graphssl.density import Density, sample_cloud
from graphssl.graph import (
    EpsilonSweep,
    build_graph,
    kernel_constants,
    laplacian,
)


class TestKernelConstants:
    def test_indicator_d2(self):
        # sigma = (1/2) int_{|h|<1} |h|^2 dh = pi/4;  beta = pi
        sigma, beta = kernel_constants(2)
        assert sigma == math.pi / 4
        assert beta == pytest.approx(math.pi, rel=1e-15)

    def test_indicator_d3(self):
        # sigma = (1/3)(4 pi / 5);  beta = 4 pi / 3
        sigma, beta = kernel_constants(3)
        assert sigma == 4 * math.pi / 15
        assert beta == pytest.approx(4 * math.pi / 3, rel=1e-15)


class TestKernelValidation:
    def test_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            build_graph(np.array([[0.1, 0.1], [0.2, 0.2]]), 0.0)


class TestBuildGraph:
    def test_weights_match_brute_force(self):
        cloud = sample_cloud(Density("uniform"), 60, seed=2)
        eps = 0.3
        g = build_graph(cloud, eps)
        dists = np.linalg.norm(cloud[:, None, :] - cloud[None, :, :], axis=2)
        W_ref = eps ** -2 * (dists / eps < 1.0)
        assert np.allclose(g.weights.toarray(), W_ref, atol=1e-12)

    def test_symmetry_bit_exact(self):
        cloud = sample_cloud(Density("uniform"), 150, seed=3)
        g = build_graph(cloud, 0.2)
        diff = (g.weights - g.weights.T)
        assert diff.nnz == 0

    def test_degrees_are_row_sums(self):
        cloud = sample_cloud(Density("uniform"), 100, seed=4)
        g = build_graph(cloud, 0.25)
        assert np.allclose(g.degrees, np.asarray(g.weights.sum(axis=1)).ravel())

    def test_scale_factor_formula(self):
        cloud = sample_cloud(Density("uniform"), 100, seed=4)
        eps = 0.25
        g = build_graph(cloud, eps)
        assert g.s_n == pytest.approx(2.0 / ((math.pi / 4) * 100 * eps ** 2))

    def test_disconnected_warning(self):
        pts = np.array([[0.1, 0.1], [0.12, 0.1], [0.9, 0.9]])
        with pytest.warns(UserWarning, match="disconnected"):
            g = build_graph(pts, 0.05)
        assert g.disconnected

    def test_no_pairs_leaves_self_loops(self):
        pts = np.array([[0.1, 0.1], [0.5, 0.5], [0.9, 0.9]])
        with pytest.warns(UserWarning, match="disconnected"):
            g = build_graph(pts, 0.05)
        assert g.weights.nnz == 3
        assert np.allclose(g.weights.diagonal(), 0.05 ** -2)

    def test_three_dimensional_cloud(self):
        # d = 3 is read from the points: weights eps^-3, sigma_3 = 4 pi / 15
        cloud = sample_cloud(Density("uniform", dim=3), 200, seed=5)
        eps = 0.3
        g = build_graph(cloud, eps)
        dists = np.linalg.norm(cloud[:, None, :] - cloud[None, :, :], axis=2)
        assert np.array_equal(g.weights.toarray(), eps ** -3 * (dists / eps < 1.0))
        assert np.all(g.weights.data == eps ** -3)
        assert g.s_n == pytest.approx(2.0 / ((4 * math.pi / 15) * 200 * eps ** 2), rel=1e-15)


def _sweep_and_graphs(cloud, epsilons):
    """Each epsilon's (sweep operator, disconnected warning raised, graph)."""
    sweep = EpsilonSweep(cloud, epsilons)
    out = []
    for eps in epsilons:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            op = sweep.scaled_laplacian(eps)
            g = build_graph(cloud, eps)
        flags = ["disconnected" in str(w.message) for w in caught]
        assert len(flags) in (0, 2)  # both warn or neither
        out.append((op, bool(flags), g))
    return out


class TestEpsilonSweep:
    """The sweep's operators against `laplacian(build_graph(...)) * s_n`."""

    def test_operators_match_build_graph(self):
        cloud = sample_cloud(Density("uniform"), 300, seed=6)
        epsilons = np.linspace(0.02, 0.5, 25)
        dense = 0
        for op, _, g in _sweep_and_graphs(cloud, epsilons):
            ref = laplacian(g) * g.s_n
            # the nonzero fraction of s_n L + tau^2 I picks the branch
            fill = (ref.nnz - np.count_nonzero(ref.diagonal()) + g.n) / g.n ** 2
            assert sp.issparse(op) == (fill <= 0.025)
            if sp.issparse(op):
                # the sparse branch is today's CSR matrix, bit for bit
                assert np.array_equal(op.indptr, ref.indptr)
                assert np.array_equal(op.indices, ref.indices)
                assert np.array_equal(op.data, ref.data)
                continue
            dense += 1
            ref = ref.toarray()
            assert np.array_equal(op, op.T)
            off = ~np.eye(g.n, dtype=bool)
            # every weight is the one build_graph computes
            assert np.array_equal(op[off], ref[off])
            # the degrees are summed in another order: the diagonal agrees to
            # a few ulp of s_n times the degree (measured: at most 6)
            diag_error = np.abs(np.diag(op) - np.diag(ref))
            assert np.all(diag_error <= 16 * np.spacing(g.s_n * g.degrees))
        assert 0 < dense < len(epsilons)

    def test_disconnected_flag_matches_build_graph(self):
        # two clumps at least 0.85 apart: every graph of the sweep is
        # disconnected, and the large-epsilon ones are dense within each clump
        rng = np.random.default_rng(3)
        pts = np.vstack([0.2 * rng.random((60, 2)), 0.8 + 0.2 * rng.random((60, 2))])
        clumps = pts
        uniform = sample_cloud(Density("uniform"), 200, seed=9)
        for cloud in (clumps, uniform):
            results = _sweep_and_graphs(cloud, np.linspace(0.01, 0.5, 30))
            for op, warned, g in results:
                assert warned == g.disconnected
            flags = [warned for _, warned, _ in results]
            if cloud is clumps:
                assert all(flags)
                assert any(isinstance(op, np.ndarray) for op, _, _ in results)
            else:
                assert any(flags) and not all(flags)

    def test_epsilon_outside_the_sweep_rejected(self):
        cloud = sample_cloud(Density("uniform"), 50, seed=7)
        with pytest.raises(ValueError, match="positive"):
            EpsilonSweep(cloud, [0.0, 0.2])
        sweep = EpsilonSweep(cloud, [0.1, 0.2])
        # beyond the largest epsilon the sweep holds too few pairs
        for eps in (-0.1, 0.0, 0.25):
            with pytest.raises(ValueError, match="outside"):
                sweep.scaled_laplacian(eps)


class TestLaplacian:
    def test_annihilates_constants(self):
        cloud = sample_cloud(Density("uniform"), 80, seed=6)
        g = build_graph(cloud, 0.3)
        L = laplacian(g)
        assert np.allclose(L @ np.ones(80), 0.0, atol=1e-10)

    def test_positive_semidefinite(self):
        cloud = sample_cloud(Density("uniform"), 80, seed=6)
        g = build_graph(cloud, 0.3)
        lam = np.linalg.eigvalsh(laplacian(g).toarray())
        assert lam.min() >= -1e-8 * lam.max()

    def test_quadratic_form_identity(self):
        # u^T L u = 1/2 sum_ij w_ij (u_i - u_j)^2
        cloud = sample_cloud(Density("uniform"), 50, seed=7)
        g = build_graph(cloud, 0.3)
        rng = np.random.default_rng(0)
        u = rng.standard_normal(50)
        W = g.weights.toarray()
        ref = 0.5 * np.sum(W * (u[:, None] - u[None, :]) ** 2)
        assert u @ (laplacian(g) @ u) == pytest.approx(ref, rel=1e-10)

    def test_normalized_spectrum_range(self):
        cloud = sample_cloud(Density("uniform"), 80, seed=8)
        g = build_graph(cloud, 0.3)
        lam = np.linalg.eigvalsh(laplacian(g, normalized=True).toarray())
        assert lam.min() >= -1e-10 and lam.max() <= 2.0 + 1e-10

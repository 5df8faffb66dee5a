import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from graphssl.density import Density, PointCloud, sample_cloud
from graphssl.graph import (
    EpsilonSweep,
    Kernel,
    KernelValidationError,
    build_graph,
    default_epsilon,
    kernel_constants,
    laplacian,
    neighbor_pairs,
)


class TestKernelConstants:
    def test_indicator_d2(self):
        # sigma = (1/2) int_{|h|<1} |h|^2 dh = pi/4;  beta = pi
        sigma, beta = kernel_constants(Kernel(epsilon=0.1, dim=2))
        assert sigma == pytest.approx(math.pi / 4, rel=1e-9)
        assert beta == pytest.approx(math.pi, rel=1e-9)

    def test_indicator_d3(self):
        # sigma = (1/3)(4 pi / 5);  beta = 4 pi / 3
        sigma, beta = kernel_constants(Kernel(epsilon=0.1, dim=3))
        assert sigma == pytest.approx(4 * math.pi / 15, rel=1e-9)
        assert beta == pytest.approx(4 * math.pi / 3, rel=1e-9)

    def test_smooth_profile_quadrature(self):
        # eta(t) = (1 - t^2)_+ in d=2: sigma = pi/12, beta = pi/2
        k = Kernel(epsilon=0.1, dim=2,
                   profile=lambda t: np.clip(1 - t ** 2, 0, None), support=1.0)
        sigma, beta = kernel_constants(k)
        assert sigma == pytest.approx(math.pi / 12, rel=1e-8)
        assert beta == pytest.approx(math.pi / 2, rel=1e-8)


class TestKernelValidation:
    def test_increasing_profile_rejected(self):
        with pytest.raises(KernelValidationError):
            Kernel(epsilon=0.1, profile=lambda t: t, support=1.0)

    def test_zero_at_origin_rejected(self):
        with pytest.raises(KernelValidationError):
            Kernel(epsilon=0.1, profile=lambda t: np.zeros_like(t), support=1.0)

    def test_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            Kernel(epsilon=0.0)


class TestBuildGraph:
    def test_weights_match_brute_force(self):
        cloud = sample_cloud(Density("uniform"), 60, seed=2)
        k = Kernel(epsilon=0.3, dim=2)
        g = build_graph(cloud, k)
        pts = cloud.points
        dists = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        W_ref = k.weight(dists)
        assert np.allclose(g.weights.toarray(), W_ref, atol=1e-12)

    def test_symmetry_bit_exact(self):
        cloud = sample_cloud(Density("uniform"), 150, seed=3)
        g = build_graph(cloud, Kernel(epsilon=0.2, dim=2))
        diff = (g.weights - g.weights.T)
        assert diff.nnz == 0

    def test_degrees_are_row_sums(self):
        cloud = sample_cloud(Density("uniform"), 100, seed=4)
        g = build_graph(cloud, Kernel(epsilon=0.25, dim=2))
        assert np.allclose(g.degrees, np.asarray(g.weights.sum(axis=1)).ravel())

    def test_scale_factor_formula(self):
        cloud = sample_cloud(Density("uniform"), 100, seed=4)
        eps = 0.25
        g = build_graph(cloud, Kernel(epsilon=eps, dim=2))
        assert g.s_n == pytest.approx(2.0 / ((math.pi / 4) * 100 * eps ** 2))

    def test_disconnected_warning(self):
        pts = np.array([[0.1, 0.1], [0.12, 0.1], [0.9, 0.9]])
        cloud = PointCloud(points=pts, seed=0)
        with pytest.warns(UserWarning, match="disconnected"):
            g = build_graph(cloud, Kernel(epsilon=0.05, dim=2))
        assert g.disconnected

    # the Gaussian profile has unbounded support: the search radius alone
    # truncates it, so a shared search must cut its pairs at each radius
    @pytest.mark.filterwarnings("ignore:graph is disconnected")
    @pytest.mark.parametrize("profile, support", [
        ("indicator", 1.0), (lambda t: np.exp(-t ** 2), math.inf)])
    def test_shared_neighbors_bit_identical(self, profile, support):
        # one range search at the largest radius serves an epsilon sweep
        cloud = sample_cloud(Density("uniform"), 300, seed=6)
        kernels = [Kernel(epsilon=eps, dim=2, profile=profile, support=support)
                   for eps in np.linspace(0.02, 0.5, 25)]
        neighbors = neighbor_pairs(cloud, max(k.radius for k in kernels))
        for k in kernels:
            g = build_graph(cloud, k)
            shared = build_graph(cloud, k, neighbors)
            assert shared.weights.has_canonical_format
            for a, b in ((g.weights.indptr, shared.weights.indptr),
                         (g.weights.indices, shared.weights.indices),
                         (g.weights.data, shared.weights.data),
                         (g.degrees, shared.degrees)):
                assert np.array_equal(a, b)

    def test_neighbors_must_match_cloud_and_cover_radius(self):
        cloud = sample_cloud(Density("uniform"), 50, seed=7)
        other = sample_cloud(Density("uniform"), 50, seed=8)
        neighbors = neighbor_pairs(cloud, 0.2)
        with pytest.raises(ValueError):
            build_graph(other, Kernel(epsilon=0.1, dim=2), neighbors)
        with pytest.raises(ValueError):
            build_graph(cloud, Kernel(epsilon=0.3, dim=2), neighbors)

    def test_no_pairs_leaves_self_loops(self):
        pts = np.array([[0.1, 0.1], [0.5, 0.5], [0.9, 0.9]])
        cloud = PointCloud(points=pts, seed=0)
        with pytest.warns(UserWarning, match="disconnected"):
            g = build_graph(cloud, Kernel(epsilon=0.05, dim=2))
        assert g.weights.nnz == 3
        assert np.allclose(g.weights.diagonal(), 0.05 ** -2)


def _sweep_and_graphs(cloud, kernels):
    """Each kernel's (sweep operator, disconnected warning raised, graph)."""
    sweep = EpsilonSweep(cloud, kernels)
    out = []
    for k in kernels:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            op = sweep.scaled_laplacian(k)
            g = build_graph(cloud, k)
        flags = ["disconnected" in str(w.message) for w in caught]
        assert len(flags) in (0, 2)  # both warn or neither
        out.append((op, bool(flags), g))
    return out


class TestEpsilonSweep:
    """The sweep's operators against `laplacian(build_graph(...)) * s_n`."""

    @pytest.mark.parametrize("profile, support", [
        ("indicator", 1.0), (lambda t: np.exp(-t ** 2), math.inf)])
    def test_operators_match_build_graph(self, profile, support):
        cloud = sample_cloud(Density("uniform"), 300, seed=6)
        kernels = [Kernel(epsilon=eps, dim=2, profile=profile, support=support)
                   for eps in np.linspace(0.02, 0.5, 25)]
        dense = 0
        for op, _, g in _sweep_and_graphs(cloud, kernels):
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
        assert 0 < dense < len(kernels)

    def test_disconnected_flag_matches_build_graph(self):
        # two clumps at least 0.85 apart: every graph of the sweep is
        # disconnected, and the large-epsilon ones are dense within each clump
        rng = np.random.default_rng(3)
        pts = np.vstack([0.2 * rng.random((60, 2)), 0.8 + 0.2 * rng.random((60, 2))])
        clumps = PointCloud(points=pts, seed=0)
        uniform = sample_cloud(Density("uniform"), 200, seed=9)
        for cloud in (clumps, uniform):
            kernels = [Kernel(epsilon=eps, dim=2) for eps in np.linspace(0.01, 0.5, 30)]
            results = _sweep_and_graphs(cloud, kernels)
            for op, warned, g in results:
                assert warned == g.disconnected
            flags = [warned for _, warned, _ in results]
            if cloud is clumps:
                assert all(flags)
                assert any(isinstance(op, np.ndarray) for op, _, _ in results)
            else:
                assert any(flags) and not all(flags)

    def test_kernels_may_differ_only_in_epsilon(self):
        cloud = sample_cloud(Density("uniform"), 50, seed=7)
        with pytest.raises(ValueError, match="only in epsilon"):
            EpsilonSweep(cloud, [Kernel(epsilon=0.1, dim=2), Kernel(epsilon=0.2, dim=3)])


class TestLaplacian:
    def test_annihilates_constants(self):
        cloud = sample_cloud(Density("uniform"), 80, seed=6)
        g = build_graph(cloud, Kernel(epsilon=0.3, dim=2))
        L = laplacian(g)
        assert np.allclose(L @ np.ones(80), 0.0, atol=1e-10)

    def test_positive_semidefinite(self):
        cloud = sample_cloud(Density("uniform"), 80, seed=6)
        g = build_graph(cloud, Kernel(epsilon=0.3, dim=2))
        lam = np.linalg.eigvalsh(laplacian(g).toarray())
        assert lam.min() >= -1e-8 * lam.max()

    def test_quadratic_form_identity(self):
        # u^T L u = 1/2 sum_ij w_ij (u_i - u_j)^2
        cloud = sample_cloud(Density("uniform"), 50, seed=7)
        g = build_graph(cloud, Kernel(epsilon=0.3, dim=2))
        rng = np.random.default_rng(0)
        u = rng.standard_normal(50)
        W = g.weights.toarray()
        ref = 0.5 * np.sum(W * (u[:, None] - u[None, :]) ** 2)
        assert u @ (laplacian(g) @ u) == pytest.approx(ref, rel=1e-10)

    def test_normalized_spectrum_range(self):
        cloud = sample_cloud(Density("uniform"), 80, seed=8)
        g = build_graph(cloud, Kernel(epsilon=0.3, dim=2))
        lam = np.linalg.eigvalsh(laplacian(g, normalized=True).toarray())
        assert lam.min() >= -1e-10 and lam.max() <= 2.0 + 1e-10


def test_default_epsilon_decreases_with_n():
    assert default_epsilon(1600) < default_epsilon(400)

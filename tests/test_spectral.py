import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from graphssl.density import Density, sample_cloud
from graphssl.graph import build_graph, laplacian
from graphssl.spectral import (
    DENSE_CUTOFF,
    EigenDecomposition,
    FractionalOperator,
    apply_power,
    decompose,
    decompose_graph,
    prior_std,
    quadratic_form,
    weyl_exponent,
)


def _random_graph_prior(n, seed, alpha=1.5, tau=0.7, eps=0.35):
    cloud = sample_cloud(Density("uniform"), n, seed=seed)
    g = build_graph(cloud, eps)
    eig = decompose_graph(g)
    return g, FractionalOperator(eig, alpha=alpha, tau=tau)


class TestDecompose:
    def test_weighted_orthonormal_columns(self):
        g, prior = _random_graph_prior(60, seed=1)
        eig = prior.eig
        gram = eig.vectors.T @ np.diag(eig.weights) @ eig.vectors
        assert np.allclose(gram, np.eye(eig.m), atol=1e-10)

    def test_reconstruct_coeffs_roundtrip(self):
        g, prior = _random_graph_prior(60, seed=1)
        eig = prior.eig
        rng = np.random.default_rng(2)
        u = rng.standard_normal(eig.vectors.shape[0])
        assert np.allclose(eig.vectors @ eig.coeffs(u), u, atol=1e-10)

    def test_sparse_lanczos_matches_dense(self):
        # few modes of a sparse operator route through shift-inverted ARPACK
        cloud = sample_cloud(Density("uniform"), 300, seed=3)
        g = build_graph(cloud, 0.15)
        L = laplacian(g)
        few = decompose(L, m=10)  # sparse, m <= n//8: iterative path
        full = decompose(L.toarray(), m=300)  # dense path
        assert np.allclose(few.eigenvalues, full.eigenvalues[:10],
                           rtol=1e-8, atol=1e-8)

    def test_too_many_modes_rejected(self):
        with pytest.raises(ValueError):
            decompose(np.eye(5), m=6)

    def test_full_spectrum_above_dense_cutoff_rejected(self, monkeypatch):
        # ARPACK cannot return every eigenpair: refused before it is called
        def eigsh(*args, **kwargs):
            raise AssertionError("eigsh called")

        monkeypatch.setattr(spla, "eigsh", eigsh)
        n = DENSE_CUTOFF + 1
        path = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                        [-1, 0, 1], format="csr")
        with pytest.raises(ValueError, match="DENSE_CUTOFF"):
            decompose(path, m=n)


class TestFractionalOperator:
    def test_parameter_validation(self):
        eig = EigenDecomposition(np.array([0.0, 1.0]), np.eye(2) * np.sqrt(2),
                                 np.full(2, 0.5))
        with pytest.raises(ValueError, match="alpha"):
            FractionalOperator(eig, alpha=0.0, tau=1.0)
        for tau in (0.0, -1.0):
            with pytest.raises(ValueError, match="tau must be positive"):
                FractionalOperator(eig, alpha=1.0, tau=tau)

    @pytest.mark.parametrize("p", [1.0, -0.5])
    def test_graph_prior_powers_scaled_laplacian(self, p):
        # decompose_graph scales the eigenvalues of L by s_n; a graph prior's
        # powers are then bit for bit (s_n clip(lambda, 0) + tau^2)^(alpha p)
        g, prior = _random_graph_prior(80, seed=11, alpha=1.5, tau=0.7)
        base = decompose(laplacian(g))
        ref = (g.s_n * np.clip(base.eigenvalues, 0, None) + 0.7 ** 2) ** (1.5 * p)
        assert np.array_equal(prior.powered(p), ref)
        assert np.array_equal(prior.eig.vectors, base.vectors)

    def test_matches_dense_matrix_power(self):
        # independent oracle: scipy fractional_matrix_power of the node matrix
        for seed, alpha, tau in [(0, 0.5, 0.5), (1, 1.0, 1.0), (2, 2.7, 0.3)]:
            g, prior = _random_graph_prior(40, seed=seed, alpha=alpha, tau=tau)
            M = g.s_n * laplacian(g).toarray() + tau ** 2 * np.eye(g.n)
            M_alpha = np.real(scipy.linalg.fractional_matrix_power(M, alpha))
            rng = np.random.default_rng(seed)
            u = rng.standard_normal(g.n)
            assert np.allclose(apply_power(prior, u, 1.0), M_alpha @ u,
                               rtol=1e-8, atol=1e-8 * np.abs(M_alpha @ u).max())
            J_ref = 0.5 / g.n * u @ (M_alpha @ u)
            assert quadratic_form(prior, u) == pytest.approx(J_ref, rel=1e-8)

    def test_half_power_composes(self):
        g, prior = _random_graph_prior(50, seed=5)
        rng = np.random.default_rng(6)
        u = rng.standard_normal(g.n)
        twice = apply_power(prior, apply_power(prior, u, 0.5), 0.5)
        assert np.allclose(twice, apply_power(prior, u, 1.0), rtol=1e-9)

    def test_inverse_power_with_tau(self):
        g, prior = _random_graph_prior(50, seed=5)
        rng = np.random.default_rng(7)
        u = rng.standard_normal(g.n)
        assert np.allclose(apply_power(prior, apply_power(prior, u, -1.0), 1.0), u,
                           rtol=1e-8, atol=1e-8)


class TestPriorSampling:
    def test_mode_variances_match(self):
        # the per-mode standard deviations that the samplers draw the prior
        # N(0, A^{-1}) with: (s_n lambda_k + tau^2)^(-alpha/2), lambda_k of L
        g, prior = _random_graph_prior(40, seed=9, tau=1.0)
        lam = np.clip(decompose(laplacian(g)).eigenvalues, 0, None)
        ref = (g.s_n * lam + 1.0) ** (-prior.alpha / 2)
        np.testing.assert_allclose(prior_std(prior), ref, rtol=1e-12)


class TestDiagnostics:
    def test_weyl_exact_power_law(self):
        k = np.arange(1, 101)
        lam = 3.0 * k ** 1.7
        assert weyl_exponent(lam, 2, 100) == pytest.approx(1.7, abs=1e-12)

    def test_weyl_validation(self):
        lam = np.arange(1.0, 50.0)
        with pytest.raises(ValueError):
            weyl_exponent(lam, 1, 40)  # must exclude k = 1
        with pytest.raises(ValueError):
            weyl_exponent(lam, 10, 12)  # too few points

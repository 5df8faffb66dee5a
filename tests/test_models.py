import math
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc, log_ndtr

import graphssl.models as models
from graphssl.continuum import discretize
from graphssl.density import Density, sample_cloud
from graphssl.graph import EpsilonSweep, Kernel, build_graph, laplacian
from graphssl.labels import Ball, Model1Spec, Model2Spec, assign_labels
from graphssl.models import (
    IndicatorPotential,
    LevelSetPotential,
    MapSolverError,
    PoweredFactor,
    ProbitPotential,
    _armijo,
    continuum_krige,
    continuum_labeled_nodes,
    continuum_probit_map,
    krige,
    levelset_objective,
    log_psi,
    probit_map,
    probit_objective,
    psi_ratio,
    sparse_krige,
    sparse_probit_map,
)
from graphssl.spectral import FractionalOperator, decompose, decompose_graph


def _prior(graph, alpha=2.0, tau=1.0):
    eig = decompose_graph(graph)
    return FractionalOperator(eig, alpha=alpha, tau=tau, scale=graph.s_n)


def _rel(u, ref):
    """Largest deviation relative to the largest reference value."""
    return float(np.max(np.abs(u - ref)) / np.max(np.abs(ref)))


class TestLogPsi:
    def test_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        zs = np.linspace(-30.0, 8.0, 200)
        ours = log_psi(zs, 1.0)
        refs = np.array([float(mp.log(mp.ncdf(mp.mpf(float(z))))) for z in zs])
        assert np.max(np.abs(ours - refs) / np.abs(refs)) < 1e-10

    def test_gamma_scaling(self):
        assert log_psi(0.3, 0.1) == pytest.approx(log_psi(3.0, 1.0), rel=1e-14)

    def test_monotone_and_negative(self):
        zs = np.linspace(-35.0, 10.0, 500)
        vals = log_psi(zs, 1.0)
        assert np.all(np.isfinite(vals))
        assert np.all(np.diff(vals) > 0)
        assert np.all(vals < 0)

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            log_psi(0.0, 0.0)

    def test_ratio_is_derivative(self):
        for z in (-5.0, -1.0, 0.0, 2.0):
            h = 1e-6
            num = (log_psi(z + h, 1.0) - log_psi(z - h, 1.0)) / (2 * h)
            assert psi_ratio(z, 1.0) == pytest.approx(num, rel=1e-6)

    def test_branches_pinned_bit_for_bit(self):
        # below zero, the same log Phi as the pCN potential's log_ndtr; at and
        # above zero, the log1p form whose bits the channel references pin
        neg = np.linspace(-200.0, 0.0, 100_000, endpoint=False)
        pos = np.linspace(0.0, 40.0, 100_000)
        expected = np.concatenate([log_ndtr(neg),
                                   np.log1p(-0.5 * erfc(pos / math.sqrt(2.0)))])
        assert np.array_equal(log_psi(np.concatenate([neg, pos]), 1.0), expected)

    def test_ratio_finite_deep_tail(self):
        r = psi_ratio(np.array([-50.0, -200.0]), 1.0)
        assert np.all(np.isfinite(r)) and np.all(r > 0)


@settings(deadline=None, max_examples=80)
@given(z=st.floats(-30.0, 8.0), gamma=st.floats(1e-3, 10.0))
def test_log_psi_stability_property(z, gamma):
    v = log_psi(z * gamma, gamma)
    assert np.isfinite(v) and v < 0


class TestPotentials:
    def test_probit_curvature_positive(self):
        pot = ProbitPotential(gamma=0.5, indices=np.array([0, 1]),
                              y=np.array([1.0, -1.0]), weights=np.ones(2))
        for ul in ([0.5, -0.5], [-3.0, 3.0], [0.0, 0.0]):
            assert np.all(pot.curvature_at_labeled(np.array(ul)) > 0)

    def test_probit_invalid_gamma(self):
        with pytest.raises(ValueError):
            ProbitPotential(gamma=-1.0, indices=np.array([0]),
                            y=np.array([1.0]), weights=np.ones(1))

    def test_levelset_values(self):
        pot = LevelSetPotential(gamma=0.5, indices=np.array([0, 1]),
                                y=np.array([1.0, -1.0]), weights=np.ones(2))
        assert pot.value_at_labeled(np.array([2.0, -2.0])) == 0.0
        # one wrong sign: |y - S(u)|^2 = 4, weight 1, / (2 gamma^2)
        assert pot.value_at_labeled(np.array([2.0, 2.0])) == pytest.approx(4 / 0.5)

    def test_indicator_values(self):
        pot = IndicatorPotential(indices=np.array([0]), y=np.array([1.0]))
        assert pot.value(np.array([0.5, 9.9])) == 0.0
        assert pot.value(np.array([-0.5, 9.9])) == np.inf

    def test_indicator_empty_is_zero(self):
        pot = IndicatorPotential(indices=np.array([], dtype=int), y=np.array([]))
        assert pot.value(np.array([1.0, -1.0])) == 0.0


class TestKrige:
    def test_interpolates_labels(self, small_graph):
        graph, labels = small_graph
        prior = _prior(graph)
        u = krige(prior, labels)
        assert np.allclose(u[labels.indices], labels.y, atol=1e-8)

    def test_minimum_energy_among_interpolants(self, small_graph):
        graph, labels = small_graph
        prior = _prior(graph)
        u = krige(prior, labels)
        rng = np.random.default_rng(0)
        from graphssl.spectral import quadratic_form
        for _ in range(5):
            z = rng.standard_normal(graph.n)
            v = z + krige(prior, labels.indices, labels.y - z[labels.indices])
            assert np.allclose(v[labels.indices], labels.y, atol=1e-8)
            assert quadratic_form(prior, v) >= quadratic_form(prior, u) - 1e-12

    def test_sparse_route_matches_spectral(self, small_graph):
        graph, labels = small_graph
        prior = _prior(graph, alpha=2.0, tau=1.0)
        u_spec = krige(prior, labels)
        factor = PoweredFactor(laplacian(graph) * graph.s_n, 2, 1.0)
        u_sparse = sparse_krige(factor, labels.indices, labels.y)
        assert np.allclose(u_spec, u_sparse, rtol=1e-9, atol=1e-11)

    def test_sparse_requires_integer_alpha(self, small_graph):
        graph, _ = small_graph
        with pytest.raises(ValueError):
            PoweredFactor(laplacian(graph) * graph.s_n, 1.5, 1.0)

    def test_duplicate_labels_singular(self, small_graph):
        graph, labels = small_graph
        prior = _prior(graph)
        idx = np.array([labels.indices[0], labels.indices[0]])
        with pytest.raises(ValueError, match="singular"):
            krige(prior, idx, np.array([1.0, -1.0]))


class TestProbitMap:
    def test_first_order_optimality(self, small_graph):
        graph, labels = small_graph
        prior = _prior(graph)
        pot = ProbitPotential.for_graph(labels, 0.1)
        u = probit_map(prior, pot)
        # gradient of the objective in the spectral coefficients a = <u, q_k>
        eig = prior.eig
        grad = (prior.powered(1.0) * eig.coeffs(u)
                + eig.vectors[pot.indices].T @ pot.grad_at_labeled(u[pot.indices]))
        assert np.linalg.norm(grad) < 1e-6

    def test_matches_generic_optimizer(self):
        # independent oracle: BFGS on the node-space objective, tiny problem
        cloud = sample_cloud(Density("uniform"), 28, seed=3)
        spec = Model2Spec(points=np.array([[0.25, 0.25], [0.75, 0.75]]),
                          signs=np.array([1.0, -1.0]))
        cloud, labels = assign_labels(cloud, spec)
        g = build_graph(cloud, Kernel(epsilon=0.5, dim=2))
        prior = _prior(g, alpha=1.0, tau=1.0)
        pot = ProbitPotential.for_graph(labels, 0.5)
        u = probit_map(prior, pot)
        res = scipy.optimize.minimize(
            lambda v: probit_objective(v, prior, pot), np.zeros(g.n),
            method="BFGS", options={"gtol": 1e-12, "maxiter": 2000})
        assert np.allclose(u, res.x, atol=1e-5)

    def test_init_independence(self, small_graph):
        graph, labels = small_graph
        prior = _prior(graph)
        pot = ProbitPotential.for_graph(labels, 0.1)
        rng = np.random.default_rng(4)
        u1 = probit_map(prior, pot, init=rng.standard_normal(graph.n))
        u2 = probit_map(prior, pot, init=5.0 * rng.standard_normal(graph.n))
        assert np.allclose(u1, u2, atol=1e-6)

    def test_requires_positive_spectrum(self, small_graph):
        graph, labels = small_graph
        eig = decompose_graph(graph)
        prior = FractionalOperator(eig, alpha=1.0, tau=0.0, scale=graph.s_n)
        pot = ProbitPotential.for_graph(labels, 0.1)
        with pytest.raises(ValueError, match="tau"):
            probit_map(prior, pot)

    def test_budget_exhaustion_raises(self, small_graph, monkeypatch):
        graph, labels = small_graph
        prior = _prior(graph)
        pot = ProbitPotential.for_graph(labels, 1e-4)
        monkeypatch.setattr(models, "NEWTON_TOL", 1e-14)
        monkeypatch.setattr(models, "NEWTON_MAX_ITER", 1)
        with pytest.raises(MapSolverError) as err:
            probit_map(prior, pot)
        assert err.value.iterate.shape == (graph.n,)

    def test_converges_from_deep_wrong_sign_tail(self, small_graph):
        # far into the wrong-sign tail the computed curvature can come out
        # negative; clipped at zero, the Newton direction still descends
        graph, labels = small_graph
        prior = _prior(graph)
        pot = ProbitPotential.for_graph(labels, 1e-4)
        init = np.zeros(graph.n)
        init[labels.indices] = -10.0 * labels.y
        assert _rel(probit_map(prior, pot, init=init), probit_map(prior, pot)) <= 1e-9

    def test_sparse_route_matches_spectral(self, small_graph):
        graph, labels = small_graph
        prior = _prior(graph, alpha=3.0, tau=1.0)
        pot = ProbitPotential.for_graph(labels, 0.1)
        u_spec = probit_map(prior, pot)
        factor = PoweredFactor(laplacian(graph) * graph.s_n, 3, 1.0)
        u_sparse = sparse_probit_map(factor, np.full(graph.n, 1.0 / graph.n), pot)
        assert np.allclose(u_spec, u_sparse, rtol=1e-7, atol=1e-9)

    def test_midpoint_convexity(self, small_graph):
        graph, labels = small_graph
        prior = _prior(graph)
        pot = ProbitPotential.for_graph(labels, 0.3)
        rng = np.random.default_rng(5)
        for _ in range(20):
            u, v = rng.standard_normal((2, graph.n))
            mid = probit_objective(0.5 * (u + v), prior, pot)
            avg = 0.5 * (probit_objective(u, prior, pot) + probit_objective(v, prior, pot))
            assert mid < avg


def _reference_sparse_probit_map(base, w, alpha, tau, pot, tol=1e-8, max_iter=200):
    """The node-space Newton loop with a Woodbury Hessian solve, written out
    plainly: its own factorization, and the gradient and the objective at the
    current point recomputed at the top of every iteration."""
    n = base.shape[0]
    idx = pot.indices
    A1 = (sp.csr_matrix(base) + tau ** 2 * sp.identity(n, format="csr")).tocsr()
    if A1.nnz > 0.05 * n * n:
        chol = scipy.linalg.cho_factor(A1.toarray())

        def solve1(v):
            return scipy.linalg.cho_solve(chol, v)
    else:
        solve1 = spla.splu(A1.tocsc()).solve

    def solve(v):
        for _ in range(alpha):
            v = solve1(v)
        return v

    def apply_A(v):
        for _ in range(alpha):
            v = A1 @ v
        return v

    def objective(v):
        return 0.5 * float(np.sum(w * v * apply_A(v))) + pot.value_at_labeled(v[idx])

    rhs = np.zeros((n, len(idx)))
    rhs[idx, np.arange(len(idx))] = 1.0
    AiE = np.column_stack([solve(rhs[:, j]) for j in range(len(idx))])
    u = np.zeros(n)
    for _ in range(max_iter):
        ul = u[idx]
        grad = apply_A(u)
        grad[idx] += pot.grad_at_labeled(ul) / w[idx]
        curv = pot.curvature_at_labeled(ul) / w[idx]
        g1 = solve(grad)
        active = curv > 0
        M = np.diag(1.0 / curv[active]) + AiE[idx, :][np.ix_(active, active)]
        c = scipy.linalg.solve(M, g1[idx[active]], assume_a="pos")
        delta = -(g1 - AiE[:, active] @ c)
        slope = float(np.sum(w * grad * delta))
        step = _armijo(objective, u, delta, objective(u), slope)
        assert step is not None, "reference line search exhausted"
        t, u, _ = step
        residual = float(np.sqrt(np.sum(w * (t * delta) ** 2)))
        if residual <= tol or math.sqrt(max(-slope, 0.0)) <= tol:
            return u
    raise AssertionError("reference loop did not converge")


class TestPoweredFactor:
    """One factorization shared by the kriging and probit solvers."""

    # epsilon 0.1 keeps A1 below the dense-fill threshold (SuperLU),
    # 0.25 puts it above (dense Cholesky)
    @pytest.mark.filterwarnings("ignore:graph is disconnected")
    @pytest.mark.parametrize("eps, dense", [(0.1, False), (0.25, True)])
    def test_shared_factor_matches_reference_loop(self, small_graph, eps, dense):
        graph, labels = small_graph
        g = build_graph(graph.cloud, Kernel(epsilon=eps, dim=2))
        base = laplacian(g) * g.s_n
        w = np.full(g.n, 1.0 / g.n)
        pot = ProbitPotential.for_graph(labels, 0.01)
        ref = _reference_sparse_probit_map(base, w, 2, 1.0, pot)
        factor = PoweredFactor(base, 2, 1.0)
        assert (factor.A1.nnz > 0.05 * g.n ** 2) == dense
        u_krige = sparse_krige(factor, labels.indices, labels.y)
        u_shared = sparse_probit_map(factor, w, pot)
        # the label-space Newton iteration takes the node-space loop's steps
        # in other coordinates, so the two agree to rounding
        assert _rel(u_shared, ref) <= 1e-9
        # bit for bit: sharing the factor changes no arithmetic
        assert np.array_equal(sparse_probit_map(PoweredFactor(base, 2, 1.0), w, pot),
                              u_shared)
        assert np.array_equal(
            u_krige, sparse_krige(PoweredFactor(base, 2, 1.0), labels.indices, labels.y))
        assert np.allclose(u_krige[labels.indices], labels.y, atol=1e-10)

    @pytest.mark.parametrize("alpha", [1, 2, 3])
    @pytest.mark.parametrize("labelling", ["model1", "model2"])
    @pytest.mark.parametrize("h", [None, 0.0])
    def test_continuum_map_matches_reference_loop(self, h, labelling, alpha):
        # bit for bit: channel fields carry nodes whose sign is set by
        # roundoff, so the continuum node-space loop must keep its arithmetic
        rho = Density("uniform") if h is None else Density("channel", h=h, width=0.1)
        op = discretize(rho, 32)
        if labelling == "model1":
            spec = Model1Spec(omega_plus=Ball((0.25, 0.25), 0.05),
                              omega_minus=Ball((0.75, 0.75), 0.05))
        else:
            spec = Model2Spec(points=np.array([[0.25, 0.25], [0.75, 0.75]]),
                              signs=np.array([1.0, -1.0]))
        idx, y, w = continuum_labeled_nodes(op, spec)
        assert len(idx) == (24 if labelling == "model1" else 2)
        pot = ProbitPotential(gamma=0.01, indices=idx, y=y, weights=w)
        ref = _reference_sparse_probit_map(op.matrix, op.weights, alpha, 10.0, pot)
        assert np.array_equal(continuum_probit_map(op, alpha, 10.0, pot), ref)

    @pytest.mark.filterwarnings("ignore:graph is disconnected")
    def test_factors_on_first_solve(self, small_graph, monkeypatch):
        # the solver that first uses a shared factor owns its factorization
        graph, labels = small_graph
        g = build_graph(graph.cloud, Kernel(epsilon=0.1, dim=2))
        calls = []
        splu = spla.splu
        monkeypatch.setattr(spla, "splu", lambda *a, **k: calls.append(1) or splu(*a, **k))
        factor = PoweredFactor(laplacian(g) * g.s_n, 2, 1.0)
        assert calls == []
        v = factor.solve(np.ones(g.n))
        factor.solve(np.ones(g.n))
        assert len(calls) == 1
        assert np.allclose((factor.A1 @ (factor.A1 @ v)), 1.0)

    def test_unit_solves_cached_per_label_set(self, small_graph):
        graph, labels = small_graph
        factor = PoweredFactor(laplacian(graph) * graph.s_n, 2, 1.0)
        B = factor.unit_solves(labels.indices)
        assert factor.unit_solves(labels.indices) is B
        other = np.array([3, 11, 40])
        B2 = factor.unit_solves(other)
        A2 = (factor.A1 @ factor.A1).toarray()
        assert np.allclose(A2 @ B2, np.eye(graph.n)[:, other], atol=1e-10)

    def test_dense_solve_rejects_nonfinite_rhs(self, small_graph):
        # the Cholesky solve skips re-checking its finite factor but still
        # checks the right-hand side, as scipy's default check did
        graph, _ = small_graph
        factor = PoweredFactor((laplacian(graph) * graph.s_n).toarray(), 2, 1.0)
        v = np.ones(graph.n)
        v[5] = np.nan
        with pytest.raises(ValueError):
            factor.solve(v)

    @pytest.mark.parametrize("eps", [0.25, 0.4])
    def test_dense_sweep_route_matches_spectral(self, small_graph, eps):
        graph, labels = small_graph
        kern = Kernel(epsilon=eps, dim=2)
        base = EpsilonSweep(graph.cloud, [kern]).scaled_laplacian(kern)
        assert isinstance(base, np.ndarray)
        g = build_graph(graph.cloud, kern)
        prior = _prior(g, alpha=2.0, tau=1.0)
        pot = ProbitPotential.for_graph(labels, 0.1)
        factor = PoweredFactor(base, 2, 1.0)
        u_krige = sparse_krige(factor, labels.indices, labels.y)
        u_map = sparse_probit_map(factor, np.full(g.n, 1.0 / g.n), pot)
        assert _rel(u_krige, krige(prior, labels)) <= 1e-9
        assert _rel(u_map, probit_map(prior, pot)) <= 1e-9

    @pytest.mark.parametrize("alpha", [1, 2, 3])
    def test_dense_unit_solves_match_column_solves(self, small_graph, alpha):
        # one solve per power with every label column at once
        graph, _ = small_graph
        dense = (laplacian(graph) * graph.s_n).toarray()
        factor = PoweredFactor(dense, alpha, 1.0)
        idx = np.array([3, 11, 40, 150])
        B = factor.unit_solves(idx)
        columns = np.column_stack([factor.solve(np.eye(graph.n)[:, j]) for j in idx])
        assert _rel(B, columns) <= 1e-14

    def test_dense_matrix_is_factored_in_place(self, small_graph):
        graph, _ = small_graph
        dense = (laplacian(graph) * graph.s_n).toarray()
        diag = np.diag(dense).copy()
        factor = PoweredFactor(dense, 2, 0.5)
        assert factor.A1 is dense
        assert np.array_equal(np.diag(dense), diag + 0.25)
        factor.solve(np.ones(graph.n))
        # the array now holds its Cholesky factor, A1 = U^T U
        U = np.triu(dense.T)
        A1 = (laplacian(graph) * graph.s_n).toarray() + 0.25 * np.eye(graph.n)
        assert _rel(U.T @ U, A1) <= 1e-13

    def test_sparse_unit_solves_are_column_solves(self, small_graph):
        # bit for bit: the channel references pin node signs that roundoff
        # sets, and a multi-column sparse LU solve rounds differently
        graph, labels = small_graph
        factor = PoweredFactor(laplacian(graph) * graph.s_n, 2, 1.0)
        idx = np.array([3, 11, 40, 150])
        B = factor.unit_solves(idx)
        for col, j in zip(B.T, idx):
            assert np.array_equal(col, factor.solve(np.eye(graph.n)[:, j]))

    @pytest.mark.parametrize("alpha", [1.5, 0, -1])
    def test_rejects_alpha_that_is_not_a_positive_integer(self, alpha):
        with pytest.raises(ValueError, match="integer alpha"):
            PoweredFactor(sp.identity(4, format="csr"), alpha, 1.0)

    @pytest.mark.parametrize("N", [8, 9])
    def test_small_nonuniform_grid_matches_spectral(self, N):
        # a 5-point stencil on N <= 9 fills more than the dense threshold, but
        # the finite-volume operator is not symmetric: it must not reach the
        # Cholesky, which reads one triangle
        op = discretize(Density("channel", h=0.3, width=0.1), N)
        assert PoweredFactor(op.matrix, 2, 1.0).A1.nnz > 0.05 * op.grid.size ** 2
        spec = Model1Spec(omega_plus=Ball((0.25, 0.25), 0.1),
                          omega_minus=Ball((0.75, 0.75), 0.1))
        idx, y, w = continuum_labeled_nodes(op, spec)
        prior = FractionalOperator(op.eigendecomposition(), 2, 1.0)
        u = continuum_krige(op, 2, 1.0, idx, y)
        assert _rel(u, krige(prior, idx, y)) <= 1e-10
        pot = ProbitPotential(gamma=0.1, indices=idx, y=y, weights=w)
        u = continuum_probit_map(op, 2, 1.0, pot)
        assert _rel(u, probit_map(prior, pot)) <= 1e-10


@pytest.mark.filterwarnings("ignore:graph is disconnected")
@pytest.mark.parametrize("eps, dense", [(0.08, False), (0.25, True)])
def test_spectral_sweep_route_matches_build_graph(small_graph, eps, dense):
    # the rates sweep at non-integer alpha: eigenpairs of the sweep's s_n L
    # at scale 1, against those of L from build_graph at scale s_n, on both
    # sides of the dense-fill threshold
    graph, labels = small_graph
    kern = Kernel(epsilon=eps, dim=2)
    base = EpsilonSweep(graph.cloud, [kern]).scaled_laplacian(kern)
    assert isinstance(base, np.ndarray) == dense
    swept = FractionalOperator(decompose(base), alpha=1.5, tau=1.0)
    g = build_graph(graph.cloud, kern)
    prior = FractionalOperator(decompose_graph(g), alpha=1.5, tau=1.0, scale=g.s_n)
    pot = ProbitPotential.for_graph(labels, 0.1)
    assert _rel(krige(swept, labels), krige(prior, labels)) <= 1e-9
    assert _rel(probit_map(swept, pot), probit_map(prior, pot)) <= 1e-9


class _FlippedGradient(ProbitPotential):
    """Probit potential reporting the negated gradient: every Newton
    direction computed from it climbs the true objective."""

    def grad_at_labeled(self, ul):
        return -super().grad_at_labeled(ul)


class TestLineSearch:
    @staticmethod
    def _record_searches(monkeypatch):
        """Spy on every line search: the objective at its start point, the
        reference value it was given, its slope, the values it evaluated and
        its result."""
        searches = []
        armijo = models._armijo

        def spy(objective, x, delta, J0, slope):
            # evaluate the start point first: the node-space objective keeps
            # A v of its last evaluation, which must be the accepted point
            J_here = objective(x)
            evals = []

            def recorded(v):
                evals.append(objective(v))
                return evals[-1]
            step = armijo(recorded, x, delta, J0, slope)
            searches.append((J_here, J0, slope, evals, step))
            return step
        monkeypatch.setattr(models, "_armijo", spy)
        return searches

    def _check_backtracking(self, searches):
        assert len(searches) >= 2
        assert any(step[0] < 1.0 for *_, step in searches)
        for J_here, J0, slope, evals, (t, _, J_new) in searches:
            # the reference value is the objective at the current iterate
            assert J0 == J_here
            ts = 0.5 ** np.arange(len(evals))
            accept = [J <= J0 + 1e-4 * s * slope + 1e-12 * abs(J0)
                      for J, s in zip(evals, ts)]
            assert accept == [False] * (len(evals) - 1) + [True]
            assert t == ts[-1] and J_new == evals[-1]

    def test_label_space_backtracks_against_current_objective(self, small_graph,
                                                               monkeypatch):
        # correct signs far above gamma: the first Newton step jumps to the
        # origin, where the misfit is larger than at the start
        graph, labels = small_graph
        prior = _prior(graph)
        pot = ProbitPotential.for_graph(labels, 1e-4)
        init = np.zeros(graph.n)
        init[labels.indices] = 0.01 * labels.y
        searches = self._record_searches(monkeypatch)
        u = probit_map(prior, pot, init=init)
        self._check_backtracking(searches)
        assert _rel(u, probit_map(prior, pot)) <= 1e-9

    def test_node_space_backtracks_against_current_objective(self, monkeypatch):
        op = discretize(Density("uniform"), 16)
        spec = Model2Spec(points=np.array([[0.25, 0.25], [0.75, 0.75]]),
                          signs=np.array([1.0, -1.0]))
        idx, y, w = continuum_labeled_nodes(op, spec)
        pot = ProbitPotential(gamma=1e-4, indices=idx, y=y, weights=w)
        init = np.zeros(op.grid.size)
        init[idx] = 0.01 * y
        searches = self._record_searches(monkeypatch)
        u = continuum_probit_map(op, 2.0, 1.0, pot, init=init)
        self._check_backtracking(searches)
        monkeypatch.undo()
        assert _rel(u, continuum_probit_map(op, 2.0, 1.0, pot)) <= 1e-9

    def test_ascent_direction_exhausts(self):
        f = lambda x: float(x @ x)  # noqa: E731
        x = np.ones(2)
        assert _armijo(f, x, x, f(x), float(2 * x @ x)) is None

    def test_exhausted_search_raises_with_current_iterate(self, small_graph):
        # an exhausted search must not pass for convergence: its last step
        # (t ~ 1e-12) is short enough to pass the step-norm test
        graph, labels = small_graph
        pot = _FlippedGradient(gamma=0.1, indices=labels.indices, y=labels.y,
                               weights=np.ones(2))
        base = laplacian(graph) * graph.s_n
        solves = [lambda: probit_map(_prior(graph), pot),
                  lambda: sparse_probit_map(PoweredFactor(base, 2, 1.0),
                                            np.full(graph.n, 1.0 / graph.n), pot)]
        op = discretize(Density("uniform"), 16)
        spec = Model2Spec(points=np.array([[0.25, 0.25], [0.75, 0.75]]),
                          signs=np.array([1.0, -1.0]))
        idx, y, w = continuum_labeled_nodes(op, spec)
        cont_pot = _FlippedGradient(gamma=0.1, indices=idx, y=y, weights=w)
        solves.append(lambda: continuum_probit_map(op, 2.0, 1.0, cont_pot))
        for solve in solves:
            with pytest.raises(MapSolverError) as err:
                solve()
            # the search failed at the start point, the zero field
            assert not np.any(err.value.iterate)
            assert err.value.residual > 1e-8

    def test_node_space_ascent_direction_raises_before_search(self, monkeypatch):
        # the full-Hessian path (24 labels on 256 nodes) with a Hessian solve
        # that returns the ascent direction: the loop must raise before any
        # line search, whose slack would accept a tiny step up
        op = discretize(Density("uniform"), 16)
        spec = Model1Spec(omega_plus=Ball((0.25, 0.25), 0.1),
                          omega_minus=Ball((0.75, 0.75), 0.1))
        idx, y, w = continuum_labeled_nodes(op, spec)
        pot = ProbitPotential(gamma=0.1, indices=idx, y=y, weights=w)
        splu = spla.splu

        class _Climbing:
            def __init__(self, H):
                self.lu = splu(H)

            def solve(self, b):
                return -self.lu.solve(b)
        monkeypatch.setattr(spla, "splu", _Climbing)
        searches = self._record_searches(monkeypatch)
        with pytest.raises(MapSolverError) as err:
            continuum_probit_map(op, 2.0, 1.0, pot)
        assert searches == []
        assert not np.any(err.value.iterate)

    def test_node_space_deep_wrong_sign_start(self):
        # at y u / gamma = -1.65e4 the computed curvature is negative
        # roundoff; unclipped, the Newton direction climbs and a tiny ascent
        # step passed the line search's slack as convergence
        op = discretize(Density("uniform"), 16)
        spec = Model1Spec(omega_plus=Ball((0.25, 0.25), 0.1),
                          omega_minus=Ball((0.75, 0.75), 0.1))
        idx, y, w = continuum_labeled_nodes(op, spec)
        assert len(idx) == 24
        pot = ProbitPotential(gamma=1e-4, indices=idx, y=y, weights=w)
        init = np.zeros(op.grid.size)
        init[idx] = -1.65 * y
        assert np.any(pot.curvature_at_labeled(init[idx]) < 0.0)
        u = continuum_probit_map(op, 2.0, 1.0, pot, init=init)
        assert _rel(u, continuum_probit_map(op, 2.0, 1.0, pot)) <= 1e-12


@settings(deadline=None, max_examples=30)
@given(n=st.integers(30, 80), seed=st.integers(0, 10 ** 6),
       eps=st.floats(0.25, 0.5), alpha=st.sampled_from([1, 2, 3]),
       gamma=st.floats(1e-4, 1.0))
def test_label_space_backends_agree_property(n, seed, eps, alpha, gamma):
    spec = Model2Spec(points=np.array([[0.25, 0.25], [0.75, 0.75]]),
                      signs=np.array([1.0, -1.0]))
    cloud, labels = assign_labels(sample_cloud(Density("uniform"), n, seed=seed), spec)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # disconnected graphs are fine
        g = build_graph(cloud, Kernel(epsilon=eps, dim=2))
    prior = _prior(g, alpha=float(alpha), tau=1.0)
    base = laplacian(g) * g.s_n
    w = np.full(g.n, 1.0 / g.n)
    pot = ProbitPotential.for_graph(labels, gamma)
    # the reference also stops on an absolute step norm, which at gamma = 1e-4
    # (|u| ~ 5e-4) can end 1e-9 short of the minimizer; a tighter tolerance
    # makes it the more accurate side
    ref = _reference_sparse_probit_map(base, w, alpha, 1.0, pot, tol=1e-12)
    assert _rel(probit_map(prior, pot), ref) <= 1e-9
    factor = PoweredFactor(base, alpha, 1.0)
    assert _rel(sparse_probit_map(factor, w, pot), ref) <= 1e-9
    u_krige = krige(prior, labels)
    assert _rel(sparse_krige(factor, labels.indices, labels.y), u_krige) <= 1e-9


class TestLevelSetScaling:
    def test_zero_misfit_rescaling_decreases_objective(self, small_graph):
        graph, labels = small_graph
        prior = _prior(graph)
        pot = LevelSetPotential.for_graph(labels, 0.5)
        u = krige(prior, labels)  # correct signs at labels: zero misfit
        assert pot.value(u) == 0.0
        vals = [levelset_objective(c * u, prior, pot) for c in (1.0, 0.5, 0.1)]
        assert vals[0] > vals[1] > vals[2] > 0.0


class TestContinuumSolvers:
    def test_continuum_krige_routes_agree(self):
        op = discretize(Density("uniform"), 16)
        idx = np.array([40, 200])
        y = np.array([1.0, -1.0])
        direct = continuum_krige(op, 2, 0.8, idx, y)
        spectral = continuum_krige(op, 2.0 + 1e-12, 0.8, idx, y)
        assert np.allclose(direct, spectral, rtol=1e-7, atol=1e-9)
        assert np.allclose(direct[idx], y, atol=1e-8)

    def test_continuum_probit_routes_agree(self):
        op = discretize(Density("uniform"), 16)
        spec = Model1Spec(omega_plus=Ball((0.25, 0.25), 0.1),
                          omega_minus=Ball((0.75, 0.75), 0.1))
        idx, y, w = continuum_labeled_nodes(op, spec)
        pot = ProbitPotential(gamma=0.1, indices=idx, y=y, weights=w)
        direct = continuum_probit_map(op, 2.0, tau=1.0, pot=pot)
        spectral = probit_map(FractionalOperator(op.eigendecomposition(), 2.0, 1.0), pot)
        assert np.allclose(direct, spectral, rtol=1e-6, atol=1e-8)

    def test_labeled_nodes_model1_weights(self):
        op = discretize(Density("uniform"), 16)
        spec = Model1Spec(omega_plus=Ball((0.25, 0.25), 0.1),
                          omega_minus=Ball((0.75, 0.75), 0.1))
        idx, y, w = continuum_labeled_nodes(op, spec)
        assert len(idx) > 0 and set(np.unique(y)) == {-1.0, 1.0}
        assert np.allclose(w, op.weights[idx])

    def test_labeled_nodes_model2_snaps(self):
        op = discretize(Density("uniform"), 16)
        spec = Model2Spec(points=np.array([[0.25, 0.25]]), signs=np.array([1.0]))
        idx, y, w = continuum_labeled_nodes(op, spec)
        coords = op.grid.coordinates()
        assert np.linalg.norm(coords[idx[0]] - [0.25, 0.25]) <= op.grid.h
        assert w[0] == 1.0

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphssl.density import Density, sample_cloud
from graphssl.graph import Kernel, build_graph
from graphssl.labels import Model2Spec, assign_labels, sign
from graphssl.models import (
    IndicatorPotential,
    LevelSetPotential,
    ProbitPotential,
    krige,
    log_psi,
)
from graphssl.posterior import (
    PcnConfig,
    classification_stats,
    mean_sign_stderr,
    run_pcn,
    small_noise_agreement,
)
from graphssl.spectral import FractionalOperator, decompose_graph, prior_std


def _prior(n=60, seed=0, alpha=2.0, tau=1.0):
    cloud = sample_cloud(Density("uniform"), n, seed=seed)
    g = build_graph(cloud, Kernel(epsilon=0.35, dim=2))
    eig = decompose_graph(g)
    return g, FractionalOperator(eig, alpha=alpha, tau=tau, scale=g.s_n)


def _free_potential():
    return IndicatorPotential(indices=np.array([], dtype=int), y=np.array([]))


class TestPcnMechanics:
    def test_beta_validation(self):
        with pytest.raises(ValueError):
            PcnConfig(beta=0.0)
        with pytest.raises(ValueError):
            PcnConfig(beta=1.5)

    def test_deterministic_given_seed(self, small_graph):
        graph, labels = small_graph
        eig = decompose_graph(graph)
        prior = FractionalOperator(eig, alpha=2.0, tau=1.0, scale=graph.s_n)
        pot = ProbitPotential.for_graph(labels, 0.5)
        cfg = PcnConfig(beta=0.3, iterations=2000, burn_in=200, thinning=5, seed=9)
        c1 = run_pcn(prior, pot, cfg)
        c2 = run_pcn(prior, pot, cfg)
        assert np.array_equal(c1.sum_sign, c2.sum_sign)
        assert c1.accepted == c2.accepted

    def test_infinite_initial_potential_rejected(self, small_graph):
        graph, labels = small_graph
        eig = decompose_graph(graph)
        prior = FractionalOperator(eig, alpha=2.0, tau=1.0, scale=graph.s_n)
        pot = IndicatorPotential.for_graph(labels)
        with pytest.raises(ValueError, match="infinite potential"):
            run_pcn(prior, pot, PcnConfig(beta=0.3, iterations=500, burn_in=0))

    def test_zero_potential_accepts_everything(self):
        _, prior = _prior()
        cfg = PcnConfig(beta=0.5, iterations=3000, burn_in=0, thinning=10)
        chain = run_pcn(prior, _free_potential(), cfg)
        assert chain.acceptance_rate == 1.0


def _reference_pcn(prior, value, indices, cfg, r=1.0, init=None):
    """Plain pCN loop with the potential value passed in: sqrt(1 - beta^2)
    per step, draws and accept rule in the same order as run_pcn.
    Returns (accepted, steps, sum_sign, final coefficients)."""
    eig = prior.eig
    rng = np.random.default_rng(cfg.seed)
    std = prior_std(prior, r)
    Q_lab = eig.vectors[indices, :]
    a = np.zeros(eig.m) if init is None else eig.coeffs(init)
    phi = value(Q_lab @ a)
    accepted = 0
    sum_sign = np.zeros(eig.vectors.shape[0])
    for it in range(cfg.iterations):
        xi = std * rng.standard_normal(len(a))
        proposal = math.sqrt(1.0 - cfg.beta ** 2) * a + cfg.beta * xi
        phi_new = value(Q_lab @ proposal)
        log_u = math.log(rng.uniform())
        if phi_new - phi < -log_u:
            a, phi = proposal, phi_new
            accepted += 1
        if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thinning == 0:
            sum_sign += sign(eig.reconstruct(a))
    return accepted, cfg.iterations, sum_sign, a


class TestReferenceChain:
    """run_pcn must reproduce the reference loop step for step: same draws,
    same accept decisions, same recorded sign sums, and a bit-identical
    final state (the proposal arithmetic is unchanged)."""

    CFG = PcnConfig(beta=0.3, iterations=3000, burn_in=300, thinning=5, seed=4)

    @staticmethod
    def _setup(small_graph):
        graph, labels = small_graph
        eig = decompose_graph(graph)
        return labels, FractionalOperator(eig, alpha=2.0, tau=1.0, scale=graph.s_n)

    def _check(self, prior, pot, value, r=1.0, init=None):
        chain = run_pcn(prior, pot, self.CFG, r=r, init=init)
        accepted, steps, sum_sign, coeffs = _reference_pcn(
            prior, value, pot.indices, self.CFG, r=r, init=init)
        assert 0 < chain.accepted < steps
        assert chain.accepted == accepted
        assert chain.steps == steps
        assert np.array_equal(chain.sum_sign, sum_sign)
        assert np.array_equal(chain.coeffs, coeffs)

    @pytest.mark.parametrize("gamma", [1.0, 1e-4])
    def test_probit(self, small_graph, gamma):
        labels, prior = self._setup(small_graph)
        pot = ProbitPotential.for_graph(labels, gamma)

        def value(ul):
            return float(-np.sum(pot.weights * log_psi(pot.y * ul, gamma)))

        self._check(prior, pot, value, r=labels.r_n)

    def test_levelset(self, small_graph):
        labels, prior = self._setup(small_graph)
        pot = LevelSetPotential.for_graph(labels, 0.1)

        def value(ul):
            misfit = np.abs(pot.y - sign(ul)) ** 2
            return float(np.sum(pot.weights * misfit) / (2.0 * 0.1 ** 2))

        self._check(prior, pot, value)

    def test_indicator(self, small_graph):
        labels, prior = self._setup(small_graph)
        pot = IndicatorPotential.for_graph(labels)

        def value(ul):
            return 0.0 if np.all(pot.y * ul > 0) else math.inf

        self._check(prior, pot, value, init=krige(prior, labels))


@settings(deadline=None, max_examples=200)
@given(labels=st.lists(st.tuples(st.floats(-40.0, 10.0), st.sampled_from([-1.0, 1.0]),
                                  st.floats(0.01, 100.0)), min_size=1, max_size=6),
       gamma=st.floats(1e-4, 10.0))
def test_probit_value_matches_log_psi(labels, gamma):
    # z = y u / gamma spans the deep tail, the central regime and Phi -> 1
    z, y, w = map(np.array, zip(*labels))
    ul = y * z * gamma
    pot = ProbitPotential(gamma=gamma, indices=np.arange(len(z)), y=y, weights=w)
    ref = -np.sum(w * log_psi(y * ul, gamma))
    assert pot.value_at_labeled(ul) == pytest.approx(ref, rel=1e-13, abs=0.0)


class TestPriorPreservation:
    def test_mode_variances_match_prior(self):
        # Phi = 0: the chain must leave N(0, r A^{-1}) invariant
        _, prior = _prior()
        cfg = PcnConfig(beta=0.7, iterations=60_000, burn_in=2000, thinning=1,
                        seed=1, store_samples=True)
        chain = run_pcn(prior, _free_potential(), cfg, r=1.0)
        coeffs = np.array([prior.eig.coeffs(u) for u in chain.samples])
        emp = coeffs.std(axis=0)
        ref = prior_std(prior, 1.0)
        assert np.max(np.abs(emp - ref) / ref) < 0.08

    def test_beta_one_gives_independent_prior_draws(self):
        _, prior = _prior()
        cfg = PcnConfig(beta=1.0, iterations=4000, burn_in=0, thinning=1,
                        seed=2, store_samples=True)
        chain = run_pcn(prior, _free_potential(), cfg)
        coeffs = np.array([prior.eig.coeffs(u) for u in chain.samples])
        # lag-1 autocorrelation of each mode vanishes for independent draws
        a = coeffs[:-1] - coeffs[:-1].mean(axis=0)
        b = coeffs[1:] - coeffs[1:].mean(axis=0)
        corr = np.sum(a * b, axis=0) / (
            np.sqrt(np.sum(a * a, axis=0) * np.sum(b * b, axis=0)))
        assert np.max(np.abs(corr)) < 0.08
        emp = coeffs.std(axis=0)
        assert np.max(np.abs(emp - prior_std(prior, 1.0)) / prior_std(prior, 1.0)) < 0.1


class TestStatistics:
    def test_classification_stats_needs_samples(self):
        from graphssl.posterior import Chain
        chain = Chain(coeffs=np.zeros(3), phi=0.0)
        chain.record(np.array([1.0, -1.0]), store=False, batch_size=10)
        with pytest.raises(ValueError, match="100"):
            classification_stats(chain)

    def test_mean_sign_and_variance(self):
        _, prior = _prior()
        cfg = PcnConfig(beta=0.8, iterations=3000, burn_in=0, thinning=10)
        chain = run_pcn(prior, _free_potential(), cfg)
        mean, var = classification_stats(chain)
        assert np.all(np.abs(mean) <= 1.0)
        assert np.allclose(var, 1.0 - mean ** 2)

    def test_stderr_batch_and_fallback(self):
        _, prior = _prior()
        long_cfg = PcnConfig(beta=0.8, iterations=5000, burn_in=0, thinning=10,
                             batches=10)
        chain = run_pcn(prior, _free_potential(), long_cfg)
        se = mean_sign_stderr(chain)
        assert np.all(se >= 0) and np.all(np.isfinite(se))
        short_cfg = PcnConfig(beta=0.8, iterations=1100, burn_in=0, thinning=10,
                              batches=2)  # too few full batches: iid fallback
        chain2 = run_pcn(prior, _free_potential(), short_cfg)
        assert len(chain2.batch_sums) < 4
        assert np.all(np.isfinite(mean_sign_stderr(chain2)))


class TestSmallNoiseAgreement:
    def test_gamma_lists_must_match(self, small_graph):
        graph, labels = small_graph
        eig = decompose_graph(graph)
        prior = FractionalOperator(eig, alpha=2.0, tau=1.0, scale=graph.s_n)
        ones = np.ones(labels.size)
        p = {0.1: ProbitPotential(gamma=0.1, indices=labels.indices,
                                  y=labels.y, weights=ones)}
        ls = {0.5: LevelSetPotential(gamma=0.5, indices=labels.indices,
                                     y=labels.y, weights=ones)}
        with pytest.raises(ValueError, match="match"):
            small_noise_agreement(prior, p, ls, IndicatorPotential.for_graph(labels),
                                  PcnConfig(beta=0.5, iterations=500, burn_in=0))

    def test_report_structure_and_small_gamma_agreement(self, small_graph):
        graph, labels = small_graph
        eig = decompose_graph(graph)
        prior = FractionalOperator(eig, alpha=2.0, tau=1.0, scale=graph.s_n)
        ones = np.ones(labels.size)
        gammas = [1.0, 1e-3]
        probit = {g: ProbitPotential(gamma=g, indices=labels.indices,
                                     y=labels.y, weights=ones) for g in gammas}
        levelset = {g: LevelSetPotential(gamma=g, indices=labels.indices,
                                         y=labels.y, weights=ones) for g in gammas}
        init = krige(prior, labels)
        cfg = PcnConfig(beta=0.4, iterations=20_000, burn_in=2000, thinning=10,
                        seed=3, batches=8)
        report = small_noise_agreement(prior, probit, levelset,
                                       IndicatorPotential.for_graph(labels),
                                       cfg, r_n=labels.r_n, indicator_init=init)
        assert report["gammas"] == [1.0, 1e-3]
        for name in ("probit", "levelset"):
            assert [e["gamma"] for e in report[name]] == [1.0, 1e-3]
            # small gamma tracks the indicator chain closely
            assert report[name][-1]["max_discrepancy"] < 0.2

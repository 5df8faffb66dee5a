import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphssl.density import Density, sample_cloud
from graphssl.graph import build_graph
from graphssl.models import (
    IndicatorPotential,
    LevelSetPotential,
    ProbitPotential,
    krige,
    log_psi,
)
from graphssl import posterior
from graphssl.posterior import (
    Chain,
    LabelConditional,
    PcnConfig,
    classification_stats,
    mean_sign_stderr,
    pcn_step,
    run_label_pcn,
    run_pcn,
    run_pcn_chains,
    small_noise_agreement,
)
from graphssl.spectral import FractionalOperator, decompose_graph, prior_std


def _prior(n=60, seed=0, alpha=2.0, tau=1.0):
    cloud = sample_cloud(Density("uniform"), n, seed=seed)
    g = build_graph(cloud, 0.35)
    eig = decompose_graph(g)
    return g, FractionalOperator(eig, alpha=alpha, tau=tau)


def _small_prior(small_graph):
    graph, labels = small_graph
    eig = decompose_graph(graph)
    return labels, FractionalOperator(eig, alpha=2.0, tau=1.0)


def _free_potential():
    return IndicatorPotential(indices=np.array([], dtype=int), y=np.array([]))


def _unsatisfiable_potential(labels):
    """An indicator with a 0 label: infinite at 0 and at the labels y."""
    y = labels.y.copy()
    y[-1] = 0.0
    return IndicatorPotential(indices=labels.indices, y=y)


class TestPcnMechanics:
    def test_beta_validation(self):
        base = {"beta": 0.1, "iterations": 20_000, "burn_in": 2_000, "thinning": 10}
        for bad in ({"beta": 0.0}, {"beta": 1.5}, {"thinning": 0}, {"batches": 0},
                    {"burn_in": -1},
                    {"iterations": 2000, "burn_in": 200, "batches": 181}):  # 180 kept
            with pytest.raises(ValueError):
                PcnConfig(**{**base, **bad})

    def test_deterministic_given_seed(self, small_graph):
        graph, labels = small_graph
        eig = decompose_graph(graph)
        prior = FractionalOperator(eig, alpha=2.0, tau=1.0)
        pot = ProbitPotential.for_graph(labels, 0.5)
        cfg = PcnConfig(beta=0.3, iterations=2000, burn_in=200, thinning=5)
        c1 = run_pcn(prior, pot, cfg, 9)
        c2 = run_pcn(prior, pot, cfg, 9)
        assert np.array_equal(c1.sum_sign, c2.sum_sign)
        assert c1.accepted == c2.accepted

    def test_infinite_initial_potential_rejected(self, small_graph):
        labels, prior = _small_prior(small_graph)
        with pytest.raises(ValueError, match="infinite potential"):
            run_pcn(prior, _unsatisfiable_potential(labels),
                    PcnConfig(beta=0.3, iterations=500, burn_in=0, thinning=10), 0)

    def test_zero_potential_accepts_everything(self):
        _, prior = _prior()
        cfg = PcnConfig(beta=0.5, iterations=3000, burn_in=0, thinning=10)
        chain = run_pcn(prior, _free_potential(), cfg, 0)
        assert chain.acceptance_rate == 1.0


def _reference_pcn(prior, pot, cfg, seed, init=None):
    """Plain full-state pCN: one `pcn_step` per step on the spectral
    coefficients, and one field rebuilt and recorded per kept state."""
    eig = prior.eig
    rng = np.random.default_rng(seed)
    std = prior_std(prior)
    Q_lab = eig.vectors[pot.indices, :]
    a = np.zeros(eig.m) if init is None else eig.coeffs(init)
    chain = Chain(state=a, phi=pot.value_at_labeled(Q_lab @ a))
    batch_size = cfg.kept // cfg.batches
    c = math.sqrt(1.0 - cfg.beta ** 2)
    for it in range(cfg.iterations):
        pcn_step(chain, pot, rng, std, Q_lab, cfg.beta, c)
        if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thinning == 0:
            batch = chain.recorded // batch_size
            chain.record(np.sign(eig.vectors @ chain.state)[None],
                         batch if batch < cfg.batches else None)
    return chain


def _scalar_label_chain(potential, chol, cfg, rng):
    """Plain pCN on the labeled values v, whose prior is N(0, chol chol^T):
    one chain and one `value_at_labeled` call per step, from `_start`, on
    the draws of `_draws`.  Returns the chain (``state`` the final v,
    nothing recorded), its kept states (kept x L) and the number of steps
    accepted up to each: the oracle for each row of `_lockstep_chains`."""
    value = potential.value_at_labeled
    v, phi = posterior._start(potential)
    states, accepts = np.empty((cfg.kept, v.size)), np.empty(cfg.kept, dtype=int)
    c = math.sqrt(1.0 - cfg.beta ** 2)
    accepted = j = 0
    for noise, log_u, keeps in posterior._draws(cfg, chol, rng):
        for xi, lu, keep in zip(noise, log_u, keeps):
            proposal = xi + c * v
            phi_new = value(proposal)
            if phi - phi_new >= lu:
                v, phi = proposal, phi_new
                accepted += 1
            if keep:
                states[j], accepts[j] = v, accepted
                j += 1
    chain = Chain(state=v, phi=phi)
    chain.accepted, chain.steps = accepted, cfg.iterations
    return chain, states, accepts


def _case(small_graph, case):
    """(labels, prior, potential, init) for a named posterior; ``init`` is a
    start of finite potential for `_reference_pcn` (the samplers pick their
    own)."""
    labels, prior = _small_prior(small_graph)
    init = None
    if case.startswith("probit"):
        pot = ProbitPotential.for_graph(labels, float(case[6:]))
    elif case.startswith("levelset"):
        pot = LevelSetPotential.for_graph(labels, float(case[8:]))
    else:
        pot, init = IndicatorPotential.for_graph(labels), krige(prior, labels.indices, labels.y)
    return labels, prior, pot, init


class _FirstPoint:
    """Wraps a potential and keeps the first labeled values at which it is
    evaluated and finite: the chain's start.  (The chain evaluates an
    indicator at 0 first, where it is infinite, and so learns to start at y.)"""

    def __init__(self, pot):
        self.pot, self.indices, self.y, self.first = pot, pot.indices, pot.y, None

    def value_at_labeled(self, ul):
        phi = self.pot.value_at_labeled(ul)
        if self.first is None and np.isfinite(phi):
            self.first = np.array(ul, dtype=float)
        return phi

    @staticmethod
    def row_values(spies):
        """The wrapped class's row form, for spies that wrap one class."""
        return type(spies[0].pot).row_values([s.pot for s in spies])


class TestChainStart:
    """Each chain starts at v = 0, or at the labels y where the potential is
    infinite at 0 (the indicator).  A probit or level-set chain started at y
    would follow the indicator chain step for step under common random
    numbers, and the small-noise comparison would agree by construction."""

    CFG = PcnConfig(beta=0.4, iterations=1200, burn_in=200, thinning=10)
    SEED = 2

    @pytest.mark.parametrize("sampler", [run_pcn, run_label_pcn])
    @pytest.mark.parametrize("case", ["probit0.1", "levelset0.1", "indicator"])
    def test_sampler_starts_at_zero_or_at_the_labels(self, small_graph, sampler, case):
        labels, prior, pot, _ = _case(small_graph, case)
        spy = _FirstPoint(pot)
        sampler(prior, [spy] if sampler is run_label_pcn else spy, self.CFG, self.SEED)
        start = labels.y if case == "indicator" else np.zeros(labels.size)
        assert np.array_equal(spy.first, start)

    def test_small_noise_agreement_starts_each_chain_so(self, small_graph, monkeypatch):
        # the chains step together from the states `_start` gives them
        # (TestLockstepChains checks each against its own scalar chain)
        labels, prior = _small_prior(small_graph)
        starts, start = {}, posterior._start

        def spying(pot):
            v, phi = start(pot)
            starts[type(pot), pot.gamma] = v
            return v, phi

        monkeypatch.setattr(posterior, "_start", spying)
        small_noise_agreement(prior, labels, [1e-3, 0.5], self.CFG, self.SEED)
        assert set(starts) == {
            (IndicatorPotential, 0.0), (ProbitPotential, 0.5), (LevelSetPotential, 0.5),
            (ProbitPotential, 1e-3), (LevelSetPotential, 1e-3)}
        for (kind, _), v in starts.items():
            expected = labels.y if kind is IndicatorPotential else np.zeros(labels.size)
            assert np.array_equal(v, expected)


class TestSharedLabelChain:
    """run_pcn runs run_label_pcn's chain on the labeled values, from the
    same stream: for one seed both accept the same steps and visit the same
    labeled values, so the sign sums at the labeled nodes agree exactly."""

    CFG = PcnConfig(beta=0.3, iterations=3000, burn_in=300, thinning=5)
    SEED = 4

    @pytest.mark.parametrize("case", ["probit1", "probit1e-4", "levelset0.1", "indicator"])
    def test_run_pcn_follows_run_label_pcn(self, small_graph, case):
        labels, prior, pot, _ = _case(small_graph, case)
        full = run_pcn(prior, pot, self.CFG, self.SEED)
        label, = run_label_pcn(prior, [pot], self.CFG, self.SEED)
        assert 0 < full.accepted < full.steps
        assert (full.accepted, full.steps) == (label.accepted, label.steps)
        assert full.phi == label.phi
        idx = labels.indices
        assert np.array_equal(full.sum_sign[idx], label.sum_sign[idx])
        assert np.array_equal(np.array(full.batch_sums)[:, idx],
                              np.array(label.batch_sums)[:, idx])
        # the final coefficients carry the final labeled values
        v = prior.eig.vectors[idx, :] @ full.state
        assert np.max(np.abs(v - label.state)) <= 1e-12 * np.max(np.abs(label.state))


class TestRunPcnAgainstReference:
    """run_pcn samples the posterior of the plain full-state chain
    (`_reference_pcn`): three independent chains of each, pooled per
    sampler, must agree within their combined batch-means standard errors,
    node by node, and each pair of chains in acceptance rate.

    These bounds give false alarms.  On 60 disjoint seed sets of three
    chains per sampler and case (seeds 20000+ and 30000+), the two samplers
    failed them on 4 (probit 0.1), 4 (level set 0.5) and 8 (indicator) sets,
    16 of 180 or about 9 %: 15 through 2 to 8 nodes beyond 3 SE (max z at
    most 4.29), one through an acceptance gap just over 0.03.  The bias such
    a failure would suggest is not there: those 180 chains per sampler and
    case, pooled, put no node beyond 3 SE (max z 2.64, 2.33, 2.73) and the
    acceptance rates within 0.001.  So a new BLAS build or random stream can
    turn this test red with neither sampler at fault; rerun it on other
    seeds before suspecting the sampler.  The first seed set tried
    (9000-9002 and 9100-9102) failed at probit 0.1 in this way (4 nodes
    beyond 3 SE, max z 3.45; the other two cases passed); the committed set
    is the next one, with max z 3.37, 2.65 and 3.11.
    """

    SEEDS = ((9003, 9103), (9004, 9104), (9005, 9105))  # (_reference_pcn, run_pcn)

    @pytest.mark.parametrize("case", ["probit0.1", "levelset0.5", "indicator"])
    def test_mean_sign_and_acceptance_agree(self, small_graph, case):
        _, prior, pot, init = _case(small_graph, case)
        cfg = PcnConfig(beta=0.4, iterations=40_000, burn_in=4000, thinning=10)
        pooled = []
        # run_pcn's three chains step together, bit for bit as each alone
        for chains in ([_reference_pcn(prior, pot, cfg, s, init=init)
                        for s, _ in self.SEEDS],
                       run_pcn_chains([prior] * 3, pot, cfg, [s for _, s in self.SEEDS])):
            means = [classification_stats(ch)[0] for ch in chains]
            se = np.sqrt(sum(mean_sign_stderr(ch) ** 2 for ch in chains)) / len(chains)
            pooled.append((np.mean(means, axis=0), se, [ch.acceptance_rate for ch in chains]))
        (m1, se1, acc1), (m2, se2, acc2) = pooled
        comb, diff = np.hypot(se1, se2), np.abs(m1 - m2)
        # nodes with zero SE in both samplers (labels under the indicator)
        # must agree exactly
        assert np.all(diff[comb == 0.0] == 0.0)
        z = diff[comb > 0.0] / comb[comb > 0.0]
        assert np.mean(z <= 3.0) >= 0.99, np.sort(z)[-5:]
        assert np.max(z) <= 4.5
        assert np.max(np.abs(np.subtract(acc1, acc2))) <= 0.03


class TestBlockedRecords:
    """Kept states are aged and rebuilt into fields a block at a time; the
    recorded statistics must be those of doing it one state at a time
    (a record block of one row)."""

    @pytest.mark.parametrize("iterations, burn_in, thinning, batches, batch_size", [
        (2000, 0, 3, 20, 33),     # 667 kept: 20 batches of 33 and 7 left over
        (3000, 100, 2, 7, 207),   # 1450 kept: each batch spans four blocks
        (2000, 200, 1, 1, 1800),  # one batch
    ])
    def test_matches_per_sample_records(self, small_graph, monkeypatch, iterations,
                                        burn_in, thinning, batches, batch_size):
        labels, prior, pot, _ = _case(small_graph, "indicator")
        cfg = PcnConfig(beta=0.3, iterations=iterations, burn_in=burn_in,
                        thinning=thinning, batches=batches, store_samples=True)
        blocked = run_pcn(prior, pot, cfg, 5)
        monkeypatch.setattr(posterior, "RECORD_BLOCK", 1)
        single = run_pcn(prior, pot, cfg, 5)
        kept = (iterations - burn_in + thinning - 1) // thinning
        assert blocked.recorded == single.recorded == len(blocked.samples) == kept
        assert len(blocked.batch_sums) == len(single.batch_sums) == batches
        assert kept // batches == batch_size
        assert blocked.accepted == single.accepted
        assert np.array_equal(blocked.sum_sign, single.sum_sign)
        assert np.array_equal(np.array(blocked.batch_sums), np.array(single.batch_sums))
        # a block is aged and rebuilt by matrix products, which round
        # differently from one row at a time
        U, U1 = np.array(blocked.samples), np.array(single.samples)
        assert np.max(np.abs(U - U1)) <= 1e-13 * np.max(np.abs(U1))
        assert np.max(np.abs(blocked.state - single.state)) <= 1e-13 * np.max(np.abs(single.state))
        # the labeled entries are the chain's labeled values, so under the
        # indicator they have the labels' signs
        assert np.array_equal(U[:, labels.indices], U1[:, labels.indices])
        assert np.all(np.sign(U[:, labels.indices]) == labels.y)

    @settings(max_examples=80, deadline=None)
    @given(iterations=st.integers(1, 4000), burn_in=st.integers(0, 400),
           thinning=st.integers(1, 12), batches=st.integers(1, 200))
    # 430 kept: 100 batches of 4 and 30 left over, not 107 batches of 4
    @example(iterations=430, burn_in=0, thinning=1, batches=100)
    # 181 kept: 20 batches of 9 and 1 left over
    @example(iterations=2005, burn_in=200, thinning=10, batches=20)
    # 135 kept: 20 batches of 6 and 15 left over, not 22 batches of 6
    @example(iterations=1500, burn_in=150, thinning=10, batches=20)
    # one batch of 3000 in blocks of RECORD_BLOCK
    @example(iterations=3000, burn_in=0, thinning=1, batches=1)
    def test_block_schedule_records_like_one_state_at_a_time(self, iterations, burn_in,
                                                             thinning, batches):
        """Every chain has ``batches`` batches of kept // batches states, and
        the states after them count in the mean only; fewer kept states than
        batches is a config error."""
        kept = len(range(burn_in, iterations, thinning))
        if kept < batches:
            with pytest.raises(ValueError, match="exceeds"):
                PcnConfig(beta=0.1, iterations=iterations, burn_in=burn_in,
                          thinning=thinning, batches=batches)
            return
        cfg = PcnConfig(beta=0.1, iterations=iterations, burn_in=burn_in,
                        thinning=thinning, batches=batches)
        assert cfg.kept == kept
        blocks = posterior._blocks(cfg)
        size = kept // batches
        # the blocks cover the kept states in order, each within one batch
        # or within the leftover, and carry that batch's index
        assert [i for block, _ in blocks for i in range(kept)[block]] == list(range(kept))
        for block, batch in blocks:
            assert 0 < block.stop - block.start <= min(posterior.RECORD_BLOCK, size)
            assert block.start // size == (block.stop - 1) // size
            assert batch == (block.start // size if block.start < batches * size else None)
        S = np.sign(np.random.default_rng(kept).standard_normal((kept, 5)))
        S[::7, 0] = 0.0
        chain = Chain(state=np.zeros(1), phi=0.0)
        for block, batch in blocks:
            chain.record(S[block], batch)
        # the same statistics, one state at a time, written out
        sum_sign, batch_sums = np.zeros(5), np.zeros((batches, 5))
        for i, s in enumerate(S):
            sum_sign += s
            if i < batches * size:
                batch_sums[i // size] += s
        assert chain.recorded == kept
        assert len(chain.batch_sums) == batches
        assert np.array_equal(chain.sum_sign, sum_sign)
        assert np.array_equal(np.array(chain.batch_sums), batch_sums)

    def test_record_takes_one_field_or_a_block(self):
        from graphssl.posterior import Chain
        S = np.sign([[1.0, -1.0], [-2.0, -3.0], [0.0, 4.0]])  # 3 states, 2 nodes
        single, block = Chain(state=np.zeros(1), phi=0.0), Chain(state=np.zeros(1), phi=0.0)
        for s in S:
            single.record(s[None], 0)
        block.record(S, 0)
        for chain in (single, block):
            assert chain.recorded == 3
            assert np.array_equal(chain.sum_sign, [0.0, -1.0])
            assert np.array_equal(chain.batch_sums[0], [0.0, -1.0])
        # a state in no batch counts in the mean only
        block.record(S[:1], None)
        assert block.recorded == 4 and len(block.batch_sums) == 1
        assert np.array_equal(block.sum_sign, [1.0, -2.0])


class TestLabelConditional:
    """The label-space sampler's conditioning against a dense oracle."""

    @pytest.mark.parametrize("extra", [0, 6])
    def test_matches_dense_schur_complement(self, small_graph, extra):
        labels, prior = _small_prior(small_graph)
        rng = np.random.default_rng(0)
        others = np.setdiff1d(np.arange(prior.eig.vectors.shape[0]), labels.indices)
        idx = np.concatenate([labels.indices, rng.choice(others, extra, replace=False)])
        cond = LabelConditional(prior, idx)
        V = prior.eig.vectors
        C = V @ np.diag(prior_std(prior) ** 2) @ V.T
        cross = C[:, idx]
        assert np.max(np.abs(cond.G - C[np.ix_(idx, idx)])) <= 1e-12
        M = np.linalg.solve(C[np.ix_(idx, idx)], cross.T).T
        schur = C - M @ cross.T
        assert np.max(np.abs(cond.M - M)) <= 1e-12
        assert np.max(np.abs(cond.s2 - np.clip(np.diag(schur), 0.0, None))) <= 1e-12
        assert np.all(cond.s2[idx] == 0.0) and np.all(cond.s2[others[:5]] > 0.0)

    def test_labeled_values_are_signs_of_the_state(self, small_graph):
        labels, prior = _small_prior(small_graph)
        cond = LabelConditional(prior, labels.indices)
        states = np.random.default_rng(1).standard_normal((50, labels.size)) * 1e-3
        states[0, 0] = 0.0
        h = cond.mean_sign(states)
        assert np.array_equal(h[:, labels.indices], np.sign(states))
        assert np.all(np.abs(h) <= 1.0)

    def test_free_potential_gives_zero_mean(self):
        _, prior = _prior()
        cfg = PcnConfig(beta=0.5, iterations=3000, burn_in=0, thinning=10)
        chain, = run_label_pcn(prior, [_free_potential()], cfg, 0)
        mean, _ = classification_stats(chain)
        assert np.all(mean == 0.0)
        assert chain.acceptance_rate == 1.0

    def test_store_samples_rejected(self, small_graph):
        labels, prior = _small_prior(small_graph)
        cfg = PcnConfig(beta=0.1, iterations=500, burn_in=0, thinning=10,
                        store_samples=True)
        with pytest.raises(ValueError, match="store_samples"):
            run_label_pcn(prior, [ProbitPotential.for_graph(labels, 0.5)], cfg, 0)

    def test_repeated_label_index_is_singular(self, small_graph):
        labels, prior = _small_prior(small_graph)
        idx = np.repeat(labels.indices[:1], 2)
        pot = ProbitPotential(gamma=0.5, indices=idx, y=np.ones(2), weights=np.ones(2))
        with pytest.raises(ValueError, match="singular"):
            run_label_pcn(prior, [pot],
                          PcnConfig(beta=0.1, iterations=500, burn_in=0, thinning=10), 0)

    def test_infinite_initial_potential_rejected(self, small_graph):
        labels, prior = _small_prior(small_graph)
        with pytest.raises(ValueError, match="infinite potential"):
            run_label_pcn(prior, [_unsatisfiable_potential(labels)],
                          PcnConfig(beta=0.1, iterations=500, burn_in=0, thinning=10), 0)

    def test_deterministic_and_batched_like_run_pcn(self, small_graph):
        labels, prior = _small_prior(small_graph)
        pot = ProbitPotential.for_graph(labels, 0.5)
        # 3 draw chunks, the last one partial; 1450 kept in 7 batches of 207
        cfg = PcnConfig(beta=0.3, iterations=9000, burn_in=300, thinning=6, batches=7)
        (c1,), (c2,) = run_label_pcn(prior, [pot], cfg, 9), run_label_pcn(prior, [pot], cfg, 9)
        assert np.array_equal(c1.sum_sign, c2.sum_sign)
        assert c1.accepted == c2.accepted and c1.steps == 9000
        assert c1.recorded == 1450 and len(c1.batch_sums) == 7
        # the 1450th state is in no batch; it adds a value in [-1, 1]
        rest = c1.sum_sign - np.sum(c1.batch_sums, axis=0)
        assert np.all(np.abs(rest) <= 1.0 + 1e-9) and np.any(rest != 0.0)


class TestLockstepChains:
    """run_label_pcn steps its chains together, one noise row and one uniform
    per step for all of them.  Each chain must take exactly the steps of
    the plain one-chain loop (`_scalar_label_chain`) for its own potential
    and seed, and record exactly what a run_label_pcn call for that potential alone
    records: the rows do not interact, whatever the order of the classes."""

    CFG = PcnConfig(beta=0.4, iterations=3000, burn_in=300, thinning=5, batches=6)
    SEED = 11

    def test_each_chain_is_its_own_scalar_chain(self, small_graph):
        labels, prior = _small_prior(small_graph)
        pots = [ProbitPotential.for_graph(labels, 0.1), LevelSetPotential.for_graph(labels, 0.5),
                IndicatorPotential.for_graph(labels), LevelSetPotential.for_graph(labels, 0.1),
                ProbitPotential.for_graph(labels, 0.5)]
        chains = run_label_pcn(prior, pots, self.CFG, self.SEED)
        cond = LabelConditional(prior, labels.indices)
        _, lock_states, lock_accepts = posterior._lockstep_chains(
            pots, posterior._draws(self.CFG, cond.chol, np.random.default_rng(self.SEED)),
            self.CFG)

        for k, (pot, chain) in enumerate(zip(pots, chains)):
            scalar, states, accepts = _scalar_label_chain(
                pot, cond.chol, self.CFG, np.random.default_rng(self.SEED))
            assert np.array_equal(states, lock_states[k])
            assert np.array_equal(accepts, lock_accepts[k])
            for block, batch in posterior._blocks(self.CFG):
                scalar.record(cond.mean_sign(states[block]), batch)
            alone, = run_label_pcn(prior, [pot], self.CFG, self.SEED)
            assert 0 < chain.accepted < chain.steps
            for other in (scalar, alone):
                assert (chain.accepted, chain.steps) == (other.accepted, other.steps)
                assert np.array_equal(chain.state, other.state) and chain.phi == other.phi
                assert np.array_equal(chain.sum_sign, other.sum_sign)
                assert np.array_equal(np.array(chain.batch_sums), np.array(other.batch_sums))
        # the chains differ, so a mix-up of rows would show
        assert len({ch.accepted for ch in chains}) == len(chains)

    def test_potentials_on_other_nodes_rejected(self, small_graph):
        labels, prior = _small_prior(small_graph)
        other = ProbitPotential(gamma=0.5, indices=labels.indices[::-1], y=labels.y,
                                weights=np.ones(labels.size))
        with pytest.raises(ValueError, match="share their labeled indices"):
            run_label_pcn(prior, [ProbitPotential.for_graph(labels, 0.5), other], self.CFG,
                          self.SEED)

    def test_no_potentials_rejected(self, small_graph):
        _, prior = _small_prior(small_graph)
        with pytest.raises(ValueError, match="at least one potential"):
            run_label_pcn(prior, [], self.CFG, self.SEED)


class TestRunPcnChains:
    """run_pcn_chains steps run_pcn's chains together, each drawing from its
    own stream with its own prior's label factor.  Each chain must be the
    chain run_pcn gives for its prior and seed alone, bit for bit: its kept
    states and accept counts in the loop, and everything it records."""

    CFG = PcnConfig(beta=0.4, iterations=2500, burn_in=250, thinning=5, batches=6,
                    store_samples=True)
    PRIORS = ((2.0, 1.0), (1.0, 0.5), (2.0, 0.2))  # (alpha, tau); the last accepts < 5 %
    SEEDS = [21, 22, 23]

    @staticmethod
    def _priors(small_graph):
        eig = decompose_graph(small_graph[0])
        return [FractionalOperator(eig, alpha=a, tau=t) for a, t in TestRunPcnChains.PRIORS]

    @pytest.mark.parametrize("case", ["indicator", "probit0.1", "levelset0.1"])
    def test_each_chain_is_run_pcn_alone(self, small_graph, case):
        labels, _, pot, _ = _case(small_graph, case)
        priors = self._priors(small_graph)
        chains = run_pcn_chains(priors, pot, self.CFG, self.SEEDS)
        chols = [LabelConditional(prior, labels.indices).chol for prior in priors]
        _, lock_states, lock_accepts = posterior._lockstep_chains(
            [pot] * len(priors),
            posterior._row_draws(self.CFG, chols,
                                 [np.random.default_rng(seed) for seed in self.SEEDS]),
            self.CFG)

        for k, (prior, seed, chain) in enumerate(zip(priors, self.SEEDS, chains)):
            _, states, accepts = _scalar_label_chain(
                pot, chols[k], self.CFG, np.random.default_rng(seed))
            assert np.array_equal(states, lock_states[k])
            assert np.array_equal(accepts, lock_accepts[k])
            alone = run_pcn(prior, pot, self.CFG, seed)
            assert (chain.accepted, chain.steps, chain.recorded) == (
                alone.accepted, alone.steps, alone.recorded)
            assert chain.acceptance_rate == alone.acceptance_rate
            assert np.array_equal(chain.state, alone.state) and chain.phi == alone.phi
            assert np.array_equal(chain.sum_sign, alone.sum_sign)
            assert np.array_equal(np.array(chain.batch_sums), np.array(alone.batch_sums))
            assert len(chain.samples) == self.CFG.kept
            assert np.array_equal(np.array(chain.samples), np.array(alone.samples))
        rates = [ch.acceptance_rate for ch in chains]
        # the chains differ, so a mix-up of rows would show
        assert len(set(rates)) == len(rates) and 0.0 < rates[-1] < 0.05

    def test_one_seed_per_prior(self, small_graph):
        _, _, pot, _ = _case(small_graph, "probit0.1")
        priors = self._priors(small_graph)
        with pytest.raises(ValueError, match="one seed per prior"):
            run_pcn_chains(priors, pot, self.CFG, self.SEEDS[:2])
        with pytest.raises(ValueError, match="one seed per prior"):
            run_pcn_chains([], pot, self.CFG, [])


class TestLabelChainAgainstReference:
    """run_label_pcn targets the posterior run_pcn samples: three independent
    chains of each sampler, pooled per sampler, must agree within their
    combined batch-means standard errors, node by node, and each pair of
    chains in acceptance rate.

    The seeds deviate from the ones first fixed for this test (run_pcn
    101-103, run_label_pcn 201-203), which failed at probit gamma = 0.1:
    4 of 200 nodes (2 %) beyond 3 SE, max z 3.73.  That was a false alarm,
    and these bounds give one often: two correct samplers fail them for
    about 7 % of seed sets per case (23 of 320 disjoint sets of three chains
    per sampler; 4, 9, 1 and 9 of 80 for the four cases below), almost
    always through 3 or more nodes just beyond 3 SE.  Pooling six chains
    per sampler failed as often (7 of 120 sets): 1 % of 200 nodes is 2
    nodes, and run_pcn's batch-means z has slightly heavier tails than a
    normal law.  So a new BLAS build or random stream can turn this test
    red with neither sampler at fault; rerun it on other seeds before
    suspecting the sampler.  The bias such a failure would suggest is not
    there: 180 chains per sampler and case, pooled, put no node beyond
    3 SE (max z 2.2) and the acceptance rates within 0.001.  The committed
    seeds are the first of 20 sets that an earlier calibration ran at probit
    gamma = 0.1, where none failed.  These figures predate run_pcn's
    label-space loop, which changed its random stream; the committed seeds
    passed again after that change.
    """

    SEEDS = ((7000, 8000), (7001, 8001), (7002, 8002))  # (run_pcn, run_label_pcn)

    @pytest.mark.parametrize("case", ["probit1", "probit0.1", "levelset0.5", "indicator"])
    def test_mean_sign_and_acceptance_agree(self, small_graph, case):
        _, prior, pot, _ = _case(small_graph, case)
        cfg = PcnConfig(beta=0.4, iterations=40_000, burn_in=4000, thinning=10)
        pooled = []
        # run_pcn's three chains step together, bit for bit as each alone
        for chains in (run_pcn_chains([prior] * 3, pot, cfg, [s for s, _ in self.SEEDS]),
                       [run_label_pcn(prior, [pot], cfg, s)[0]
                        for _, s in self.SEEDS]):
            means = [classification_stats(ch)[0] for ch in chains]
            se = np.sqrt(sum(mean_sign_stderr(ch) ** 2 for ch in chains)) / len(chains)
            pooled.append((np.mean(means, axis=0), se, [ch.acceptance_rate for ch in chains]))
        (m1, se1, acc1), (m2, se2, acc2) = pooled
        comb, diff = np.hypot(se1, se2), np.abs(m1 - m2)
        # nodes with zero SE in both samplers (labels under the indicator)
        # must agree exactly
        assert np.all(diff[comb == 0.0] == 0.0)
        z = diff[comb > 0.0] / comb[comb > 0.0]
        assert np.mean(z <= 3.0) >= 0.99, np.sort(z)[-5:]
        assert np.max(z) <= 4.5
        assert np.max(np.abs(np.subtract(acc1, acc2))) <= 0.03


def _two_label_mean_sign(C, indices, y):
    """Exact E[S(u_i)] at every node under N(0, C) conditioned on
    sign(u_j) = y_j at two labeled nodes, the posterior of the indicator
    potential.  With X_k = y_k u_(j_k) and P(A) for the probability of A
    under the prior, E[S(u_i)] = 2 P(u_i > 0, X > 0) / P(X > 0) - 1, and
    Sheppard's orthant formulas give P(X > 0) = 1/4 + asin(rho_12) / (2 pi)
    and P(u_i > 0, X > 0) = 1/8 + (asin rho_i1 + asin rho_i2 + asin rho_12)
    / (4 pi), with rho the correlations."""
    sd = np.sqrt(np.diag(C))
    rho = np.clip(C[:, indices] * y / (sd[:, None] * sd[indices]), -1.0, 1.0)
    rho_12 = y[0] * rho[indices[0], 1]
    p2 = 0.25 + math.asin(rho_12) / (2.0 * math.pi)
    p3 = 0.125 + (np.arcsin(rho[:, 0]) + np.arcsin(rho[:, 1])
                  + math.asin(rho_12)) / (4.0 * math.pi)
    return 2.0 * p3 / p2 - 1.0


class TestTwoLabelIndicatorOracle:
    """The indicator posterior of the two labels of `small_graph` (alpha = 2,
    tau = 1) has exact mean signs, `_two_label_mean_sign`.  One chain of each
    sampler must match them node by node: exactly at the two labels, and
    within a bound on the largest |z| = |mean - exact| / batch-means SE at
    the other 198 nodes.

    The bounds were calibrated on seeds 100-299 (200 chains per sampler,
    40,000 steps, beta = 0.4): no seed failed them, so the false-alarm rate
    per sampler is below 1.5 % (the 95 % upper bound for no failure in 200
    trials).  The largest |z| of a chain was at most 3.87 for
    `run_label_pcn` (99th percentile 3.09) and at most 5.52 for `run_pcn`
    (99th percentile 5.19).  `run_pcn` estimates
    each node's sign from its own residual draws, so its nodes are nearly
    independent and its largest |z| of 198 batch-means t values is larger;
    the Rao-Blackwellized means of `run_label_pcn` are functions of the two
    labeled values, so its nodes move together.  Seed 3, committed here,
    gives 2.50 and 2.95.
    """

    @staticmethod
    def _covariance(prior):
        V = prior.eig.vectors
        return (V * prior_std(prior) ** 2) @ V.T

    def test_helper_matches_rejection_sampling(self, small_graph):
        # 10^6 i.i.d. prior draws u = V (std * xi), of which about 59,000
        # satisfy the labels.  Each node's z is normal, so the bound 5 fails
        # with probability below 198 * 5.7e-7 (union bound).  Over 160 other
        # seeds the largest |z| of a run was 4.37 (99th percentile 3.8),
        # and the 5.9 million kept draws of 100 of them, pooled, put no node
        # beyond 2.5 SE (0.001 at most from the helper)
        labels, prior, _, _ = _case(small_graph, "indicator")
        exact = _two_label_mean_sign(self._covariance(prior), labels.indices, labels.y)
        field = prior.eig.vectors * prior_std(prior)
        rng = np.random.default_rng(0)
        sums, kept = 0.0, 0
        for _ in range(50):
            xi = rng.standard_normal((20_000, field.shape[1]))
            # the labeled values decide which draws are kept; only those
            # draws are built into fields
            xi = xi[np.all(np.sign(xi @ field[labels.indices].T) == labels.y, axis=1)]
            sums = sums + np.sign(xi @ field.T).sum(axis=0)
            kept += len(xi)
        mean = sums / kept
        assert np.array_equal(mean[labels.indices], labels.y)
        assert np.array_equal(exact[labels.indices], labels.y)
        free = np.setdiff1d(np.arange(len(mean)), labels.indices)
        se = np.sqrt((1.0 - mean[free] ** 2) / kept)
        assert np.max(np.abs(mean[free] - exact[free]) / se) <= 5.0

    @pytest.mark.parametrize("sampler, bound", [("run_label_pcn", 4.5), ("run_pcn", 6.0)])
    def test_chain_matches_exact_mean_signs(self, small_graph, sampler, bound):
        labels, prior, pot, _ = _case(small_graph, "indicator")
        exact = _two_label_mean_sign(self._covariance(prior), labels.indices, labels.y)
        cfg = PcnConfig(beta=0.4, iterations=40_000, burn_in=4000, thinning=10)
        if sampler == "run_label_pcn":
            chain = run_label_pcn(prior, [pot], cfg, 3)[0]
        else:
            chain = run_pcn(prior, pot, cfg, 3)
        mean, _ = classification_stats(chain)
        assert np.array_equal(mean[labels.indices], labels.y)
        free = np.setdiff1d(np.arange(len(mean)), labels.indices)
        z = np.abs(mean[free] - exact[free]) / mean_sign_stderr(chain)[free]
        assert np.max(z) <= bound, np.sort(z)[-5:]


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
        # Phi = 0: the chain must leave N(0, A^{-1}) invariant
        _, prior = _prior()
        cfg = PcnConfig(beta=0.7, iterations=60_000, burn_in=2000, thinning=1,
                        store_samples=True)
        chain = run_pcn(prior, _free_potential(), cfg, 1)
        coeffs = np.array([prior.eig.coeffs(u) for u in chain.samples])
        emp = coeffs.std(axis=0)
        ref = prior_std(prior)
        assert np.max(np.abs(emp - ref) / ref) < 0.08

    def test_beta_one_gives_independent_prior_draws(self):
        _, prior = _prior()
        cfg = PcnConfig(beta=1.0, iterations=4000, burn_in=0, thinning=1,
                        store_samples=True)
        chain = run_pcn(prior, _free_potential(), cfg, 2)
        coeffs = np.array([prior.eig.coeffs(u) for u in chain.samples])
        # lag-1 autocorrelation of each mode vanishes for independent draws
        a = coeffs[:-1] - coeffs[:-1].mean(axis=0)
        b = coeffs[1:] - coeffs[1:].mean(axis=0)
        corr = np.sum(a * b, axis=0) / (
            np.sqrt(np.sum(a * a, axis=0) * np.sum(b * b, axis=0)))
        assert np.max(np.abs(corr)) < 0.08
        emp = coeffs.std(axis=0)
        assert np.max(np.abs(emp - prior_std(prior)) / prior_std(prior)) < 0.1

    def test_thinned_states_decorrelate_like_pcn(self):
        # Phi = 0, so every step is accepted: between kept states the
        # coefficients take `thinning` pCN steps, a lag-1 autocorrelation
        # of c^thinning in every mode
        _, prior = _prior()
        cfg = PcnConfig(beta=0.5, iterations=40_000, burn_in=0, thinning=4,
                        store_samples=True)
        chain = run_pcn(prior, _free_potential(), cfg, 3)
        coeffs = np.array([prior.eig.coeffs(u) for u in chain.samples])
        a = coeffs[:-1] - coeffs[:-1].mean(axis=0)
        b = coeffs[1:] - coeffs[1:].mean(axis=0)
        corr = np.sum(a * b, axis=0) / np.sqrt(np.sum(a * a, axis=0) * np.sum(b * b, axis=0))
        assert np.max(np.abs(corr - (1.0 - 0.5 ** 2) ** 2)) < 0.05


class TestStatistics:
    def test_classification_stats_needs_samples(self):
        from graphssl.posterior import Chain
        chain = Chain(state=np.zeros(3), phi=0.0)
        chain.record(np.array([[1.0, -1.0]]), None)
        with pytest.raises(ValueError, match="100"):
            classification_stats(chain)

    def test_mean_sign_and_variance(self):
        _, prior = _prior()
        cfg = PcnConfig(beta=0.8, iterations=3000, burn_in=0, thinning=10)
        chain = run_pcn(prior, _free_potential(), cfg, 0)
        mean, var = classification_stats(chain)
        assert np.all(np.abs(mean) <= 1.0)
        assert np.allclose(var, 1.0 - mean ** 2)

    def test_stderr_batch_and_fallback(self):
        _, prior = _prior()
        long_cfg = PcnConfig(beta=0.8, iterations=5000, burn_in=0, thinning=10,
                             batches=10)
        chain = run_pcn(prior, _free_potential(), long_cfg, 0)
        se = mean_sign_stderr(chain)
        assert np.all(se >= 0) and np.all(np.isfinite(se))
        short_cfg = PcnConfig(beta=0.8, iterations=1100, burn_in=0, thinning=10,
                              batches=2)  # fewer than 4 batches: iid fallback
        chain2 = run_pcn(prior, _free_potential(), short_cfg, 0)
        assert len(chain2.batch_sums) < 4
        assert np.all(np.isfinite(mean_sign_stderr(chain2)))


class TestRaoBlackwellizedStatistics:
    """What classification_stats and mean_sign_stderr report for chains that
    average conditional mean signs h = E[S(u) | u_lab] instead of signs."""

    @staticmethod
    def _states(small_graph, k):
        labels, prior = _small_prior(small_graph)
        cond = LabelConditional(prior, labels.indices)
        states = np.random.default_rng(3).standard_normal((k, labels.size)) @ cond.chol.T
        return cond, states

    def test_fallback_stderr_is_an_upper_bound(self, small_graph):
        cond, states = self._states(small_graph, 300)
        h = cond.mean_sign(states)
        chain = Chain(state=np.zeros(2), phi=0.0)
        chain.record(h, None)  # in no batch: fallback
        se = mean_sign_stderr(chain)
        iid = h.std(axis=0) / math.sqrt(len(h))  # the i.i.d. SE of the h average
        # a bound, not the estimate: strictly above it wherever |h| < 1, and
        # equal to it only at the labeled nodes, where h is a sign
        unlabeled = cond.s2 > 0.0
        assert np.all(se[unlabeled] > iid[unlabeled])
        assert np.allclose(se[~unlabeled], iid[~unlabeled], rtol=1e-12, atol=0.0)

    def test_variance_column_is_the_variance_of_the_sign(self, small_graph):
        cond, states = self._states(small_graph, 200)
        h = cond.mean_sign(states)
        chain = Chain(state=np.zeros(2), phi=0.0)
        chain.record(h, 0)
        mean, var = classification_stats(chain)
        # S(u) itself: 100 draws of u from its conditional law per state
        rng = np.random.default_rng(4)
        mu = states @ cond.M.T
        u = mu[:, None, :] + np.sqrt(cond.s2) * rng.standard_normal((200, 100, len(mu[0])))
        signs = np.sign(u).reshape(-1, len(mu[0]))
        assert np.max(np.abs(var - signs.var(axis=0))) < 0.02
        # not the variance of the averaged conditional means, which is smaller
        unlabeled = cond.s2 > 0.0
        assert np.all(var[unlabeled] > h.var(axis=0)[unlabeled])


class TestSmallNoiseAgreement:
    def test_report_structure_and_small_gamma_agreement(self, small_graph):
        labels, prior = _small_prior(small_graph)
        cfg = PcnConfig(beta=0.4, iterations=20_000, burn_in=2000, thinning=10, batches=8)
        report = small_noise_agreement(prior, labels, [1e-3, 1.0], cfg, 3)
        assert report["gammas"] == [1.0, 1e-3]
        for name in ("probit", "levelset"):
            assert [e["gamma"] for e in report[name]] == [1.0, 1e-3]
            # small gamma tracks the indicator chain closely
            assert report[name][-1]["max_discrepancy"] < 0.2

"""pCN MCMC posteriors, with their classification statistics.

The prior is N(0, A^{-1}) truncated to the eigenbasis; the fidelity weight
r_n lives only in the potentials' weights.  The three supported potentials
(probit, level-set, sign-constraint indicator) see u only at the L labeled
nodes, so every sampler runs pCN accept/reject chains on v = u_lab in R^L,
whose prior is N(0, G) (`spectral.label_covariance`), from v = 0, or from
the labels y where the potential is infinite at 0 (`_start`), and the
samplers differ only in their draws and in what a kept state adds.  One
loop steps every chain (`_lockstep_chains`): the chains are the rows of
one array, and each row accepts or rejects on its own.  The loop only
samples: it returns the kept states, which the samplers then record
(`Chain.record`) in the blocks of `_blocks`: ``batches`` batches of
``kept // batches`` states, then the leftover, which counts in the mean
only.  `run_pcn_chains` runs one chain per prior, each on its own random
stream with its own prior's label factor (`_row_draws`), and `run_pcn` is
its one-prior case.  `run_label_pcn` runs one chain per potential, all on
one random stream (`_draws`), and adds each node's exact conditional mean
sign given v (Rao-Blackwellization).
`run_pcn_chains` keeps a chain's full state in the coefficients of the
prior's eigenbasis, a = B v + R: the residual R is independent of v and
moves only on accepted steps, so it is drawn, from a second random stream,
only when a state is kept, and the sign of the rebuilt field V a is
recorded (`_record_fields`).  For one seed `run_pcn` and `run_label_pcn`
accept the same steps.  The acceptance rule depends on the potential only
through differences, so the potentials can be compared on identical
proposal streams.  `pcn_step` is the plain one-step kernel on the
coefficients, kept as the reference the chains are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from graphssl.labels import LabelSet, sign
from graphssl.models import IndicatorPotential, LevelSetPotential, ProbitPotential
from graphssl.spectral import FractionalOperator, label_covariance, prior_std

RECORD_BLOCK = 64  # most kept states whose fields one matrix product rebuilds
DRAW_CHUNK = 4096  # label-space steps whose normals and uniforms are drawn at once


@dataclass(frozen=True)
class PcnConfig:
    beta: float = 0.1
    iterations: int = 20_000
    burn_in: int = 2_000
    thinning: int = 10
    store_samples: bool = False
    batches: int = 20  # batch-means batches for MC standard errors

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must lie in (0, 1]")
        if self.thinning < 1 or self.batches < 1:
            raise ValueError("thinning and batches must be at least 1")
        if self.burn_in < 0:
            raise ValueError("burn_in must be at least 0")
        if self.kept < self.batches:
            raise ValueError(f"batches = {self.batches} exceeds the {self.kept} kept states")

    @property
    def kept(self) -> int:
        """The number of kept states: every ``thinning``-th step from ``burn_in`` on."""
        return len(range(self.burn_in, self.iterations, self.thinning))


@dataclass
class Chain:
    """A pCN chain's final state and per-node classification statistics.

    ``state`` holds spectral coefficients for `run_pcn` and the values at
    the labeled nodes for `run_label_pcn`.  ``sum_sign`` sums the node
    values of every recorded state, ``batch_sums[b]`` those of batch b.  The
    samplers record ``batches`` equal batches and a leftover shorter than
    ``batches`` in none, so a batch holds ``recorded // len(batch_sums)``."""

    state: np.ndarray
    phi: float
    accepted: int = field(default=0, init=False)
    steps: int = field(default=0, init=False)
    recorded: int = field(default=0, init=False)
    sum_sign: np.ndarray | None = field(default=None, init=False)
    batch_sums: list = field(default_factory=list, init=False)
    samples: list = field(default_factory=list, init=False)

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / max(self.steps, 1)

    def record(self, S: np.ndarray, batch: int | None) -> None:
        """Add a k x n block of per-state node values (signs, or conditional
        mean signs), one state per row in chain order, to ``sum_sign`` and,
        unless ``batch`` is None, to that batch's sum (batches begin in order)."""
        # sums of signs are exact integers, so summing a block first is exact;
        # sums of conditional mean signs depend on the blocking at roundoff
        s = S.sum(axis=0)
        if self.sum_sign is None:
            self.sum_sign = np.zeros_like(s)
        self.sum_sign += s
        self.recorded += S.shape[0]
        if batch is not None:
            if batch == len(self.batch_sums):
                self.batch_sums.append(np.zeros_like(s))
            self.batch_sums[batch] += s


def pcn_step(chain: Chain, potential, rng: np.random.Generator, std: np.ndarray,
             Q_lab: np.ndarray, beta: float, c: float) -> Chain:
    """One pCN proposal/accept step in spectral coordinates.

    Proposal: a' = c a + beta * xi with c = sqrt(1 - beta^2) and xi drawn
    from the prior's coefficient law; accepted with probability
    min(1, exp(phi(u) - phi(u'))).  The caller passes c so that it is
    computed once per chain.
    """
    a = chain.state
    # one buffer, scaled in place: c*a + beta*(std*xi) in the same rounding order
    proposal = rng.standard_normal(a.shape[0])
    proposal *= std
    proposal *= beta
    proposal += c * a
    phi_new = potential.value_at_labeled(Q_lab @ proposal)
    # exp(phi_old - phi_new) >= uniform; handle infinities without overflow
    if phi_new - chain.phi < -math.log(rng.random()):
        chain.state = proposal
        chain.phi = phi_new
        chain.accepted += 1
    chain.steps += 1
    return chain


def _start(potential) -> tuple[np.ndarray, float]:
    """A chain's first state v and its potential: v = 0, or the labels y if
    the potential is infinite at 0 (the indicator); ValueError if y is
    infinite too.  No other chain starts at y: under common random numbers
    a probit or level-set chain would then follow the indicator chain step
    for step."""
    value = potential.value_at_labeled
    v = np.zeros(len(potential.indices))
    phi = value(v)
    if not np.isfinite(phi):
        v = np.array(potential.y, dtype=float)
        phi = value(v)
        if not np.isfinite(phi):
            raise ValueError("infinite potential at 0 and at the labels y: no initial state")
    return v, phi


def _draws(cfg: PcnConfig, chol: np.ndarray, rng: np.random.Generator):
    """The steps of a chain, DRAW_CHUNK at a time: for each chunk, the
    proposal increments beta chol xi (one row per step), the logs of the
    uniforms and whether each step's state is kept (every ``thinning``-th
    step from ``burn_in`` on)."""
    step_factor = cfg.beta * chol.T
    for start in range(0, cfg.iterations, DRAW_CHUNK):
        k = min(DRAW_CHUNK, cfg.iterations - start)
        noise = rng.standard_normal((k, chol.shape[0])) @ step_factor
        # log of a uniform on (0, 1]: finite, so an infinite potential never passes
        log_u = np.log1p(-rng.random(k)).tolist()
        step = np.arange(start, start + k)
        kept = ((step >= cfg.burn_in) & ((step - cfg.burn_in) % cfg.thinning == 0)).tolist()
        yield noise, log_u, kept


def _blocks(cfg: PcnConfig) -> list[tuple[slice, int | None]]:
    """The blocks in which a chain's kept states are recorded, in order, each
    with its batch: ``batches`` batches of ``kept // batches`` states, then
    the leftover states in batch None.  A block has at most RECORD_BLOCK
    rows and starts a new one at each multiple of the batch size."""
    size = cfg.kept // cfg.batches
    rows = min(RECORD_BLOCK, size)
    starts = [start for first in range(0, cfg.kept, size)
              for start in range(first, min(first + size, cfg.kept), rows)]
    return [(slice(a, b), a // size if a // size < cfg.batches else None)
            for a, b in zip(starts, starts[1:] + [cfg.kept])]


def _row_draws(cfg: PcnConfig, chols, rngs):
    """`_draws` for chains that each draw from their own stream with their
    own factor: for each chunk, every chain's `_draws` chunk, stacked as
    k x K x L increments and k x K logs of uniforms, and the keep flags,
    which ``cfg`` sets for all of them."""
    for parts in zip(*(_draws(cfg, chol, rng) for chol, rng in zip(chols, rngs))):
        noise, log_u, keeps = zip(*parts)
        yield np.stack(noise, axis=1), np.array(log_u).T, keeps[0]


def _lockstep_chains(potentials, draws,
                     cfg: PcnConfig) -> tuple[list[Chain], np.ndarray, np.ndarray]:
    """pCN on the labeled values of K chains, one per potential, as the rows
    of one K x L state v.

    Each row starts at `_start` of its potential.  Its proposal is
    c v + beta chol xi, c = sqrt(1 - beta^2), with chol a Cholesky factor
    of the row's prior covariance of v; the increments beta chol xi and the
    logs of the uniforms come from ``draws`` in chunks, as `_draws` yields
    them.  From `_draws` each step has one noise row and one uniform, which
    every chain shares (common random numbers); from `_row_draws` each step
    has one row and one uniform per chain, in the order of the rows below.
    The rows are grouped by potential class (a stable sort, so potentials of
    one class keep their order), each class values its block of rows in one
    call (``row_values``, which keeps the bits of ``value_at_labeled``), and
    each row accepts or rejects on its own, so the rows do not interact.
    Returns the chains, with ``state`` the final v and nothing recorded,
    their kept states (K x kept x L) and the number of steps accepted up to
    each (K x kept), in the order of ``potentials``.
    """
    classes = list(dict.fromkeys(type(p) for p in potentials))
    order = sorted(range(len(potentials)), key=lambda k: classes.index(type(potentials[k])))
    pots = [potentials[k] for k in order]
    v, phi = map(np.array, zip(*[_start(p) for p in pots]))
    c = math.sqrt(1.0 - cfg.beta ** 2)
    cv = c * v  # rows change only when their proposals are accepted
    # per-step buffers, and the block of rows that each class values
    proposal, phi_new, diff = np.empty_like(v), np.empty_like(phi), np.empty_like(phi)
    accept = np.empty(len(pots), dtype=bool)
    accept_rows = accept[:, None]
    groups, first = [], 0
    for cls in classes:
        members = [p for p in pots if type(p) is cls]
        block = slice(first, first + len(members))
        groups.append((proposal[block], phi_new[block], cls.row_values(members)))
        first += len(members)
    states = np.empty((len(pots), cfg.kept, v.shape[1]))
    accepts = np.empty((len(pots), cfg.kept), dtype=int)
    accepted, j = np.zeros(len(pots), dtype=int), 0
    for noise, log_u, keeps in draws:
        for xi, lu, keep in zip(noise, log_u, keeps):
            np.add(xi, cv, out=proposal)
            for x, out, values in groups:
                out[...] = values(x)
            np.subtract(phi, phi_new, out=diff)
            np.greater_equal(diff, lu, out=accept)
            np.copyto(v, proposal, where=accept_rows)
            np.copyto(phi, phi_new, where=accept)
            np.multiply(proposal, c, out=cv, where=accept_rows)
            accepted += accept
            if keep:
                states[:, j], accepts[:, j] = v, accepted
                j += 1
    chains = [Chain(state=v_k.copy(), phi=phi_k) for v_k, phi_k in zip(v, phi.tolist())]
    for chain, accepted_k in zip(chains, accepted.tolist()):
        chain.accepted, chain.steps = accepted_k, cfg.iterations
    rank = np.argsort(order)  # the row of each potential
    return [chains[k] for k in rank], states[rank], accepts[rank]


def run_pcn(prior: FractionalOperator, potential, cfg: PcnConfig, seed: int) -> Chain:
    """Run a full pCN chain on the stream of ``seed``; returns the chain with
    its recorded statistics.  The one-prior case of `run_pcn_chains`."""
    return run_pcn_chains([prior], potential, cfg, [seed])[0]


def run_pcn_chains(priors, potential, cfg: PcnConfig, seeds) -> list[Chain]:
    """Run a full pCN chain for each prior, chain k on the stream of
    ``seeds[k]`` with its own prior's label factor (`_row_draws`), the
    chains stepping together (`_lockstep_chains`); returns the chains with
    their recorded statistics, in the order of ``priors``.

    Each accept/reject chain is `run_label_pcn`'s chain on v = u_lab, drawn
    from the same stream, so the two accept the same steps for one seed.
    The coefficients are a = B v + R with B = diag(S) Q^T G^{-1}
    (Q = V[labeled], S the prior variances, G = Q diag(S) Q^T as
    `LabelConditional` keeps it, with its Cholesky factor), and the
    residual R, independent of v under the prior and under every proposal
    increment, moves only on accepted steps.  After n accepts it is
    c^n R + sqrt(1 - c^{2n}) rho with rho = s z - B Q (s z), s = sqrt(S),
    z ~ N(0, I_m), so it is drawn, from a second stream spawned from the
    first, only when a state is kept; it starts at 0.  Each kept a is
    rebuilt into the field V a, whose labeled entries are set to v exactly,
    and recorded by sign (`_record_fields`); with ``cfg.store_samples`` the
    fields are kept.
    """
    if not priors or len(priors) != len(seeds):
        raise ValueError(f"run_pcn_chains needs one seed per prior: "
                         f"{len(priors)} priors, {len(seeds)} seeds")
    conds = [LabelConditional(prior, potential.indices) for prior in priors]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    sampled = _lockstep_chains([potential] * len(priors),
                               _row_draws(cfg, [cond.chol for cond in conds], rngs), cfg)
    return [_record_fields(prior, cond, cfg, rng, *chain)
            for prior, cond, rng, *chain in zip(priors, conds, rngs, *sampled)]


def _record_fields(prior: FractionalOperator, cond: LabelConditional, cfg: PcnConfig,
                   rng: np.random.Generator, chain: Chain, states: np.ndarray,
                   accepts: np.ndarray) -> Chain:
    """Record the kept labeled values ``states`` of a chain that drew from
    ``rng``, with ``accepts`` steps accepted up to each, as `run_pcn_chains`
    describes: age the residual through each block of `_blocks`, rebuild
    the block's fields and record their signs.  ``chain.state`` becomes the
    final coefficients."""
    eig, idx = prior.eig, cond.indices
    std = prior_std(prior)
    Q = eig.vectors[idx, :]
    B_T = np.linalg.solve(cond.G, Q * std ** 2)  # L x m
    residual_rng = rng.spawn(1)[0]

    # log c^2, with c = sqrt(1 - beta^2); c = 0 at beta = 1
    log_c2 = math.log1p(-cfg.beta ** 2) if cfg.beta < 1.0 else -math.inf

    def aged(R: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """R after each count of accepted steps in ``steps`` in turn, one row each."""
        z = residual_rng.standard_normal((np.count_nonzero(steps), eig.m)) * std
        rho = z - (z @ Q.T) @ B_T
        out = np.empty((len(steps), eig.m))
        j = 0
        for i, n in enumerate(steps.tolist()):
            if n:
                R = math.exp(0.5 * n * log_c2) * R + math.sqrt(-math.expm1(n * log_c2)) * rho[j]
                j += 1
            out[i] = R
        return out

    # steps accepted since the previous kept state, at each kept state and at the end
    steps = np.diff(accepts, prepend=0, append=chain.accepted)
    R = np.zeros(eig.m)
    for block, batch in _blocks(cfg):
        residuals = aged(R, steps[block])
        R = residuals[-1]
        # one field per row: with the column-major eigenbasis this order of
        # the product runs about twice as fast as eig.vectors @ coefficients.T
        fields = (residuals + states[block] @ B_T) @ eig.vectors.T
        fields[:, idx] = states[block]
        chain.record(sign(fields), batch)
        if cfg.store_samples:
            chain.samples.extend(fields)
    chain.state = aged(R, steps[-1:])[0] + chain.state @ B_T
    return chain


class LabelConditional:
    """The law of u given its values v at the labeled nodes, u ~ N(0, C).

    With C = V diag(S) V^T the covariance of N(0, A^{-1}) truncated to the
    eigenbasis, K = C[:, idx] and G = K[idx] (`label_covariance`), node i
    given u_lab = v is Gaussian with mean (M v)_i, M = K G^{-1}, and variance
    s2_i = C_ii - (M K^T)_ii.  The labeled rows are exact: M is the identity
    there and s2 is 0.  ``indices`` holds idx, ``G`` the prior covariance of
    u_lab and ``chol`` its lower Cholesky factor.  Raises ValueError when G
    is singular (to roundoff).
    """

    def __init__(self, prior: FractionalOperator, indices: np.ndarray):
        V = prior.eig.vectors
        S = prior_std(prior) ** 2
        idx = np.asarray(indices, dtype=int)
        K, G = label_covariance(prior, idx)
        try:
            chol = np.linalg.cholesky(G)
        except np.linalg.LinAlgError:
            chol = np.zeros_like(G)
        tiny = idx.size * np.finfo(float).eps * np.max(np.diag(G), initial=0.0)
        if np.any(np.diag(chol) ** 2 <= tiny):
            raise ValueError("the prior covariance G of the labeled values is singular")
        M = np.linalg.solve(G, K.T).T
        s2 = np.clip(np.einsum("ij,ij,j->i", V, V, S) - np.einsum("ij,ij->i", M, K),
                     0.0, None)
        M[idx] = np.eye(idx.size)
        s2[idx] = 0.0
        self.indices, self.G, self.chol, self.M, self.s2 = idx, G, chol, M, s2
        self._exact = np.flatnonzero(s2 == 0.0)
        self._inv_scale = np.zeros_like(s2)
        pos = s2 > 0.0
        self._inv_scale[pos] = 1.0 / np.sqrt(2.0 * s2[pos])

    def mean_sign(self, states: np.ndarray) -> np.ndarray:
        """E[S(u_i) | u_lab = v] = erf(mu_i / (s_i sqrt 2)) with mu = M v, one
        row per row v of ``states`` (k x L); sign(mu_i) where s_i = 0."""
        out = states @ self.M.T
        exact = np.sign(out[:, self._exact])
        out *= self._inv_scale
        erf(out, out=out)
        out[:, self._exact] = exact
        return out


def run_label_pcn(prior: FractionalOperator, potentials, cfg: PcnConfig,
                  seed: int) -> list[Chain]:
    """pCN on the labeled values u_lab, with Rao-Blackwellized mean signs:
    one chain per potential, all on the stream of ``seed`` (`_lockstep_chains`).

    Targets the same posterior as `run_pcn` (prior A^{-1} truncated to the
    eigenbasis, potential seen at the labeled nodes), but the state is
    v = u_lab in R^L with prior N(0, G): the proposal c v + beta L_G xi
    costs O(L), and each kept v adds every node's exact conditional mean
    sign (`LabelConditional.mean_sign`) instead of the sign of a rebuilt
    field.  The potentials must share their labeled ``indices``.  No fields
    are kept, so ``cfg.store_samples`` must be False.
    """
    if cfg.store_samples:
        raise ValueError("run_label_pcn keeps no fields; store_samples must be False")
    if not potentials:
        raise ValueError("run_label_pcn needs at least one potential")
    indices = potentials[0].indices
    if any(not np.array_equal(p.indices, indices) for p in potentials):
        raise ValueError("the potentials of run_label_pcn must share their labeled indices")
    cond = LabelConditional(prior, indices)
    chains, states, _ = _lockstep_chains(
        potentials, _draws(cfg, cond.chol, np.random.default_rng(seed)), cfg)
    blocks = _blocks(cfg)
    for chain, chain_states in zip(chains, states):
        for block, batch in blocks:
            chain.record(cond.mean_sign(chain_states[block]), batch)
    return chains


def classification_stats(chain: Chain) -> tuple[np.ndarray, np.ndarray]:
    """Per-node mean of S(u) and its variance 1 - mean^2.

    For a Rao-Blackwellized chain (`run_label_pcn`) the mean averages the
    conditional mean signs E[S(u_i) | u_lab], and the variance column is
    still the posterior variance of S(u_i): S(u_i) is +-1 almost surely, so
    Var S(u_i) = 1 - (E S(u_i))^2 whichever estimator gives the mean.  It is
    not the variance of the averaged conditional means, which is smaller.
    """
    if chain.recorded < 100:
        raise ValueError("need at least 100 recorded samples")
    mean = chain.sum_sign / chain.recorded
    return mean, 1.0 - mean ** 2


def mean_sign_stderr(chain: Chain) -> np.ndarray:
    """Batch-means MC standard error of the per-node mean sign.

    Robust to autocorrelation at the batch scale; falls back to the naive
    i.i.d. estimate sqrt((1 - mean^2) / N) when ``batches`` < 4.  For a
    Rao-Blackwellized chain that fallback is an upper bound, not the
    estimate: each state adds a conditional mean sign h in [-1, 1], and
    Var h = E h^2 - mean^2 <= 1 - mean^2.
    """
    mean = chain.sum_sign / chain.recorded
    if len(chain.batch_sums) >= 4:
        B = np.asarray(chain.batch_sums) / (chain.recorded // len(chain.batch_sums))
        return np.std(B, axis=0, ddof=1) / math.sqrt(B.shape[0])
    var = np.clip(1.0 - mean ** 2, 0.0, None)
    return np.sqrt(var / chain.recorded)


def small_noise_agreement(prior: FractionalOperator, labels: LabelSet,
                          gammas, cfg: PcnConfig, seed: int) -> dict:
    """Compare probit and level-set chains against the indicator chain.

    Each potential is built from ``labels`` by ``for_graph``, a probit and a
    level-set potential per gamma, in decreasing order.  The indicator chain
    is the oracle for the zero-noise limit; the report carries per-gamma max
    node discrepancies of the mean sign field and the corresponding combined
    MC standard errors.  The chains run in one `run_label_pcn` call, on
    the stream of ``seed``: the comparison uses common random numbers.
    """
    gammas = sorted(gammas, reverse=True)
    kinds = (("probit", ProbitPotential), ("levelset", LevelSetPotential))
    entries = [(name, gamma, kind.for_graph(labels, gamma))
               for gamma in gammas for name, kind in kinds]
    pots = [IndicatorPotential.for_graph(labels)] + [pot for *_, pot in entries]
    ind_chain, *chains = run_label_pcn(prior, pots, cfg, seed)
    ind_mean, _ = classification_stats(ind_chain)
    ind_se = mean_sign_stderr(ind_chain)

    report = {"gammas": gammas, "probit": [], "levelset": [],
              "indicator_acceptance": ind_chain.acceptance_rate}
    for ch, (name, gamma, _) in zip(chains, entries):
        mean, _ = classification_stats(ch)
        se = mean_sign_stderr(ch)
        comb = np.sqrt(se ** 2 + ind_se ** 2)
        diff = np.abs(mean - ind_mean)
        report[name].append({
            "gamma": gamma,
            "max_discrepancy": float(np.max(diff)),
            "mean_discrepancy": float(np.mean(diff)),
            # positive part: 0 when every node lies inside its 3-SE band
            "max_excess_over_3se": float(np.max(np.maximum(diff - 3.0 * comb, 0.0))),
            "acceptance": ch.acceptance_rate,
        })
    return report

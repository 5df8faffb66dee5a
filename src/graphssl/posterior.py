"""pCN MCMC posteriors, with running classification statistics.

The reference sampler `run_pcn` keeps its state in the coefficients of the
prior's eigenbasis, where both the Gaussian reference measure and the pCN
proposal are diagonal.  The three supported potentials (probit, level-set,
sign-constraint indicator) see u only at the L labeled nodes, so
`run_label_pcn` runs the same pCN on u_lab in R^L, whose prior is N(0, rG),
and averages each node's exact conditional mean sign given u_lab
(Rao-Blackwellization) instead of rebuilding fields.  The acceptance rule
depends on the potential only through differences, so the potentials can be
compared on identical proposal streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from graphssl.labels import sign
from graphssl.spectral import FractionalOperator, prior_std

RECORD_BLOCK = 64  # most kept states whose fields one matrix product rebuilds
DRAW_CHUNK = 4096  # label-space steps whose normals and uniforms are drawn at once


@dataclass(frozen=True)
class PcnConfig:
    beta: float = 0.1
    iterations: int = 20_000
    burn_in: int = 2_000
    thinning: int = 10
    seed: int = 0
    store_samples: bool = False
    batches: int = 20  # batch-means blocks for MC standard errors

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must lie in (0, 1]")
        if self.thinning < 1 or self.batches < 1:
            raise ValueError("thinning and batches must be at least 1")


@dataclass
class Chain:
    """Running pCN state plus accumulated per-node classification statistics.

    ``state`` holds spectral coefficients for `run_pcn` and the values at
    the labeled nodes for `run_label_pcn`."""

    state: np.ndarray
    phi: float
    accepted: int = field(default=0, init=False)
    steps: int = field(default=0, init=False)
    recorded: int = field(default=0, init=False)
    sum_sign: np.ndarray | None = field(default=None, init=False)
    batch_sums: list = field(default_factory=list, init=False)
    batch_count: int = field(default=0, init=False)
    samples: list = field(default_factory=list, init=False)
    _batch_acc: np.ndarray | None = field(default=None, init=False, repr=False)

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / max(self.steps, 1)

    def accumulate(self, S: np.ndarray, batch_size: int) -> None:
        """Add a k x n block of per-state node values (signs, or conditional
        mean signs), one state per row in chain order, to the running mean
        and the batch means.  A block must lie within one batch-means batch."""
        k = S.shape[0]
        if self.batch_count + k > batch_size:
            raise ValueError("a record block may not span two batches")
        # sums of signs (from `record`) are exact integers, so summing a block
        # first is exact; sums of conditional mean signs depend on the
        # blocking at roundoff level
        s = S.sum(axis=0)
        if self.sum_sign is None:
            self.sum_sign = np.zeros_like(s)
            self._batch_acc = np.zeros_like(s)
        self.sum_sign += s
        self.recorded += k
        self._batch_acc += s
        self.batch_count += k
        if self.batch_count == batch_size:
            self.batch_sums.append(self._batch_acc / batch_size)
            self._batch_acc = np.zeros_like(s)
            self.batch_count = 0

    def record(self, U: np.ndarray, store: bool, batch_size: int) -> None:
        """Add a field, or a k x n block of fields (one per row, in chain
        order), to the running statistics.  A block must lie within one
        batch-means batch."""
        U = np.atleast_2d(U)
        self.accumulate(sign(U), batch_size)
        if store:
            self.samples.extend(U.copy())


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


def run_pcn(prior: FractionalOperator, potential, cfg: PcnConfig,
            r: float = 1.0, init: np.ndarray | None = None) -> Chain:
    """Run a full pCN chain; returns the chain with accumulated statistics.

    ``r`` scales the prior covariance to r * A^{-1}.  ``init`` is an initial
    state in node space (it must have finite potential, e.g. a kriging
    solution for the indicator potential).
    """
    eig = prior.eig
    rng = np.random.default_rng(cfg.seed)
    std = prior_std(prior, r)
    Q_lab = eig.vectors[potential.indices, :]

    a0 = np.zeros(eig.m) if init is None else eig.coeffs(init)
    phi0 = potential.value_at_labeled(Q_lab @ a0)
    if not np.isfinite(phi0):
        raise ValueError("initial state has infinite potential")
    chain = Chain(state=a0, phi=phi0)

    kept = max((cfg.iterations - cfg.burn_in) // cfg.thinning, 1)
    batch_size = max(kept // cfg.batches, 1)
    beta = cfg.beta
    c = math.sqrt(1.0 - beta ** 2)
    # kept states wait in a block whose fields are rebuilt by one matrix
    # product; it is flushed when full, at each batch boundary and at the end
    block = np.empty((min(RECORD_BLOCK, batch_size), eig.m))
    rows = 0

    def flush():
        # one field per row: with the column-major eigenbasis this order of
        # the product runs about twice as fast as eig.vectors @ block.T
        chain.record(block[:rows] @ eig.vectors.T, cfg.store_samples, batch_size)

    for it in range(cfg.iterations):
        pcn_step(chain, potential, rng, std, Q_lab, beta, c)
        if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thinning == 0:
            block[rows] = chain.state
            rows += 1
            if rows == len(block) or chain.batch_count + rows == batch_size:
                flush()
                rows = 0
    if rows:
        flush()
    return chain


class LabelConditional:
    """The law of u given its values v at the labeled nodes, u ~ N(0, C).

    With C = V diag(S) V^T the covariance of N(0, r * A^{-1}) truncated to
    the eigenbasis, K = C[:, idx] and G = K[idx], node i given u_lab = v is
    Gaussian with mean (M v)_i, M = K G^{-1}, and variance
    s2_i = C_ii - (M K^T)_ii.  The labeled rows are exact: M is the identity
    there and s2 is 0.  ``chol`` is the lower Cholesky factor of G, the prior
    covariance of u_lab.
    """

    def __init__(self, prior: FractionalOperator, indices: np.ndarray, r: float = 1.0):
        V = prior.eig.vectors
        S = prior_std(prior, r) ** 2
        idx = np.asarray(indices, dtype=int)
        # V @ (S Q_lab^T): no n x m temporary
        K = V @ (S[:, None] * V[idx, :].T)
        G = K[idx]
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
        self.chol, self.M, self.s2 = chol, M, s2
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


def run_label_pcn(prior: FractionalOperator, potential, cfg: PcnConfig,
                  r: float = 1.0, init: np.ndarray | None = None) -> Chain:
    """pCN on the labeled values u_lab, with Rao-Blackwellized mean signs.

    Targets the same posterior as `run_pcn` (prior r * A^{-1} truncated to
    the eigenbasis, potential seen at the labeled nodes), but the state is
    v = u_lab in R^L with prior N(0, rG): the proposal c v + beta L_G xi
    costs O(L), and each kept v adds every node's exact conditional mean
    sign (`LabelConditional.mean_sign`) instead of the sign of a rebuilt
    field.  ``init`` is projected as in `run_pcn`.  No fields are kept, so
    ``cfg.store_samples`` must be False.
    """
    if cfg.store_samples:
        raise ValueError("run_label_pcn keeps no fields; store_samples must be False")
    eig = prior.eig
    idx = np.asarray(potential.indices, dtype=int)
    cond = LabelConditional(prior, idx, r)
    rng = np.random.default_rng(cfg.seed)

    v = np.zeros(idx.size) if init is None else eig.vectors[idx, :] @ eig.coeffs(init)
    value = potential.value_at_labeled
    phi = value(v)
    if not np.isfinite(phi):
        raise ValueError("initial state has infinite potential")
    chain = Chain(state=v, phi=phi)

    kept = max((cfg.iterations - cfg.burn_in) // cfg.thinning, 1)
    batch_size = max(kept // cfg.batches, 1)
    c = math.sqrt(1.0 - cfg.beta ** 2)
    step_factor = cfg.beta * cond.chol.T
    block = np.empty((min(RECORD_BLOCK, batch_size), idx.size))
    rows = accepted = 0
    cv = c * v  # changes only when a proposal is accepted
    keep = cfg.burn_in  # next step whose state is kept
    for start in range(0, cfg.iterations, DRAW_CHUNK):
        k = min(DRAW_CHUNK, cfg.iterations - start)
        noise = rng.standard_normal((k, idx.size)) @ step_factor
        # log of a uniform on (0, 1]: finite, so an infinite potential never passes
        log_u = np.log1p(-rng.random(k)).tolist()
        for j in range(k):
            proposal = noise[j] + cv
            phi_new = value(proposal)
            if phi - phi_new >= log_u[j]:
                v, phi = proposal, phi_new
                cv = c * v
                accepted += 1
            if start + j == keep:
                keep += cfg.thinning
                block[rows] = v
                rows += 1
                if rows == len(block) or chain.batch_count + rows == batch_size:
                    chain.accumulate(cond.mean_sign(block[:rows]), batch_size)
                    rows = 0
    if rows:
        chain.accumulate(cond.mean_sign(block[:rows]), batch_size)
    chain.state, chain.phi = v, phi
    chain.accepted, chain.steps = accepted, cfg.iterations
    return chain


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
    i.i.d. estimate sqrt((1 - mean^2) / N) when fewer than 4 batches
    completed.  For a Rao-Blackwellized chain that fallback is an upper
    bound, not the estimate: each state adds a conditional mean sign h in
    [-1, 1], and Var h = E h^2 - mean^2 <= 1 - mean^2.
    """
    mean = chain.sum_sign / chain.recorded
    if len(chain.batch_sums) >= 4:
        B = np.asarray(chain.batch_sums)
        return np.std(B, axis=0, ddof=1) / math.sqrt(B.shape[0])
    var = np.clip(1.0 - mean ** 2, 0.0, None)
    return np.sqrt(var / chain.recorded)


def small_noise_agreement(prior: FractionalOperator, probit_pots: dict,
                          levelset_pots: dict, indicator_pot,
                          cfg: PcnConfig, r_n: float = 1.0,
                          indicator_init: np.ndarray | None = None) -> dict:
    """Compare probit and level-set chains against the indicator chain.

    ``probit_pots`` and ``levelset_pots`` map gamma -> potential, with gammas
    in decreasing order.  The indicator chain is the oracle for the zero-noise
    limit; the report carries per-gamma max node discrepancies of the mean
    sign field and the corresponding combined MC standard errors.

    The sign field of the constrained measure is invariant to the prior
    covariance scaling r, so each chain may use its own natural convention
    (probit: r_n * A^{-1}; level-set and indicator: A^{-1}).  Every chain is
    a `run_label_pcn` chain with the same ``cfg.seed``: the comparison uses
    common random numbers.
    """
    gammas = sorted(probit_pots, reverse=True)
    if sorted(levelset_pots, reverse=True) != gammas:
        raise ValueError("probit and level-set gamma lists must match")

    ind_chain = run_label_pcn(prior, indicator_pot, cfg, r=1.0, init=indicator_init)
    ind_mean, _ = classification_stats(ind_chain)
    ind_se = mean_sign_stderr(ind_chain)

    report = {"gammas": gammas, "probit": [], "levelset": [],
              "indicator_acceptance": ind_chain.acceptance_rate}
    for gamma in gammas:
        for name, pot, rr in (("probit", probit_pots[gamma], r_n),
                              ("levelset", levelset_pots[gamma], 1.0)):
            ch = run_label_pcn(prior, pot, cfg, r=rr)
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

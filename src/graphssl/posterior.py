"""pCN MCMC over spectral coefficients, with running classification statistics.

The chain state lives in the coefficients of the prior's eigenbasis, where
both the Gaussian reference measure and the pCN proposal are diagonal.  The
acceptance rule depends on the potential only through differences, so the
three supported potentials (probit, level-set, sign-constraint indicator) can
be compared on identical proposal streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from graphssl.labels import sign
from graphssl.spectral import FractionalOperator, prior_std


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


@dataclass
class Chain:
    """Running pCN state plus accumulated per-node classification statistics."""

    coeffs: np.ndarray
    phi: float
    accepted: int = 0
    steps: int = 0
    recorded: int = 0
    sum_sign: np.ndarray | None = None
    batch_sums: list = field(default_factory=list)
    batch_count: int = 0
    samples: list = field(default_factory=list)

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / max(self.steps, 1)

    def record(self, u: np.ndarray, store: bool, batch_size: int) -> None:
        s = sign(u)
        if self.sum_sign is None:
            self.sum_sign = np.zeros_like(u)
            self._batch_acc = np.zeros_like(u)
        self.sum_sign += s
        self.recorded += 1
        self._batch_acc += s
        self.batch_count += 1
        if self.batch_count == batch_size:
            self.batch_sums.append(self._batch_acc / batch_size)
            self._batch_acc = np.zeros_like(u)
            self.batch_count = 0
        if store:
            self.samples.append(u.copy())


def pcn_step(chain: Chain, potential, rng: np.random.Generator, std: np.ndarray,
             Q_lab: np.ndarray, beta: float, c: float) -> Chain:
    """One pCN proposal/accept step in spectral coordinates.

    Proposal: a' = c a + beta * xi with c = sqrt(1 - beta^2) and xi drawn
    from the prior's coefficient law; accepted with probability
    min(1, exp(phi(u) - phi(u'))).  The caller passes c so that it is
    computed once per chain.
    """
    a = chain.coeffs
    proposal = c * a + beta * (std * rng.standard_normal(a.shape[0]))
    phi_new = potential.value_at_labeled(Q_lab @ proposal)
    # exp(phi_old - phi_new) >= uniform; handle infinities without overflow
    if phi_new - chain.phi < -math.log(rng.random()):
        chain.coeffs = proposal
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
    chain = Chain(coeffs=a0, phi=phi0)

    kept = max((cfg.iterations - cfg.burn_in) // cfg.thinning, 1)
    batch_size = max(kept // cfg.batches, 1)
    beta = cfg.beta
    c = math.sqrt(1.0 - beta ** 2)
    for it in range(cfg.iterations):
        pcn_step(chain, potential, rng, std, Q_lab, beta, c)
        if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thinning == 0:
            u = eig.reconstruct(chain.coeffs)
            chain.record(u, cfg.store_samples, batch_size)
    return chain


def classification_stats(chain: Chain) -> tuple[np.ndarray, np.ndarray]:
    """Per-node mean of S(u) and its variance 1 - mean^2."""
    if chain.recorded < 100:
        raise ValueError("need at least 100 recorded samples")
    mean = chain.sum_sign / chain.recorded
    return mean, 1.0 - mean ** 2


def mean_sign_stderr(chain: Chain) -> np.ndarray:
    """Batch-means MC standard error of the per-node mean sign.

    Robust to autocorrelation at the batch scale; falls back to the naive
    i.i.d. estimate when too few batches completed.
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
    (probit: r_n * A^{-1}; level-set and indicator: A^{-1}).
    """
    gammas = sorted(probit_pots, reverse=True)
    if sorted(levelset_pots, reverse=True) != gammas:
        raise ValueError("probit and level-set gamma lists must match")

    ind_chain = run_pcn(prior, indicator_pot, cfg, r=1.0, init=indicator_init)
    ind_mean, _ = classification_stats(ind_chain)
    ind_se = mean_sign_stderr(ind_chain)

    report = {"gammas": gammas, "probit": [], "levelset": [],
              "indicator_acceptance": ind_chain.acceptance_rate}
    for gamma in gammas:
        for name, pot, rr in (("probit", probit_pots[gamma], r_n),
                              ("levelset", levelset_pots[gamma], 1.0)):
            ch = run_pcn(prior, pot, cfg, r=rr)
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

"""Spectral calculus for fractional precision operators.

An operator that is symmetric with respect to a weighted inner product
<a,b>_w = sum_i a_i b_i w_i is diagonalized into eigenpairs whose
eigenvectors are orthonormal in that inner product.  A prior's precision
A = (L + tau^2 I)^alpha, for the decomposed operator L and tau > 0, and its
powers A^p = (L + tau^2 I)^{alpha p} act diagonally on the eigenbasis; this is
exact at the truncation level, no matrix-function approximation is involved.

On graphs the inner product carries weights w_i = 1/n, so the 1/n appearing
in the energy (1/2n) <u, A u> is absorbed consistently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

DENSE_CUTOFF = 4096


class EigensolverError(RuntimeError):
    """Iterative eigensolver failed to converge."""


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenpairs of a symmetric operator w.r.t. a weighted inner product.

    ``vectors`` has orthonormal columns: vectors.T @ diag(weights) @ vectors
    equals the identity.  ``eigenvalues`` is nondecreasing.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    weights: np.ndarray

    @property
    def m(self) -> int:
        return len(self.eigenvalues)

    def coeffs(self, u: np.ndarray) -> np.ndarray:
        """Spectral coefficients <u, q_k>_w."""
        return self.vectors.T @ (u * self.weights)


def decompose(op, weights=None, m: int | None = None) -> EigenDecomposition:
    """m smallest eigenpairs of an operator symmetric w.r.t. diag(weights).

    Dense solver up to dimension DENSE_CUTOFF = 4096; shift-inverted Lanczos
    (ARPACK) above, which cannot return a full spectrum (ValueError).
    ``weights`` defaults to the uniform empirical weights 1/n.
    """
    n = op.shape[0]
    if weights is None:
        weights = np.full(n, 1.0 / n)
    weights = np.asarray(weights, dtype=float)
    if m is None:
        m = n
    if m > n:
        raise ValueError("cannot request more eigenpairs than the dimension")

    s = np.sqrt(weights)
    if sp.issparse(op):
        B = sp.diags(s) @ op @ sp.diags(1.0 / s)
    else:
        B = (s[:, None] * np.asarray(op)) / s[None, :]

    # full or near-full spectra of moderate operators go to the dense solver;
    # few modes of a sparse operator are cheaper by shift-inverted Lanczos
    use_dense = n <= DENSE_CUTOFF and (not sp.issparse(B) or m > n // 8)
    if use_dense:
        Bd = B.toarray() if sp.issparse(B) else B
        Bd = 0.5 * (Bd + Bd.T)
        lam, V = scipy.linalg.eigh(Bd)
        lam, V = lam[:m], V[:, :m]
    else:
        if m >= n:
            raise ValueError(f"a full spectrum of {n} nodes needs the dense eigensolver, "
                             f"which takes at most DENSE_CUTOFF = {DENSE_CUTOFF} nodes")
        Bs = sp.csc_matrix(B)
        Bs = 0.5 * (Bs + Bs.T)
        sigma = -1e-3 * max(float(abs(Bs.diagonal()).mean()), 1.0)
        # deterministic start vector: ARPACK's default v0 is random
        v0 = np.full(Bs.shape[0], 1.0 / math.sqrt(Bs.shape[0]))
        try:
            lam, V = spla.eigsh(Bs, k=m, sigma=sigma, which="LM", v0=v0)
        except spla.ArpackNoConvergence as exc:
            raise EigensolverError(
                f"ARPACK failed to converge: {len(exc.eigenvalues)} of {m} pairs, "
                f"residuals unavailable"
            ) from exc
        order = np.argsort(lam)
        lam, V = lam[order], V[:, order]

    Q = V / s[:, None]
    return EigenDecomposition(eigenvalues=lam, vectors=Q, weights=weights)


def decompose_graph(g) -> EigenDecomposition:
    """Eigendecomposition of the scaled Laplacian s_n L in the empirical inner
    product: the eigenvalues of L times ``g.s_n``, the eigenvectors of L."""
    from graphssl.graph import laplacian

    eig = decompose(laplacian(g))
    return replace(eig, eigenvalues=g.s_n * eig.eigenvalues)


@dataclass(frozen=True)
class FractionalOperator:
    """A = (L + tau^2 I)^alpha of the decomposed operator L, with tau > 0."""

    eig: EigenDecomposition
    alpha: float
    tau: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.tau <= 0:
            raise ValueError("tau must be positive")

    def powered(self, p: float) -> np.ndarray:
        """Eigenvalues of A^p, (lambda + tau^2)^{alpha*p}, with tiny negative
        lambda clipped to zero."""
        return (np.clip(self.eig.eigenvalues, 0.0, None) + self.tau ** 2) ** (self.alpha * p)


def apply_power(A: FractionalOperator, u: np.ndarray, p: float) -> np.ndarray:
    """Spectral action of A^p on u."""
    return A.eig.vectors @ (A.powered(p) * A.eig.coeffs(u))


def quadratic_form(A: FractionalOperator, u: np.ndarray) -> float:
    """J(u) = 1/2 sum_k (lambda_k + tau^2)^alpha <u, q_k>_w^2."""
    a = A.eig.coeffs(u)
    return float(0.5 * np.sum(A.powered(1.0) * a ** 2))


def prior_std(A: FractionalOperator) -> np.ndarray:
    """Per-mode standard deviations of N(0, A^{-1})."""
    return A.powered(-0.5)


def label_covariance(A: FractionalOperator, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K = C[:, indices] and G = K[indices], the prior covariance of the
    labeled values, for C = V diag(S) V^T the covariance of N(0, A^{-1})
    truncated to the eigenbasis (S = `prior_std` squared)."""
    idx = np.asarray(indices, dtype=int)
    V = A.eig.vectors
    S = prior_std(A) ** 2
    # V @ (S Q_lab^T): no n x m temporary
    K = V @ (S[:, None] * V[idx, :].T)
    return K, K[idx]


def weyl_exponent(eigenvalues: np.ndarray, k_min: int, k_max: int) -> float:
    """Least-squares slope of log(lambda_k) against log(k) over k in [k_min, k_max].

    Indices are 1-based and must exclude k = 1 (zero eigenvalue).
    """
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    if k_min < 2:
        raise ValueError("range must exclude k=1")
    k_max = min(k_max, len(eigenvalues))
    ks = np.arange(k_min, k_max + 1)
    if len(ks) < 5:
        raise ValueError("need at least 5 eigenvalues in range")
    lam = eigenvalues[ks - 1]
    if np.any(lam <= 0):
        raise ValueError("nonpositive eigenvalue in fit range")
    slope, _ = np.polyfit(np.log(ks), np.log(lam), 1)
    return float(slope)

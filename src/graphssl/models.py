"""Probit, Bayesian level-set and kriging objectives with MAP solvers.

Potentials act on the labeled coordinates of a latent vector; each labeled
point carries a multiplier that absorbs the fidelity weight r_n (graph
setting) or the quadrature weight of the label region (continuum setting).
MAP estimation uses damped Newton: in spectral coordinates on graphs (the
prior term is diagonal there and the misfit Hessian is low rank), and in node
space with sparse factorizations for continuum grids at integer alpha.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.special import erfc, log_ndtr

from graphssl.continuum import ContinuumOperator
from graphssl.labels import LabelSet, Model1Spec, Model2Spec
from graphssl.spectral import FractionalOperator, quadratic_form

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_ASYMPTOTIC_CUT = -8.0


def _log_ndtr_series(z: np.ndarray, max_terms: int = 25) -> np.ndarray:
    """log Phi(z) for z <= -8 via the Mills-ratio asymptotic expansion.

    log Phi(z) = -z^2/2 - log(-z sqrt(2 pi)) + log(1 - 1/z^2 + 3/z^4 - ...)
    The series is truncated when terms fall below 1e-14 (it is asymptotic;
    terms decrease monotonically in this regime).
    """
    z = np.asarray(z, dtype=float)
    inv_z2 = 1.0 / (z * z)
    series = np.zeros_like(z)
    term = np.ones_like(z)
    coeff = 1.0
    for k in range(1, max_terms + 1):
        coeff *= 2 * k - 1
        term = term * (-inv_z2)
        contrib = coeff * term
        series += contrib
        if np.max(np.abs(contrib)) < 1e-14:
            break
    return -0.5 * z * z - np.log(-z) - _LOG_SQRT_2PI + np.log1p(series)


def log_psi(v, gamma: float = 1.0):
    """Numerically stable log Psi(v; gamma) = log Phi(v / gamma).

    Three regimes: the asymptotic Mills-ratio expansion in the deep left
    tail, erfc in the central regime, and log1p of the upper tail mass for
    z >= 0 (where log(Phi) would lose all relative accuracy as Phi -> 1).
    Relative error below 1e-10 for v/gamma in [-30, 8].
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    z = np.asarray(v, dtype=float) / gamma
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.empty_like(z)
    tail = z < _ASYMPTOTIC_CUT
    upper = z >= 0.0
    mid = ~tail & ~upper
    if np.any(tail):
        out[tail] = _log_ndtr_series(z[tail])
    if np.any(mid):
        out[mid] = np.log(0.5 * erfc(-z[mid] / math.sqrt(2.0)))
    if np.any(upper):
        out[upper] = np.log1p(-0.5 * erfc(z[upper] / math.sqrt(2.0)))
    return float(out[0]) if scalar else out


def psi_ratio(v, gamma: float = 1.0):
    """psi(v;gamma) / Psi(v;gamma), the derivative of log Psi w.r.t. v.

    Computed as exp(log pdf - log cdf); stays finite far into the left tail
    where both factors underflow individually.
    """
    # Keeps log_psi rather than log_ndtr: an ulp-level change here flips the
    # signs of channel MAP nodes whose value is zero up to roundoff.
    z = np.asarray(v, dtype=float) / gamma
    log_pdf = -0.5 * z * z - _LOG_SQRT_2PI
    return np.exp(log_pdf - np.asarray(log_psi(v, gamma))) / gamma


# ---------------------------------------------------------------------------
# potentials


@dataclass(frozen=True)
class ProbitPotential:
    """Negative log-likelihood of probit labels, with per-label multipliers."""

    gamma: float
    indices: np.ndarray
    y: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")

    @classmethod
    def for_graph(cls, labels: LabelSet, gamma: float) -> "ProbitPotential":
        w = np.full(labels.size, labels.r_n)
        return cls(gamma=gamma, indices=labels.indices, y=labels.y, weights=w)

    def value(self, u: np.ndarray) -> float:
        return self.value_at_labeled(u[self.indices])

    def value_at_labeled(self, ul: np.ndarray) -> float:
        # log_ndtr is one ufunc call where log_psi makes about fifteen numpy
        # calls; this value is evaluated once per pCN step
        return -float(self.weights.dot(log_ndtr(self.y * ul / self.gamma)))

    def grad_at_labeled(self, ul: np.ndarray) -> np.ndarray:
        """d/du_j of the weighted potential, evaluated at labeled coordinates."""
        return -self.weights * self.y * psi_ratio(self.y * ul, self.gamma)

    def curvature_at_labeled(self, ul: np.ndarray) -> np.ndarray:
        """d^2/du_j^2 of the weighted potential (positive: -log Psi is convex)."""
        z = self.y * ul / self.gamma
        ratio = psi_ratio(self.y * ul, self.gamma) * self.gamma  # phi(z)/Phi(z)
        return self.weights * (ratio ** 2 + z * ratio) / self.gamma ** 2


@dataclass(frozen=True)
class LevelSetPotential:
    """Misfit (1/2 gamma^2) sum |y_j - S(u_j)|^2, piecewise constant in u."""

    gamma: float
    indices: np.ndarray
    y: np.ndarray
    weights: np.ndarray

    @classmethod
    def for_graph(cls, labels: LabelSet, gamma: float) -> "LevelSetPotential":
        w = np.full(labels.size, labels.r_n)
        return cls(gamma=gamma, indices=labels.indices, y=labels.y, weights=w)

    def value(self, u: np.ndarray) -> float:
        return self.value_at_labeled(u[self.indices])

    def value_at_labeled(self, ul: np.ndarray) -> float:
        misfit = (self.y - np.sign(ul)) ** 2
        return float(np.sum(self.weights * misfit) / (2.0 * self.gamma ** 2))


@dataclass(frozen=True)
class IndicatorPotential:
    """0 on the sign-consistency set {y_j u_j > 0 for all labeled j}, +inf off it."""

    indices: np.ndarray
    y: np.ndarray

    @classmethod
    def for_graph(cls, labels: LabelSet) -> "IndicatorPotential":
        return cls(indices=labels.indices, y=labels.y)

    def value(self, u: np.ndarray) -> float:
        return self.value_at_labeled(u[self.indices])

    def value_at_labeled(self, ul: np.ndarray) -> float:
        return 0.0 if (self.y * ul > 0).all() else math.inf


def continuum_labeled_nodes(op: ContinuumOperator, spec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Labeled grid nodes, labels and quadrature multipliers for a label spec.

    Model 1 labels every node in the regions with its mu-weight (the discrete
    analogue of integrating the misfit over the region); model 2 snaps each
    fixed point to its nearest grid node with unit multiplier.
    """
    coords = op.grid.coordinates()
    if isinstance(spec, Model1Spec):
        plus = spec.omega_plus if isinstance(spec.omega_plus, (tuple, list)) else (spec.omega_plus,)
        minus = spec.omega_minus if isinstance(spec.omega_minus, (tuple, list)) else (spec.omega_minus,)
        in_plus = np.any([r.contains(coords) for r in plus], axis=0)
        in_minus = np.any([r.contains(coords) for r in minus], axis=0)
        idx = np.flatnonzero(in_plus | in_minus)
        y = np.where(in_plus[idx], 1.0, -1.0)
        return idx, y, op.weights[idx]
    if isinstance(spec, Model2Spec):
        pts = np.atleast_2d(np.asarray(spec.points, dtype=float))
        idx = np.array([int(np.argmin(np.sum((coords - p) ** 2, axis=1))) for p in pts])
        return idx, np.asarray(spec.signs, dtype=float), np.ones(len(idx))
    raise TypeError(f"unknown labelling spec {type(spec)!r}")


# ---------------------------------------------------------------------------
# objectives and solvers


def probit_objective(u: np.ndarray, prior: FractionalOperator, pot: ProbitPotential) -> float:
    """J(u) = quadratic form + weighted probit misfit (weights absorb r_n)."""
    return quadratic_form(prior, u) + pot.value(u)


def levelset_objective(u: np.ndarray, prior: FractionalOperator, pot: LevelSetPotential) -> float:
    """Diagnostic only: this objective has no minimizer (scaling argument)."""
    return quadratic_form(prior, u) + pot.value(u)


@dataclass(frozen=True)
class MapSolverConfig:
    tol: float = 1e-8
    max_iter: int = 200

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")


class MapSolverError(RuntimeError):
    """Iteration budget exhausted; carries the last iterate and residual."""

    def __init__(self, iterate: np.ndarray, residual: float):
        super().__init__(f"MAP solver did not converge, residual {residual:.3e}")
        self.iterate = iterate
        self.residual = residual


def _armijo(objective, x, delta, J0, slope, scale=1e-12):
    """Backtracking line search; returns (step length, new point, new value)."""
    t = 1.0
    while t > 1e-12:
        x_new = x + t * delta
        J_new = objective(x_new)
        if J_new <= J0 + 1e-4 * t * slope + scale * abs(J0):
            return t, x_new, J_new
        t *= 0.5
    return t, x + t * delta, objective(x + t * delta)


def probit_map(prior: FractionalOperator, pot: ProbitPotential,
               cfg: MapSolverConfig | None = None,
               init: np.ndarray | None = None) -> np.ndarray:
    """Minimize the probit objective by damped Newton in spectral coordinates.

    The objective J(a) = 1/2 sum_k lam_k^alpha a_k^2 + Phi(Q_lab a) is smooth
    and strictly convex (tau > 0), so Newton with Armijo backtracking
    converges globally.  The misfit Hessian has rank at most the number of
    labels L, so each Newton system is solved by the Woodbury identity in
    O(L^2 m) when that is cheaper than a dense m x m solve.  Termination when
    the damped step norm or the Newton decrement falls below tolerance.
    """
    cfg = cfg or MapSolverConfig()
    eig = prior.eig
    lam_pow = prior.powered(1.0)
    if prior.tau <= 0.0 or lam_pow.min() <= 0.0:
        raise ValueError("probit MAP requires a strictly positive spectrum (tau > 0)")
    Q_lab = eig.vectors[pot.indices, :]
    L = Q_lab.shape[0]

    def objective(a):
        return float(0.5 * np.sum(lam_pow * a ** 2)) + pot.value_at_labeled(Q_lab @ a)

    a = np.zeros(eig.m) if init is None else eig.coeffs(init)
    J = objective(a)
    residual = math.inf
    for _ in range(cfg.max_iter):
        ul = Q_lab @ a
        g = lam_pow * a + Q_lab.T @ pot.grad_at_labeled(ul)
        curv = pot.curvature_at_labeled(ul)
        if L * L <= eig.m:
            # Woodbury: (D + Q^T C Q)^{-1} with D diagonal, C = diag(curv)
            Dg = g / lam_pow
            QD = Q_lab / lam_pow[None, :]
            active = curv > 0
            if np.any(active):
                Qa = Q_lab[active]
                M = np.diag(1.0 / curv[active]) + QD[active] @ Qa.T
                c = scipy.linalg.solve(M, Qa @ Dg, assume_a="pos")
                delta = -(Dg - QD[active].T @ c)
            else:
                delta = -Dg
        else:
            H = np.diag(lam_pow) + (Q_lab.T * curv[None, :]) @ Q_lab
            delta = -scipy.linalg.solve(H, g, assume_a="pos")
        decrement = float(np.sqrt(max(-np.dot(g, delta), 0.0)))
        t, a, J = _armijo(objective, a, delta, J, float(np.dot(g, delta)))
        residual = float(t * np.linalg.norm(delta))
        if residual <= cfg.tol or decrement <= cfg.tol:
            return eig.reconstruct(a)
    raise MapSolverError(eig.reconstruct(a), residual)


def map_gradient_norm(prior: FractionalOperator, pot: ProbitPotential, u: np.ndarray) -> float:
    """Norm of the spectral-coefficient gradient of the probit objective at u."""
    eig = prior.eig
    a = eig.coeffs(u)
    g = prior.powered(1.0) * a + eig.vectors[pot.indices, :].T @ pot.grad_at_labeled(u[pot.indices])
    return float(np.linalg.norm(g))


def krige(prior: FractionalOperator, labels_or_indices, y: np.ndarray | None = None) -> np.ndarray:
    """Minimum-energy interpolation of label values (closed form).

    u = A^{-1} R* (R A^{-1} R*)^{-1} y where R restricts to the labeled
    coordinates.  The interpolation property u(x_j) = y_j is independent of
    the adjoint's inner-product convention.
    """
    if isinstance(labels_or_indices, LabelSet):
        idx, yv = labels_or_indices.indices, labels_or_indices.y
    else:
        idx, yv = np.asarray(labels_or_indices), np.asarray(y, dtype=float)
    eig = prior.eig
    lam_inv = prior.powered(-1.0)
    Q_lab = eig.vectors[idx, :]
    gram = (Q_lab * lam_inv[None, :]) @ Q_lab.T
    c = _solve_gram(gram, yv, assume_a="pos")
    return eig.reconstruct(lam_inv * (Q_lab.T @ c))


def _solve_gram(gram: np.ndarray, y: np.ndarray, **kwargs) -> np.ndarray:
    """Solve the kriging Gram system, treating ill-conditioning as singular."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
        try:
            return scipy.linalg.solve(gram, y, **kwargs)
        except (scipy.linalg.LinAlgError, scipy.linalg.LinAlgWarning) as exc:
            raise ValueError("singular kriging Gram matrix") from exc


_DENSE_FILL = 0.05  # above this nonzero fraction, dense Cholesky beats sparse LU


class PoweredFactor:
    """A1 = matrix + tau^2 I factored once, with solves of A1^alpha.

    Sparse LU when the operator is truly sparse, dense Cholesky when fill-in
    would dominate (large-radius graphs are nearly complete).  ``solve``
    applies the single-factor inverse alpha times, which bounds rounding at
    large alpha.  One factor can serve the kriging and probit solvers of the
    same operator (pass it as ``factor``); ``unit_solves`` caches A1^-alpha
    applied to the unit vectors of a label set for them.
    """

    def __init__(self, matrix, alpha: int, tau: float):
        n = matrix.shape[0]
        self.alpha = int(alpha)
        self.A1 = (sp.csr_matrix(matrix) + tau ** 2 * sp.identity(n, format="csr")).tocsr()
        if self.A1.nnz > _DENSE_FILL * n * n:
            factor = scipy.linalg.cho_factor(self.A1.toarray())

            def solve1(v):
                # the factor is finite once computed; only the right-hand
                # side needs the finiteness check
                return scipy.linalg.cho_solve(factor, np.asarray_chkfinite(v),
                                              check_finite=False)
        else:
            solve1 = spla.splu(self.A1.tocsc()).solve
        self._solve1 = solve1
        self._units = {}

    def solve(self, v):
        for _ in range(self.alpha):
            v = self._solve1(v)
        return v

    def unit_solves(self, indices: np.ndarray) -> np.ndarray:
        """Columns A1^-alpha e_j for the labeled nodes j (n x len(indices))."""
        key = tuple(int(i) for i in indices)
        if key not in self._units:
            n = self.A1.shape[0]
            rhs = np.zeros((n, len(key)))
            rhs[list(key), np.arange(len(key))] = 1.0
            self._units[key] = np.column_stack(
                [self.solve(rhs[:, j]) for j in range(len(key))])
        return self._units[key]


def sparse_krige(matrix, alpha: int, tau: float,
                 indices: np.ndarray, y: np.ndarray,
                 factor: PoweredFactor | None = None) -> np.ndarray:
    """Minimum-energy interpolation via factored solves (integer alpha).

    ``matrix`` is the scaled sparse base operator; the closed form
    u = A^{-1} R* (R A^{-1} R*)^{-1} y is evaluated by applying the factors
    of (matrix + tau^2 I) alpha times to unit node vectors.  The interpolant
    is invariant to the inner-product convention of the evaluation adjoint.
    ``factor`` is a `PoweredFactor` of the same (matrix, alpha, tau).
    """
    if not float(alpha).is_integer() or alpha < 1:
        raise ValueError("sparse solvers require integer alpha >= 1")
    indices = np.asarray(indices)
    y = np.asarray(y, dtype=float)
    if factor is None:
        factor = PoweredFactor(matrix, int(alpha), tau)
    B = factor.unit_solves(indices)
    gram = B[indices, :]
    c = _solve_gram(gram, y)
    return B @ c


def sparse_probit_map(matrix, weights: np.ndarray, alpha: int, tau: float,
                      pot: ProbitPotential, cfg: MapSolverConfig | None = None,
                      init: np.ndarray | None = None,
                      factor: PoweredFactor | None = None) -> np.ndarray:
    """Damped Newton minimization of the probit objective in node space.

    ``matrix`` is the (already scaled) sparse base operator and ``weights``
    the inner-product weights making it symmetric: on graphs pass s_n * L and
    uniform 1/n weights, on continuum grids the discretized operator and its
    quadrature weights.  For integer alpha the precision operator
    (matrix + tau^2 I)^alpha stays sparse, so the objective can be minimized
    without spectral truncation.  The misfit is convex, hence Newton with
    Armijo backtracking converges globally.  With few labels the Hessian solve
    uses a Woodbury update of the once-factored prior operator; with many
    labels (continuum label regions) the full Hessian is refactored per step.
    Termination uses the Newton decrement, which is invariant to the extreme
    scale spread of the powered operator.  ``factor`` is a `PoweredFactor` of
    the same (matrix, alpha, tau).
    """
    if not float(alpha).is_integer() or alpha < 1:
        raise ValueError("sparse solvers require integer alpha >= 1")
    cfg = cfg or MapSolverConfig()
    n = matrix.shape[0]
    w = np.asarray(weights, dtype=float)
    idx = pot.indices
    n_lab = len(idx)
    if factor is None:
        factor = PoweredFactor(matrix, int(alpha), tau)
    A1, solve_powered = factor.A1, factor.solve
    use_woodbury = n_lab * n_lab <= n

    def apply_A(v):  # nested applications limit rounding at large alpha
        for _ in range(int(alpha)):
            v = A1 @ v
        return v

    if use_woodbury:
        AiE = factor.unit_solves(idx)
        gram_lab = AiE[idx, :]  # E^T A^{-1} E
    else:
        A = A1
        for _ in range(int(alpha) - 1):
            A = (A @ A1).tocsr()

    Av = None  # A v at the last objective evaluation: the next gradient

    def objective(v):
        nonlocal Av
        Av = apply_A(v)
        return 0.5 * float(np.sum(w * v * Av)) + pot.value_at_labeled(v[idx])

    def hessian_solve(grad, curv):
        if not use_woodbury:
            H = A + sp.csr_matrix((curv, (idx, idx)), shape=(n, n))
            return spla.splu(H.tocsc()).solve(-grad)
        # (A + E diag(curv) E^T)^{-1} via Woodbury on the factored A
        g1 = solve_powered(grad)
        active = curv > 0
        if not np.any(active):
            return -g1
        M = np.diag(1.0 / curv[active]) + gram_lab[np.ix_(active, active)]
        c = scipy.linalg.solve(M, g1[idx[active]], assume_a="pos")
        return -(g1 - AiE[:, active] @ c)

    u = np.zeros(n) if init is None else np.asarray(init, dtype=float).copy()
    J = objective(u)
    residual = math.inf
    for _ in range(cfg.max_iter):
        ul = u[idx]
        # the line search last evaluated the objective at u, so Av = A u
        grad = Av
        grad[idx] += pot.grad_at_labeled(ul) / w[idx]
        curv = pot.curvature_at_labeled(ul) / w[idx]
        delta = hessian_solve(grad, curv)
        slope = float(np.sum(w * grad * delta))
        decrement = math.sqrt(max(-slope, 0.0))
        t, u, J = _armijo(objective, u, delta, J, slope)
        residual = float(np.sqrt(np.sum(w * (t * delta) ** 2)))
        if residual <= cfg.tol or decrement <= cfg.tol:
            return u
    raise MapSolverError(u, residual)


def continuum_krige(op: ContinuumOperator, alpha: float, tau: float,
                    indices: np.ndarray, y: np.ndarray,
                    m: int | None = None) -> np.ndarray:
    """Minimum-energy interpolation on a continuum grid operator.

    For integer alpha the closed form is evaluated with sparse solves of the
    powered operator (no spectral truncation); otherwise it falls back to the
    spectral form on m modes.  The interpolant is invariant to the
    inner-product convention of the evaluation adjoint, so unit node vectors
    are used as right-hand sides.
    """
    indices = np.asarray(indices)
    y = np.asarray(y, dtype=float)
    if float(alpha).is_integer() and alpha >= 1 and m is None:
        return sparse_krige(op.matrix, int(alpha), tau, indices, y)
    prior = FractionalOperator(op.eigendecomposition(m=m), alpha=alpha, tau=tau, scale=1.0)
    return krige(prior, indices, y)


def continuum_probit_map(op: ContinuumOperator, alpha: float, tau: float,
                         pot: ProbitPotential,
                         cfg: MapSolverConfig | None = None,
                         m: int | None = None,
                         init: np.ndarray | None = None) -> np.ndarray:
    """Probit MAP for a continuum grid operator.

    With ``m`` set, minimizes over the span of the first m eigenmodes by the
    same Newton scheme used on graphs.  With ``m=None`` and integer alpha the
    sparse precision operator is used directly (no truncation), which is
    required when the density has near-degenerate regions that carry many
    low-eigenvalue localized modes.
    """
    cfg = cfg or MapSolverConfig()
    if m is None and float(alpha).is_integer() and alpha >= 1:
        return sparse_probit_map(op.matrix, op.weights, int(alpha), tau, pot, cfg, init)
    prior = FractionalOperator(op.eigendecomposition(m=m), alpha=alpha, tau=tau, scale=1.0)
    return probit_map(prior, pot, cfg=cfg, init=init)

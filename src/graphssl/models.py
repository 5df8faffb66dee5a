"""Probit, Bayesian level-set and kriging objectives with MAP solvers.

Potentials act on the labeled coordinates of a latent vector; each labeled
point carries a multiplier that absorbs the fidelity weight r_n (graph
setting) or the quadrature weight of the label region (continuum setting).

On graphs every solve runs in label space: the potentials see u only at the
L labeled nodes, so the minimizer of 1/2 <u, A u>_w + Phi(Ru) is u = K c with
K = A^-1 W^-1 R* and c in R^L.  With G = R K, kriging is u = K G^-1 y (the
closed form A^-1 R* (R A^-1 R*)^-1 y) and the probit MAP minimizes
1/2 c^T G c + Phi(G c) by damped Newton.  A backend supplies G and c -> K c,
from eigenpairs (`krige`, `probit_map` take a `FractionalOperator`) or from
one factorization at integer alpha (`sparse_krige`, `sparse_probit_map` take
a `PoweredFactor`, which the caller builds and may share between them).  A
`PoweredFactor` follows the type of its operator: a dense ndarray (the rates
sweep's `EpsilonSweep` returns one for dense enough graphs) is taken over,
Cholesky-factored in place and solved for all label columns at once; a
sparse matrix goes to sparse LU, one column at a time.  On continuum grids
`ContinuumOperator.factor` builds it and keeps the last one.

The continuum solvers route on alpha alone: a `factored` alpha (an integer
>= 1) takes that factor, any other every eigenpair of the grid operator.
On the factored route `continuum_probit_map` keeps a node-space Newton loop.
Channel fields have nodes whose value is zero up to roundoff; stored
references pin their signs, so that loop keeps its exact arithmetic until
those references are regenerated.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.special import erfc, log_ndtr

from graphssl.continuum import ContinuumOperator
from graphssl.labels import LabelSet, Model1Spec, Model2Spec, region_labels
from graphssl.spectral import FractionalOperator, quadratic_form

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def log_psi(v, gamma: float = 1.0):
    """Numerically stable log Psi(v; gamma) = log Phi(v / gamma).

    scipy's log_ndtr below zero, and log1p of the upper tail mass for z >= 0
    (where log(Phi) would lose all relative accuracy as Phi -> 1).
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    z = np.asarray(v, dtype=float) / gamma
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.empty_like(z)
    lower = z < 0.0
    out[lower] = log_ndtr(z[lower])
    # Keeps log1p rather than log_ndtr: an ulp-level change here flips the
    # signs of channel MAP nodes whose value is zero up to roundoff.
    out[~lower] = np.log1p(-0.5 * erfc(z[~lower] / math.sqrt(2.0)))
    return float(out[0]) if scalar else out


def psi_ratio(v, gamma: float = 1.0):
    """psi(v;gamma) / Psi(v;gamma), the derivative of log Psi w.r.t. v.

    Computed as exp(log pdf - log cdf); stays finite far into the left tail
    where both factors underflow individually.
    """
    z = np.asarray(v, dtype=float) / gamma
    log_pdf = -0.5 * z * z - _LOG_SQRT_2PI
    return np.exp(log_pdf - np.asarray(log_psi(v, gamma))) / gamma


# ---------------------------------------------------------------------------
# potentials


@dataclass(frozen=True)
class _LabelPotential:
    """A potential that sees u only at the labeled nodes ``indices``, with
    labels ``y``, noise level ``gamma`` and per-label multipliers ``weights``."""

    gamma: float
    indices: np.ndarray
    y: np.ndarray
    weights: np.ndarray

    @classmethod
    def for_graph(cls, labels: LabelSet, gamma: float):
        w = np.full(labels.size, labels.r_n)
        return cls(gamma=gamma, indices=labels.indices, y=labels.y, weights=w)

    def value(self, u: np.ndarray) -> float:
        return self.value_at_labeled(u[self.indices])


@dataclass(frozen=True)
class ProbitPotential(_LabelPotential):
    """Negative log-likelihood of probit labels, with per-label multipliers."""

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")

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
class LevelSetPotential(_LabelPotential):
    """Misfit (1/2 gamma^2) sum |y_j - S(u_j)|^2, piecewise constant in u."""

    def value_at_labeled(self, ul: np.ndarray) -> float:
        misfit = (self.y - np.sign(ul)) ** 2
        return float(self.weights.dot(misfit) / (2.0 * self.gamma ** 2))


@dataclass(frozen=True)
class IndicatorPotential(_LabelPotential):
    """0 on the sign-consistency set {y_j u_j > 0 for all labeled j}, +inf off
    it: the gamma -> 0 limit, which has no noise level or multipliers to set."""

    gamma: float = field(default=0.0, init=False)
    weights: None = field(default=None, init=False)

    @classmethod
    def for_graph(cls, labels: LabelSet) -> "IndicatorPotential":
        return cls(indices=labels.indices, y=labels.y)

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
        idx, y = region_labels(spec, coords)
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


# Newton stopping rule of every MAP solver: decrement (or node-space step
# norm) at most NEWTON_TOL, within NEWTON_MAX_ITER iterations
NEWTON_TOL = 1e-8
NEWTON_MAX_ITER = 200


class MapSolverError(RuntimeError):
    """Iteration budget or line search exhausted; carries the last iterate
    and residual (the Newton decrement, or the node-space step norm)."""

    def __init__(self, iterate: np.ndarray, residual: float):
        super().__init__(f"MAP solver did not converge, residual {residual:.3e}")
        self.iterate = iterate
        self.residual = residual


def _armijo(objective, x, delta, J0, slope):
    """Backtracking line search: (step length, new point, new value), or
    None when no step length down to 1e-12 satisfies the Armijo condition."""
    t = 1.0
    while t > 1e-12:
        x_new = x + t * delta
        J_new = objective(x_new)
        if J_new <= J0 + 1e-4 * t * slope + 1e-12 * abs(J0):
            return t, x_new, J_new
        t *= 0.5
    return None


@dataclass(frozen=True)
class _LabelSpace:
    """G = R K, the map c -> K c for K = A^-1 W^-1 R*, and the structure
    the Gram solve assumes."""

    gram: np.ndarray
    apply: Callable[[np.ndarray], np.ndarray]
    assume_a: str | None = None


def _spectral_space(prior: FractionalOperator, indices: np.ndarray) -> _LabelSpace:
    """K = Q diag(lam^-alpha) Q_lab^T from eigenpairs orthonormal in <.,.>_w."""
    eig = prior.eig
    lam_inv = prior.powered(-1.0)
    Q_lab = eig.vectors[indices, :]
    return _LabelSpace(gram=(Q_lab * lam_inv[None, :]) @ Q_lab.T,
                       apply=lambda c: eig.reconstruct(lam_inv * (Q_lab.T @ c)),
                       assume_a="pos")


def _factored_space(factor: PoweredFactor, indices: np.ndarray,
                    weights: np.ndarray | None = None) -> _LabelSpace:
    """K from the unit solves A1^-alpha e_j, column j scaled by 1/w_j
    (kriging passes no weights: its interpolant does not depend on them)."""
    K = factor.unit_solves(indices)
    if weights is not None:
        K = K / np.asarray(weights, dtype=float)[indices]
    return _LabelSpace(gram=K[indices, :], apply=lambda c: K @ c)


def _krige(space: _LabelSpace, y: np.ndarray) -> np.ndarray:
    return space.apply(_solve_gram(space.gram, y, assume_a=space.assume_a))


def _label_space_map(space: _LabelSpace, pot: ProbitPotential,
                     init: np.ndarray | None) -> np.ndarray:
    """Probit MAP u = K c by damped Newton on J(c) = 1/2 c^T G c + Phi(G c).

    The gradient is G r with r = c + grad Phi(G c) and the Hessian
    G (I + diag(Phi'') G), so a step solves (I + diag(Phi'') G) delta = -r.
    J is strictly convex, so Armijo backtracking converges globally; the loop
    stops once the Newton decrement is at most NEWTON_TOL.  Only the labeled
    values of ``init`` count: the start is their kriging interpolant.
    """
    G = space.gram

    def objective(c):
        v = G @ c
        return 0.5 * float(c @ v) + pot.value_at_labeled(v)

    c = np.zeros(len(G)) if init is None else _solve_gram(
        G, np.asarray(init, dtype=float)[pot.indices], assume_a=space.assume_a)
    J = objective(c)
    decrement = math.inf
    for _ in range(NEWTON_MAX_ITER):
        v = G @ c
        r = c + pot.grad_at_labeled(v)
        # Phi'' >= 0; past |z| ~ 1e4 in the wrong-sign tail roundoff can make
        # the computed value negative, and then delta need not descend
        curv = np.maximum(pot.curvature_at_labeled(v), 0.0)
        delta = -np.linalg.solve(np.eye(len(r)) + curv[:, None] * G, r)
        slope = float(r @ (G @ delta))
        decrement = math.sqrt(max(-slope, 0.0))
        step = _armijo(objective, c, delta, J, slope)
        if step is None:
            raise MapSolverError(space.apply(c), decrement)
        _, c, J = step
        if decrement <= NEWTON_TOL:
            return space.apply(c)
    raise MapSolverError(space.apply(c), decrement)


def probit_map(prior: FractionalOperator, pot: ProbitPotential,
               init: np.ndarray | None = None) -> np.ndarray:
    """Probit MAP over the span of the prior's eigenpairs, minimizing
    1/2 sum_k lam_k^alpha a_k^2 + Phi(Q_lab a) in label space; every mode
    needs positive precision (tau > 0)."""
    if prior.tau <= 0.0 or prior.powered(1.0).min() <= 0.0:
        raise ValueError("probit MAP requires a strictly positive spectrum (tau > 0)")
    return _label_space_map(_spectral_space(prior, pot.indices), pot, init)


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
    return _krige(_spectral_space(prior, idx), yv)


def _solve_gram(gram: np.ndarray, y: np.ndarray, **kwargs) -> np.ndarray:
    """Solve the kriging Gram system, treating ill-conditioning as singular."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
        try:
            return scipy.linalg.solve(gram, y, **kwargs)
        except (scipy.linalg.LinAlgError, scipy.linalg.LinAlgWarning) as exc:
            raise ValueError("singular kriging Gram matrix") from exc


def factored(alpha: float) -> bool:
    """Whether alpha takes the factored route (`PoweredFactor`): an integer
    alpha >= 1.  Every other alpha goes through eigenpairs."""
    return float(alpha).is_integer() and alpha >= 1


class PoweredFactor:
    """A1 = matrix + tau^2 I, factored on the first solve, with solves of A1^alpha
    for an integer alpha >= 1.

    A dense ndarray (`EpsilonSweep.scaled_laplacian` returns one for dense
    enough graphs) is taken over: tau^2 is added to its diagonal in place,
    and the first solve overwrites it with its Cholesky factor, which reads
    one triangle, so it must be symmetric.  Anything else is treated as
    sparse and goes to sparse LU, which needs no symmetry: the finite-volume
    operator is symmetric only in its rho-weighted inner product.  ``solve``
    applies the single-factor inverse alpha times, which bounds rounding at
    large alpha.  One factor can serve the kriging and probit solvers of the
    same operator; ``unit_solves`` caches A1^-alpha applied to the unit
    vectors of a label set for them.
    """

    def __init__(self, matrix, alpha: int, tau: float):
        if not factored(alpha):
            raise ValueError("sparse solvers require integer alpha >= 1")
        self.alpha = int(alpha)
        self._dense = isinstance(matrix, np.ndarray)
        if self._dense:
            matrix.flat[::matrix.shape[0] + 1] += tau ** 2
            self.A1 = matrix
        else:
            n = matrix.shape[0]
            self.A1 = (sp.csr_matrix(matrix) + tau ** 2 * sp.identity(n, format="csr")).tocsr()
        self._solve1 = None
        self._units = {}

    def _factor(self):
        if not self._dense:
            return spla.splu(self.A1.tocsc()).solve
        # A1 is symmetric, so its transpose is A1 in the Fortran order that
        # LAPACK factors in place
        factor = scipy.linalg.cho_factor(self.A1.T, overwrite_a=True, check_finite=False)

        def solve1(v):
            # the factor is finite once computed; only the right-hand side
            # needs the finiteness check
            return scipy.linalg.cho_solve(factor, np.asarray_chkfinite(v),
                                          check_finite=False)
        return solve1

    def solve(self, v):
        if self._solve1 is None:
            self._solve1 = self._factor()
        for _ in range(self.alpha):
            v = self._solve1(v)
        return v

    def unit_solves(self, indices: np.ndarray) -> np.ndarray:
        """Columns A1^-alpha e_j for the labeled nodes j (n x len(indices)).

        A dense factor solves all columns at once.  Sparse LU solves them one
        by one: a multi-column solve rounds differently, and the channel
        references pin signs that roundoff sets.
        """
        key = tuple(int(i) for i in indices)
        if key not in self._units:
            n = self.A1.shape[0]
            rhs = np.zeros((n, len(key)))
            rhs[list(key), np.arange(len(key))] = 1.0
            self._units[key] = self.solve(rhs) if self._dense else np.column_stack(
                [self.solve(rhs[:, j]) for j in range(len(key))])
        return self._units[key]


def sparse_krige(factor: PoweredFactor, indices: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Minimum-energy interpolation via factored solves (integer alpha).

    The closed form u = A^{-1} R* (R A^{-1} R*)^{-1} y is evaluated by
    applying the factor's A1^-1 alpha times to unit node vectors.  The
    interpolant is invariant to the inner-product convention of the
    evaluation adjoint.
    """
    return _krige(_factored_space(factor, np.asarray(indices)),
                  np.asarray(y, dtype=float))


def sparse_probit_map(factor: PoweredFactor, weights: np.ndarray,
                      pot: ProbitPotential,
                      init: np.ndarray | None = None) -> np.ndarray:
    """Probit MAP in label space with the factored precision operator.

    ``weights`` are the inner-product weights that make the factored
    operator symmetric: uniform 1/n weights for s_n * L on graphs.  No
    spectral truncation is involved.
    """
    return _label_space_map(_factored_space(factor, pot.indices, weights), pot, init)


def _node_space_probit_map(factor: PoweredFactor, weights: np.ndarray,
                           pot: ProbitPotential, init: np.ndarray | None) -> np.ndarray:
    """Damped Newton minimization of the probit objective in node space.

    ``factor`` holds the discretized continuum operator and ``weights`` its
    quadrature weights.  With few labels the Hessian solve uses a Woodbury
    update of the once-factored prior operator; with many labels (label
    regions) the full Hessian is refactored per step.  Termination uses the
    Newton decrement, which is invariant to the extreme scale spread of the
    powered operator, or the weighted norm of the damped step.
    """
    alpha = factor.alpha
    A1 = factor.A1  # only the Woodbury route factors it
    n = A1.shape[0]
    w = np.asarray(weights, dtype=float)
    idx = pot.indices
    use_woodbury = len(idx) ** 2 <= n

    if use_woodbury:
        AiE = factor.unit_solves(idx)
        gram_lab = AiE[idx, :]  # E^T A^{-1} E
    else:
        A = A1
        for _ in range(alpha - 1):
            A = (A @ A1).tocsr()

    def apply_A(v):  # nested applications limit rounding at large alpha
        for _ in range(alpha):
            v = A1 @ v
        return v

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
        g1 = factor.solve(grad)
        active = curv > 0
        if not np.any(active):
            return -g1
        M = np.diag(1.0 / curv[active]) + gram_lab[np.ix_(active, active)]
        c = scipy.linalg.solve(M, g1[idx[active]], assume_a="pos")
        return -(g1 - AiE[:, active] @ c)

    u = np.zeros(n) if init is None else np.asarray(init, dtype=float).copy()
    J = objective(u)
    residual = math.inf
    for _ in range(NEWTON_MAX_ITER):
        ul = u[idx]
        # the line search last evaluated the objective at u, so Av = A u
        grad = Av
        grad[idx] += pot.grad_at_labeled(ul) / w[idx]
        # clipped as in the label-space core: the tail curvature can be roundoff
        curv = np.maximum(pot.curvature_at_labeled(ul), 0.0) / w[idx]
        delta = hessian_solve(grad, curv)
        slope = float(np.sum(w * grad * delta))
        if slope > 0.0:  # an ascent direction: no step can be a descent
            raise MapSolverError(u, residual)
        decrement = math.sqrt(-slope)
        step = _armijo(objective, u, delta, J, slope)
        if step is None:
            raise MapSolverError(u, decrement)
        t, u, J = step
        residual = float(np.sqrt(np.sum(w * (t * delta) ** 2)))
        if residual <= NEWTON_TOL or decrement <= NEWTON_TOL:
            return u
    raise MapSolverError(u, residual)


def continuum_krige(op: ContinuumOperator, alpha: float, tau: float,
                    indices: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Minimum-energy interpolation on a continuum grid operator.

    A `factored` alpha evaluates the closed form with sparse solves of the
    powered operator (no spectral truncation), through ``op.factor``; any
    other alpha uses every eigenpair of the grid operator.  The interpolant
    is invariant to the inner-product convention of the evaluation adjoint,
    so unit node vectors are used as right-hand sides.
    """
    if factored(alpha):
        return sparse_krige(op.factor(int(alpha), tau), indices, y)
    prior = FractionalOperator(op.eigendecomposition(), alpha=alpha, tau=tau, scale=1.0)
    return krige(prior, indices, y)


def continuum_probit_map(op: ContinuumOperator, alpha: float, tau: float,
                         pot: ProbitPotential,
                         init: np.ndarray | None = None) -> np.ndarray:
    """Probit MAP for a continuum grid operator.

    A `factored` alpha uses the sparse precision operator, factored by
    ``op.factor``, directly (no truncation), which is required when the
    density has near-degenerate regions that carry many low-eigenvalue
    localized modes.  Any other alpha minimizes over every eigenpair of the
    grid operator by the same Newton scheme used on graphs.
    """
    if factored(alpha):
        return _node_space_probit_map(op.factor(int(alpha), tau), op.weights, pot, init)
    prior = FractionalOperator(op.eigendecomposition(), alpha=alpha, tau=tau, scale=1.0)
    return probit_map(prior, pot, init=init)

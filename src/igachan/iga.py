"""Generic information-geometry estimation engine with the rank-1 split.

The posterior of y = A h + z in natural coordinates has

    theta_or = sigma2^{-1} A^H y,
    precision_or = sigma2^{-1} A^H A + D^{-1}.

The engine splits those into Q auxiliary pieces (b_q, C_q) plus a shared
diagonal Lambda_c,

    sum_q b_q = theta_or,     sum_q C_q + diag(Lambda_c) = precision_or,

assigns each piece to an auxiliary Gaussian with free diagonal parameters
(lambda_q, Lambda_q), and iterates: m-project each auxiliary point onto the
diagonal manifold, exchange the resulting beliefs (xi_q, Xi_q), and update
the target point (lambda_0, Lambda_0) and every auxiliary point.  The linear
e-condition

    sum_q (lambda_q, Lambda_q) + (1 - Q) (lambda_0, Lambda_0) = 0

holds after every update by construction; at a fixed point all projections
coincide with the target (the m-condition) and the target mean solves the
MMSE normal equations.

The classic per-observation instantiation uses rank-1 pieces
C_q = g_q g_q^H with g_q a scaled conjugate row of A; projections then cost
O(N) each through the rank-1 inverse update, never densifying C_q.

The projected precisions depend on g_q only through |g_q|^2.  When every
row of |A|^2 is the same (every entry of the beam-domain A has modulus 1),
the precisions Lambda_q start equal and stay equal, so they are stored as
one shared (1, N) row and broadcast against the (Q, N) means; otherwise
they are a full (Q, N) array.  :func:`project_all` and
:func:`update_points` run both shapes and are the reference; on the shared
row :func:`run_iga` fuses them into one step of two mat-vecs (see
:func:`_shared_row_stepper`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, DomainError
from .estimators import MeasurementModel
from .report import EstimateReport, iterate

__all__ = [
    "SplitScheme",
    "AuxiliaryState",
    "build_rank1_split",
    "initial_state",
    "project_all",
    "update_points",
    "run_iga",
]

DEFAULT_ALPHA = 0.05


@dataclass(frozen=True)
class SplitScheme:
    """Additive split of the posterior natural parameters.

    The quadratic pieces are rank-1, C_q = factors[q] factors[q]^H with
    ``factors`` (Q, N), and the mean-parameter pieces lie along the same
    vectors, b_q = beta[q] factors[q] with ``beta`` (Q,); the (Q, N) array
    ``b`` is derived on demand and never stored.  ``lambda_c`` is the
    shared diagonal.  ``abs2`` is |factors|^2, derived once: a single
    (1, N) row when every row equals row 0 to within 1e-12 relative, else
    (Q, N).  The auxiliary precisions take its shape.
    """

    beta: np.ndarray
    lambda_c: np.ndarray
    factors: np.ndarray | None = None
    abs2: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=np.complex128)
        lc = np.asarray(self.lambda_c, dtype=np.float64).reshape(-1)
        if beta.ndim != 1:
            raise DomainError("beta must be a (Q,) vector")
        if np.any(lc < 0):
            raise DomainError("lambda_c entries must be nonnegative")
        if self.factors is None:
            raise DomainError("the rank-1 factors must be given")
        f = np.asarray(self.factors, dtype=np.complex128)
        if f.shape != (beta.size, lc.size):
            raise DomainError("factors must be (Q, N), matching beta and lambda_c")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "lambda_c", lc)
        object.__setattr__(self, "factors", f)
        abs2 = (f.conj() * f).real
        if np.allclose(abs2, abs2[:1], rtol=1e-12, atol=0.0):
            abs2 = abs2[:1].copy()
        object.__setattr__(self, "abs2", abs2)

    @property
    def q_count(self) -> int:
        return self.factors.shape[0]

    @property
    def dim(self) -> int:
        return self.factors.shape[1]

    @property
    def b(self) -> np.ndarray:
        """The (Q, N) mean-parameter pieces, row q = beta[q] factors[q]."""
        return self.beta[:, None] * self.factors

    def theta_or(self) -> np.ndarray:
        """sum_q b_q, the mean natural parameter being split."""
        return self.beta @ self.factors

    def precision(self) -> np.ndarray:
        """sum_q C_q + diag(lambda_c), the (N, N) precision being split."""
        return self.factors.T @ self.factors.conj() + np.diag(self.lambda_c)


@dataclass(frozen=True)
class AuxiliaryState:
    """Diagonal natural parameters of the Q auxiliary points and the target.

    ``Lam_q`` is (P, N) with P in {1, Q}: one row shared by every point, or
    one row per point.
    """

    lam_q: np.ndarray  # (Q, N) complex
    Lam_q: np.ndarray  # (P, N) real
    lam0: np.ndarray  # (N,) complex
    Lam0: np.ndarray  # (N,) real
    iteration: int = 0

    def e_condition_residual(self) -> float:
        """Max absolute violation of sum_q (.) + (1 - Q) (.)_0 = 0."""
        q = self.lam_q.shape[0]
        r1 = np.abs(self.lam_q.sum(axis=0) + (1 - q) * self.lam0).max()
        r2 = np.abs(self.Lam_q.sum(axis=0) * (q / self.Lam_q.shape[0])
                    + (1 - q) * self.Lam0).max()
        return float(max(r1, r2))


def build_rank1_split(model: MeasurementModel) -> SplitScheme:
    """Per-observation rank-1 split: one piece per sample of the model's y.

    With a_q the q-th column of A^H, the pieces are
    b_q = sigma2^{-1} a_q y_q and C_q = sigma2^{-1} a_q a_q^H, with
    Lambda_c = D^{-1}; the split identities then hold exactly by
    construction.  C_q is kept in factored form g_q = a_q / sigma_z, and
    b_q = beta_q g_q with beta_q = y_q / sigma_z.
    """
    A = model._require_dense("build_rank1_split")
    sigma = np.sqrt(model.sigma2)
    # row q is a_q^T; column-major, so broadcasts of a (Q,) or (N,) vector
    # over the (Q, N) arrays of a step run along Q in memory
    factors = np.conjugate(A, order="F")
    factors /= sigma
    return SplitScheme(beta=model.y / sigma, lambda_c=1.0 / model.d, factors=factors)


def initial_state(scheme: SplitScheme) -> AuxiliaryState:
    """All-zero start: lambda_c alone carries the covariance, and the
    e-condition holds trivially.  ``lam_q`` takes the shape and memory
    layout of ``factors``, ``Lam_q`` those of ``abs2``."""
    n = scheme.dim
    return AuxiliaryState(
        lam_q=np.zeros_like(scheme.factors),
        Lam_q=np.zeros_like(scheme.abs2),
        lam0=np.zeros(n, dtype=np.complex128),
        Lam0=np.zeros(n, dtype=np.float64),
        iteration=0,
    )


def project_all(scheme: SplitScheme, state: AuxiliaryState):
    """Beliefs (xi_q, Xi_q) of all Q auxiliary points: xi is (Q, N), Xi has
    the shape of the precisions, (1, N) when shared.

    Point q has precision Lambda_q + C_q + lambda_c and mean parameter
    lambda_q + b_q; it is m-projected onto the diagonal manifold and the
    belief is the natural-parameter increment relative to (lambda_q,
    Lambda_q).  The precision is diag(w) + g g^H with w = Lambda_q +
    lambda_c, so its inverse is one diagonal solve plus a rank-1
    correction: with denom = 1 + sum |g|^2 / w, the projected variance is
    var = (1 - |g|^2 / (w denom)) / w.  With r = 1 / (w var) the projected
    natural parameters are theta = r (m - g (g^H (m / w)) / denom) and
    1 / var = w + (r / denom) |g|^2, all in O(Q N).
    """
    w = state.Lam_q + scheme.lambda_c
    if np.any(w <= 0):
        raise DomainError("auxiliary covariance lost positivity (Lambda_q + lambda_c <= 0)")
    g = scheme.factors
    m = scheme.b
    m += state.lam_q
    inv_w = 1.0 / w
    denom = 1.0 + np.sum(scheme.abs2 * inv_w, axis=1, keepdims=True)
    r_over_denom = w / (w * denom - scheme.abs2)
    # the (Q, N) steps reuse one buffer: at the default scenario each
    # (Q, N) temporary would be a fresh 35 MB allocation
    xi = np.conjugate(g)
    xi *= m
    xi *= inv_w
    gHm_over_denom = xi.sum(axis=1, keepdims=True) / denom
    np.multiply(g, gHm_over_denom, out=xi)
    np.subtract(m, xi, out=xi)
    xi *= r_over_denom * denom
    xi -= state.lam_q
    Xi = r_over_denom * scheme.abs2
    return xi, Xi


def update_points(state: AuxiliaryState, xi: np.ndarray, Xi: np.ndarray,
                  alpha: float, lambda_c: np.ndarray | None = None) -> AuxiliaryState:
    """Damped belief exchange.

    Undamped: lambda_0 <- sum_q xi_q, Lambda_0 <- sum_q Xi_q, and
    lambda_q <- lambda_0 - xi_q (likewise for precisions).  With damping
    alpha each parameter moves only a fraction alpha of the way; since both
    endpoints satisfy the e-condition, so does the combination.  A shared
    (1, N) ``Xi`` stands for Q equal rows, so its sum is scaled by Q.
    """
    if not (0 < alpha <= 1):
        raise DomainError("alpha must lie in (0, 1]")
    lam0_new = xi.sum(axis=0)
    lam0 = alpha * lam0_new + (1 - alpha) * state.lam0
    lam_q = np.subtract(lam0_new, xi)  # updated in place, as xi in project_all
    lam_q *= alpha
    lam_q += (1 - alpha) * state.lam_q
    Lam0, Lam_q = _damped_precisions(state, Xi, xi.shape[0], alpha, lambda_c)
    return AuxiliaryState(lam_q=lam_q, Lam_q=Lam_q, lam0=lam0, Lam0=Lam0,
                          iteration=state.iteration + 1)


def _damped_precisions(state: AuxiliaryState, Xi: np.ndarray, q: int, alpha: float,
                       lambda_c: np.ndarray | None):
    """(Lambda_0, Lambda_q) after the damped exchange of the precision beliefs
    ``Xi`` of Q = ``q`` points; with ``lambda_c``, a target precision that
    loses positivity raises :class:`DivergenceError`."""
    Lam0_new = Xi.sum(axis=0) * (q / Xi.shape[0])
    Lam0 = alpha * Lam0_new + (1 - alpha) * state.Lam0
    Lam_q = alpha * (Lam0_new - Xi) + (1 - alpha) * state.Lam_q
    if lambda_c is not None and (Lam0 + lambda_c <= 0).any():
        raise DivergenceError(
            "target precision lost positivity; reduce the damping coefficient alpha"
        )
    return Lam0, Lam_q


def _shared_row_stepper(scheme: SplitScheme, alpha: float):
    """One damped project/update step for a shared (1, N) precision row,
    with the (Q, N) beliefs never formed.

    With w, denom and R = r_over_denom * denom of :func:`project_all`
    shared by every point, and b_q = beta_q g_q, the mean belief is
    xi_q = (R - 1) lambda_q + R g_q gamma_q, where

        s_q = sum_n conj(g_qn) lambda_qn / w_n + beta_q sum_n |g_n|^2 / w_n,
        gamma_q = beta_q - s_q / denom.

    The e-condition gives sum_q lambda_q = (Q - 1) lambda_0, so the exchange
    of :func:`update_points` becomes

        lambda_0^new = (R - 1) (Q - 1) lambda_0 + R (G^T gamma),
        lambda_q <- alpha lambda_0^new + (1 - alpha R) lambda_q
                    - alpha R g_q gamma_q,

    two mat-vecs and seven (Q, N) passes, where project/update make about
    sixteen; the precisions update as in :func:`update_points`.  The
    returned step writes the new lambda_q over the lambda_q array of the
    state before the one it is given, so call it on the state it returned
    last and keep no older state.
    """
    g, beta, abs2, lc = scheme.factors, scheme.beta, scheme.abs2, scheme.lambda_c
    q = scheme.q_count
    spare = np.empty_like(g)

    def step(state: AuxiliaryState) -> AuxiliaryState:
        nonlocal spare
        w = state.Lam_q + lc
        if (w <= 0).any():
            raise DomainError("auxiliary covariance lost positivity (Lambda_q + lambda_c <= 0)")
        inv_w = 1.0 / w
        spread = (abs2 * inv_w).sum(axis=1, keepdims=True)
        denom = 1.0 + spread
        r_over_denom = w / (w * denom - abs2)
        R = (r_over_denom * denom)[0]
        lam_q, buf = state.lam_q, spare
        np.conjugate(g, out=buf)
        buf *= lam_q
        s = buf @ inv_w[0]
        s += beta * spread[0, 0]
        gamma = beta - s / denom[0, 0]
        lam0_new = (R - 1) * ((q - 1) * state.lam0) + R * (gamma @ g)
        np.multiply(g, gamma[:, None], out=buf)
        buf += lam_q
        buf *= -alpha * R
        buf += lam_q
        buf += alpha * lam0_new
        spare = lam_q
        Lam0, Lam_q = _damped_precisions(state, r_over_denom * abs2, q, alpha, lc)
        return AuxiliaryState(lam_q=buf, Lam_q=Lam_q,
                              lam0=alpha * lam0_new + (1 - alpha) * state.lam0, Lam0=Lam0,
                              iteration=state.iteration + 1)

    return step


def run_iga(scheme: SplitScheme, alpha: float = DEFAULT_ALPHA, t_max: int = 100,
            tol: float = 1e-8) -> EstimateReport:
    """Iterate project/update until the target mean settles.

    A shared precision row runs the fused step of
    :func:`_shared_row_stepper`; a (Q, N) one runs :func:`project_all` and
    :func:`update_points`.  The target mean is
    mu_0 = lambda_0 / (Lambda_0 + lambda_c) and the reported variances are
    1 / (Lambda_0 + lambda_c).  Stop and divergence rules are those of
    :func:`igachan.report.iterate`.
    """
    if not (0 < alpha <= 1):
        raise DomainError("alpha must lie in (0, 1]")
    theta = scheme.theta_or()
    theta_norm = float(np.linalg.norm(theta)) or 1.0
    precision = scheme.precision()  # (N, N): no product with a (Q, N) array per step

    def measure(state):
        mu = state.lam0 / (state.Lam0 + scheme.lambda_c)
        return mu, float(np.linalg.norm(precision @ mu - theta)) / theta_norm

    if scheme.abs2.shape[0] == 1:
        step = _shared_row_stepper(scheme, alpha)
    else:
        def step(state):
            xi, Xi = project_all(scheme, state)
            return update_points(state, xi, Xi, alpha, lambda_c=scheme.lambda_c)

    return iterate(step, measure, initial_state(scheme), t_max, tol,
                   config={"algorithm": "iga", "alpha": alpha, "t_max": t_max, "tol": tol},
                   variances=lambda state: 1.0 / (state.Lam0 + scheme.lambda_c))

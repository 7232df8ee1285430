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
one shared (1, N) row; otherwise they are a full (Q, N) array.
:func:`project_all` and :func:`update_points` run both shapes and are the
reference.  On the shared row every lambda_q stays in the span of the
N + 1 columns of Psi = [beta, conj(G)], G the (Q, N) matrix of rows g_q,
so :func:`run_iga` runs the whole iteration from A^H A and A^H y in
O(N^2) per step (see :func:`_gram_stepper`): no A is formed and no (Q, N)
array.  A Gaussian A keeps the O(Q N) rank-1 step.

:data:`IGA` describes that Gram-domain iteration as an
:class:`igachan.report.Iterative` record, which :func:`igachan.report.run`
drives on a list of models in lockstep.  :func:`run_iga` takes one
:class:`MeasurementModel`, as :func:`igachan.ic.run_estimator` does.  The
split's (N, N) precision is never formed to measure a run: the driver takes
every residual from the model's one A^H A.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DivergenceError, DomainError
from .estimators import MeasurementModel, ModelBatch
from .report import EstimateReport, Iterative, rows_at_fault, run, single

__all__ = [
    "IGA",
    "SplitScheme",
    "AuxiliaryState",
    "build_rank1_split",
    "initial_state",
    "project_all",
    "update_points",
    "run_iga",
]


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
    factors: np.ndarray
    abs2: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=np.complex128)
        lc = np.asarray(self.lambda_c, dtype=np.float64).reshape(-1)
        if beta.ndim != 1:
            raise DomainError("beta must be a (Q,) vector")
        if np.any(lc < 0):
            raise DomainError("lambda_c entries must be nonnegative")
        f = np.asarray(self.factors, dtype=np.complex128)
        if f.shape != (beta.size, lc.size):
            raise DomainError("factors must be (Q, N), matching beta and lambda_c")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "lambda_c", lc)
        object.__setattr__(self, "factors", f)
        abs2 = f.real ** 2 + f.imag ** 2
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

    def precision(self) -> np.ndarray:
        """sum_q C_q + diag(lambda_c), the (N, N) precision being split: an
        oracle for the split identity, which no run forms."""
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

    def e_condition_residual(self) -> float:
        """Max absolute violation of sum_q (.) + (1 - Q) (.)_0 = 0."""
        q = self.lam_q.shape[0]
        r1 = np.abs(self.lam_q.sum(axis=0) + (1 - q) * self.lam0).max()
        r2 = np.abs(self.Lam_q.sum(axis=0) * (q / self.Lam_q.shape[0])
                    + (1 - q) * self.Lam0).max()
        return float(max(r1, r2))


def build_rank1_split(model: MeasurementModel) -> SplitScheme:
    """Per-observation rank-1 split of a dense model: one piece per sample of y.

    With a_q the q-th column of A^H, the pieces are
    b_q = sigma2^{-1} a_q y_q and C_q = sigma2^{-1} a_q a_q^H, with
    Lambda_c = D^{-1}; the split identities then hold exactly by
    construction.  C_q is kept in factored form g_q = a_q / sigma_z, and
    b_q = beta_q g_q with beta_q = y_q / sigma_z.  An operator model has no
    rows to split, and a model given only A^H y has no y_q:
    :func:`run_iga` runs a model with a shared precision row in the Gram
    domain.
    """
    if not model.is_dense or model.y is None:
        raise DomainError("the rank-1 split needs a dense A and y")
    sigma = np.sqrt(model.sigma2)
    # row q is a_q^T
    return SplitScheme(beta=model.y / sigma, lambda_c=1.0 / model.d,
                       factors=np.conjugate(model.A) / sigma)


def initial_state(scheme: SplitScheme) -> AuxiliaryState:
    """All-zero start: lambda_c alone carries the covariance, and the
    e-condition holds trivially.  ``lam_q`` takes the shape of ``factors``,
    ``Lam_q`` that of ``abs2``."""
    n = scheme.dim
    return AuxiliaryState(
        lam_q=np.zeros_like(scheme.factors),
        Lam_q=np.zeros_like(scheme.abs2),
        lam0=np.zeros(n, dtype=np.complex128),
        Lam0=np.zeros(n, dtype=np.float64),
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
    m = scheme.b + state.lam_q
    inv_w = 1.0 / w
    denom = 1.0 + np.sum(scheme.abs2 * inv_w, axis=1, keepdims=True)
    r_over_denom = w / (w * denom - scheme.abs2)
    gHm_over_denom = np.sum(np.conjugate(g) * m * inv_w, axis=1, keepdims=True) / denom
    xi = r_over_denom * denom * (m - g * gHm_over_denom) - state.lam_q
    Xi = r_over_denom * scheme.abs2
    return xi, Xi


def update_points(state: AuxiliaryState, xi: np.ndarray, Xi: np.ndarray,
                  alpha: float, lambda_c: np.ndarray) -> AuxiliaryState:
    """Damped belief exchange.

    Undamped: lambda_0 <- sum_q xi_q, Lambda_0 <- sum_q Xi_q, and
    lambda_q <- lambda_0 - xi_q (likewise for precisions).  With damping
    alpha each parameter moves only a fraction alpha of the way; since both
    endpoints satisfy the e-condition, so does the combination.  A shared
    (1, N) ``Xi`` stands for Q equal rows, so its sum is scaled by Q.  A
    target precision Lambda_0 + ``lambda_c`` that loses positivity raises
    :class:`DivergenceError`.
    """
    if not (0 < alpha <= 1):
        raise DomainError("alpha must lie in (0, 1]")
    lam0_new = xi.sum(axis=0)
    lam0 = alpha * lam0_new + (1 - alpha) * state.lam0
    lam_q = alpha * (lam0_new - xi) + (1 - alpha) * state.lam_q
    Lam0_new = Xi.sum(axis=0) * (xi.shape[0] / Xi.shape[0])
    Lam0, Lam_q = _damped_precisions(state, Lam0_new, Xi, alpha, lambda_c)
    return AuxiliaryState(lam_q=lam_q, Lam_q=Lam_q, lam0=lam0, Lam0=Lam0)


def _damped_precisions(state, Lam0_new: np.ndarray, Xi: np.ndarray, alpha: float,
                       lambda_c: np.ndarray):
    """(Lambda_0, Lambda_q) after the damped exchange of the precision beliefs
    ``Xi``, whose sum over the points is ``Lam0_new``; a target precision
    Lambda_0 + ``lambda_c`` that loses positivity raises
    :class:`DivergenceError` naming the batch rows at fault."""
    Lam0 = alpha * Lam0_new + (1 - alpha) * state.Lam0
    Lam_q = alpha * (Lam0_new - Xi) + (1 - alpha) * state.Lam_q
    lost = Lam0 + lambda_c <= 0
    if lost.any():
        raise DivergenceError(
            "target precision lost positivity; reduce the damping coefficient alpha",
            rows=rows_at_fault(lost))
    return Lam0, Lam_q


class _GramPoint(NamedTuple):
    """The state of :func:`_gram_stepper` for B runs on shared precision rows,
    zero-padded as their :class:`ModelBatch`.

    Every lambda_q of run b is ``u[b] + g_q * (Psi_q X[b])``, with Psi_q =
    [beta_q, conj(g_q)] the q-th row of the (Q, N + 1) basis Psi = [beta,
    conj(G)]; ``lam0``, ``Lam0`` and the shared row ``Lam_q`` are those of
    :class:`AuxiliaryState`.  The last four fields are each run's constants,
    carried in the point so that they leave the batch with their run.
    """

    u: np.ndarray  # (B, N) complex
    X: np.ndarray  # (B, N + 1, N) complex
    lam0: np.ndarray  # (B, N) complex
    Lam0: np.ndarray  # (B, N) real
    Lam_q: np.ndarray  # (B, N) real
    abs2: np.ndarray  # (B, N) real: the shared row |g_q|^2, padded with 0
    lc: np.ndarray  # (B, N) real: lambda_c = 1 / d, padded with 1
    q: np.ndarray  # (B, 1) real: Q
    gt_psi: np.ndarray  # (B, N, N + 1) complex: G^T Psi


def _gram_stepper(batch: ModelBatch, alpha: float):
    """(start, step): the damped project/update iteration of the rank-1 split
    of every model of ``batch``, on its shared (1, N) precision row
    |g_q|^2 (:func:`_shared_row`), run from A^H A and A^H y alone.

    With w, denom and R = r_over_denom * denom of :func:`project_all`
    shared by every point, and b_q = beta_q g_q, the mean belief is
    xi_q = (R - 1) lambda_q + R g_q gamma_q with gamma_q = beta_q - s_q / denom,
    s_q = sum_n conj(g_qn) lambda_qn / w_n + beta_q sum_n |g_n|^2 / w_n.  The
    e-condition gives sum_q lambda_q = (Q - 1) lambda_0, so the exchange of
    :func:`update_points` is

        lambda_0^new = (R - 1) (Q - 1) lambda_0 + R (G^T gamma),
        lambda_q <- alpha lambda_0^new + (1 - alpha R) lambda_q
                    - alpha R g_q gamma_q.

    From the all-zero start every lambda_q stays u + g_q * (Psi_q X) (see
    :class:`_GramPoint`): then s = Psi c_s and gamma = Psi c_gamma with

        c_s = X (|g|^2 / w) + [spread; u / w],   c_gamma = e_0 - c_s / denom,

    and G^T Psi = [A^H y, A^H A] / sigma2, so a step is

        lambda_0^new = (R - 1) (Q - 1) lambda_0 + R ([A^H y, A^H A] c_gamma) / sigma2,
        u <- (1 - alpha R) u + alpha lambda_0^new,
        X <- X diag(1 - alpha R) - c_gamma (alpha R)^T,

    O(N^2) with no (Q, N) array; the precisions update as in
    :func:`update_points`.  The sum ``spread`` and the products with X and
    G^T Psi run per run on its unpadded view, the rest once on the batch.
    """
    rows, width = len(batch.models), batch.width
    abs2 = np.zeros((rows, width))
    # G^T Psi: the one product of the factors with the span
    gt_psi = np.zeros((rows, width, width + 1), dtype=np.complex128)
    for b, (model, n) in enumerate(zip(batch.models, batch.sizes)):
        row = _shared_row(model)
        if row is None:
            raise DomainError("IGA's Gram-domain step needs one shared precision row; "
                              "run_iga runs a dense A whose |A|^2 rows differ")
        abs2[b, :n] = row[0]
        gt_psi[b, :n, 0] = model.ahy
        gt_psi[b, :n, 1:n + 1] = model.gram()
    gt_psi /= batch.sigma2[:, :1, None]
    zero = np.zeros((rows, width), dtype=np.complex128)
    start = _GramPoint(u=zero, X=np.zeros((rows, width + 1, width), dtype=np.complex128),
                       lam0=zero, Lam0=np.zeros((rows, width)), Lam_q=np.zeros((rows, width)),
                       abs2=abs2, lc=1.0 / batch.d,
                       q=np.array([[float(model.m)] for model in batch.models]),
                       gt_psi=gt_psi)

    def step(b: ModelBatch, point: _GramPoint, _gram_mu) -> _GramPoint:
        w = point.Lam_q + point.lc
        if (w <= 0).any():
            raise DomainError("auxiliary covariance lost positivity (Lambda_q + lambda_c <= 0)")
        inv_w = 1.0 / w
        abs2_w = point.abs2 * inv_w
        spread = np.empty((len(b.sizes), 1))
        c = np.empty((len(b.sizes), width + 1), dtype=np.complex128)
        np.multiply(point.u, inv_w, out=c[:, 1:])
        for j, n in enumerate(b.sizes):
            spread[j, 0] = c[j, 0] = abs2_w[j, :n].sum()
            c[j, :n + 1] += point.X[j, :n + 1, :n] @ abs2_w[j, :n]
        denom = 1.0 + spread
        r_over_denom = w / (w * denom - point.abs2)
        R = r_over_denom * denom
        c /= -denom
        c[:, 0] += 1.0
        gt_psi_c = np.zeros_like(point.u)
        for j, n in enumerate(b.sizes):
            gt_psi_c[j, :n] = point.gt_psi[j, :n, :n + 1] @ c[j, :n + 1]
        moved = alpha * ((R - 1) * ((point.q - 1) * point.lam0) + R * gt_psi_c)
        alpha_r = alpha * R
        keep = 1 - alpha_r
        X = point.X * keep[:, None, :]
        X -= c[:, :, None] * alpha_r[:, None, :]
        Xi = r_over_denom * point.abs2
        Lam0, Lam_q = _damped_precisions(point, Xi * point.q, Xi, alpha, point.lc)
        return point._replace(u=keep * point.u + moved, X=X,
                              lam0=moved + (1 - alpha) * point.lam0, Lam0=Lam0, Lam_q=Lam_q)

    return start, step


def _shared_row(model: MeasurementModel):
    """The (1, N) precision row |g_q|^2 shared by every point of the model's
    rank-1 split, or None for a dense A whose |A|^2 rows differ.  An
    operator's entries are read as unit modulus, as a
    :class:`igachan.bscm.BscmScenario`'s are, so its row is 1 / sigma2."""
    if not model._gram_fits():
        raise DomainError("IGA runs from A^H A, which is not formed above DENSE_ENTRY_CAP")
    if model.is_dense:
        abs2 = build_rank1_split(model).abs2
        return abs2 if abs2.shape[0] == 1 else None
    if not np.allclose(model.gram_diag, model.m, rtol=1e-12, atol=0.0):
        raise DomainError("IGA on an operator needs unit-modulus entries (diag(A^H A) = M)")
    return np.full((1, model.n), 1.0 / model.sigma2)


# the target mean is mu_0 = lambda_0 / (Lambda_0 + lambda_c) and the reported
# variances are 1 / (Lambda_0 + lambda_c)
IGA = Iterative("iga", 0.05, _gram_stepper,
                mean=lambda point: point.lam0 / (point.Lam0 + point.lc),
                variances=lambda point: 1.0 / (point.Lam0 + point.lc))


def run_iga(model: MeasurementModel, alpha: float | None = None, t_max: int = 100,
            tol: float = 1e-8) -> EstimateReport:
    """Iterate project/update on the model's rank-1 split until the target
    mean settles: :func:`igachan.report.run` on the batch of one, raising
    :class:`DivergenceError` (with the residual trace) when it diverges.
    A dense A whose |A|^2 rows differ runs the reference steps on (Q, N)
    precisions, any other model :data:`IGA`; above
    ``bscm.DENSE_ENTRY_CAP`` on N^2 it raises :class:`DomainError`."""
    shared = _shared_row(model) is not None
    estimator = IGA if shared else _split_reference(build_rank1_split(model))
    return single(run(estimator, [model], alpha, t_max, tol))


def _split_reference(scheme: SplitScheme) -> Iterative:
    """IGA on one model's (Q, N) precisions: the reference steps."""
    lc = scheme.lambda_c

    def start(_batch, alpha):
        def step(_b, state, _gram_mu):
            xi, Xi = project_all(scheme, state)
            return update_points(state, xi, Xi, alpha, lambda_c=lc)

        return initial_state(scheme), step

    return Iterative(IGA.name, IGA.alpha, start,
                     mean=lambda state: (state.lam0 / (state.Lam0 + lc))[None],
                     variances=lambda state: (1.0 / (state.Lam0 + lc))[None])

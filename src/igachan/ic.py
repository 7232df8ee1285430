"""Interference-cancellation estimators: per-coefficient beliefs (IC-IGA)
and the mean-only recursion (IC-SIGA).

Both act on the normal equations of y = A h + z.  With
K = sigma2^{-1} A^H A and c_n = K_nn + 1/d_n, one IC-IGA iteration updates
every coordinate from the residual interference of all the others:

    mu_n^new = sigma2^{-1} c_n^{-1} (a_n^H y - [A^H A mu]_n + [A^H A]_nn mu_n)
    e_n      = sigma2^{-4} c_n^{-1} ([L v]_n - [A^H A]_nn^2 v_n),
               L = |A^H A|.^2,  v = 1 ./ Lambda
    r_n      = c_n / (1 + e_n)

followed by damped natural-parameter updates lambda <- alpha r mu^new +
(1-alpha) lambda and Lambda <- alpha r + (1-alpha) Lambda.  IC-SIGA keeps
only the mean recursion, which is exactly damped Jacobi on the normal
equations since diag(sigma2^{-1} A^H A + D^{-1}) = c.  At any fixed point of
either recursion the mean solves the normal equations, i.e. equals the MMSE
mean.

A dense-inversion oracle (:func:`mproj_belief_oracle`) rebuilds the
per-coordinate auxiliary Gaussian literally, m-projects it through
:mod:`igachan.gaussian`, and checks that the belief is nonzero only at the
owning coordinate; the vectorized kernels are tested against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bscm
from .errors import DivergenceError, DomainError
from .estimators import MeasurementModel
from .gaussian import GaussianNatural, m_project_to_diag
from .report import EstimateReport, iterate

__all__ = [
    "IcPrecomp",
    "IcState",
    "precompute_ic",
    "initial_ic_state",
    "ic_beliefs",
    "ic_iga_step",
    "ic_siga_step",
    "mproj_belief_oracle",
    "run_estimator",
]

DEFAULT_ALPHA = {"ic_iga": 0.45, "ic_siga": 0.25}


@dataclass(frozen=True)
class IcPrecomp:
    """Iteration-invariant products for the IC estimators.

    Dense mode materializes the Gram matrix and L = |A^H A|.^2; operator
    mode, used only above ``DENSE_ENTRY_CAP``, keeps the O(N) vectors plus a
    handle computing A^H (A x) through the FFT operators, and has no L.
    """

    ahy: np.ndarray  # A^H y
    aha_diag: np.ndarray  # diag(A^H A), real
    c: np.ndarray  # sigma2^{-1} diag(A^H A) + 1/d
    d: np.ndarray
    sigma2: float
    gram: object  # callable x -> A^H (A x)
    L: np.ndarray | None

    @property
    def n(self) -> int:
        return self.ahy.size

    @property
    def mode(self) -> str:
        return "operator" if self.L is None else "dense"


@dataclass(frozen=True)
class IcState:
    """Diagonal natural parameters of the running estimate.

    Built from (lam, Lam, t) with Lam > 0 element-wise; the variances
    v = 1 / Lam and the mean mu = lam / Lam are derived from them.
    """

    lam: np.ndarray
    Lam: np.ndarray
    t: int = 0
    v: np.ndarray = field(init=False)
    mu: np.ndarray = field(init=False)

    def __post_init__(self):
        if not np.all(self.Lam > 0):
            raise DomainError("Lam entries must be strictly positive")
        object.__setattr__(self, "v", 1.0 / self.Lam)
        object.__setattr__(self, "mu", self.lam / self.Lam)


def initial_ic_state(n: int) -> IcState:
    """Start of the recursion: mu = 0, lam = 0, Lam = 1, v = 1."""
    return IcState(lam=np.zeros(n, dtype=np.complex128), Lam=np.ones(n, dtype=np.float64))


def precompute_ic(model: MeasurementModel) -> IcPrecomp:
    """Assemble the iteration-invariant products; A^H y is the model's.

    Size decides the mode: whenever N^2 <= ``DENSE_ENTRY_CAP`` it stores the
    model's A^H A and L (dense mode); above the cap it applies A^H A through
    a matrix-free operator's handles and skips L (operator mode).
    """
    if model.n ** 2 <= bscm.DENSE_ENTRY_CAP:
        aha = model.gram()
        aha_diag = np.real(np.diag(aha)).copy()
        L = np.abs(aha) ** 2
        gram = lambda x, _aha=aha: _aha @ x  # noqa: E731
    elif model.is_dense:
        raise DomainError("N^2 exceeds DENSE_ENTRY_CAP: pass a matrix-free operator, not a dense A")
    else:
        op = model.A
        aha_diag = np.asarray(op.gram_diag(), dtype=np.float64)
        L = None
        gram = lambda x, _op=op: _op.rmatvec(_op.matvec(x))  # noqa: E731
    c = aha_diag / model.sigma2 + 1.0 / model.d
    if not np.all(c > 0):
        raise DomainError("c must be strictly positive (check A columns and d)")
    return IcPrecomp(ahy=model.ahy, aha_diag=aha_diag, c=c, d=model.d,
                     sigma2=model.sigma2, gram=gram, L=L)


def _interference_energy(pre: IcPrecomp, v: np.ndarray) -> np.ndarray:
    """e_n = sigma2^{-2} c_n^{-1} sum_{j != n} |[A^H A]_nj|^2 v_j, from L."""
    if pre.L is None:
        raise DomainError("IC-IGA needs L = |A^H A|.^2, not stored above DENSE_ENTRY_CAP")
    lv = pre.L @ v - pre.aha_diag**2 * v
    return lv / (pre.sigma2**2 * pre.c)


def ic_beliefs(pre: IcPrecomp, state: IcState):
    """Per-coordinate projected means and precisions (mu_new, r, e).

    These are the quantities a full m-projection of every auxiliary point
    would produce; the dense oracle :func:`mproj_belief_oracle` recomputes
    them one coordinate at a time.
    """
    return _beliefs(pre, state, pre.gram(state.mu))


def _mean_update(pre: IcPrecomp, mu: np.ndarray, gram_mu: np.ndarray) -> np.ndarray:
    """sigma2^{-1} c^{-1} (A^H y - A^H A mu + diag(A^H A) mu), given A^H A mu."""
    return (pre.ahy - gram_mu + pre.aha_diag * mu) / (pre.sigma2 * pre.c)


def _beliefs(pre: IcPrecomp, state: IcState, gram_mu: np.ndarray):
    """:func:`ic_beliefs` from the Gram product A^H A mu of the state's mean."""
    e = _interference_energy(pre, state.v)
    if np.any(1.0 + e <= 0):
        raise DivergenceError(
            "1 + e_n <= 0: interference energies must be nonnegative, "
            "state is numerically corrupted"
        )
    r = pre.c / (1.0 + e)
    return _mean_update(pre, state.mu, gram_mu), r, e


def ic_iga_step(pre: IcPrecomp, state: IcState, alpha: float,
                beliefs=None) -> IcState:
    """One damped IC-IGA update of the natural parameters."""
    if not (0 < alpha <= 1):
        raise DomainError("alpha must lie in (0, 1]")
    if beliefs is None:
        beliefs = ic_beliefs(pre, state)
    mu_new, r, _ = beliefs
    lam = alpha * (r * mu_new) + (1 - alpha) * state.lam
    Lam = alpha * r + (1 - alpha) * state.Lam
    return IcState(lam=lam, Lam=Lam, t=state.t + 1)


def ic_siga_step(pre: IcPrecomp, mu_t: np.ndarray, alpha: float) -> np.ndarray:
    """One damped mean-only update (damped Jacobi on the normal equations)."""
    if not (0 < alpha <= 1):
        raise DomainError("alpha must lie in (0, 1]")
    mu_t = np.asarray(mu_t, dtype=np.complex128).reshape(-1)
    if mu_t.size != pre.n:
        raise DomainError(f"mu has length {mu_t.size}, expected {pre.n}")
    return _siga_update(pre, mu_t, pre.gram(mu_t), alpha)


def _siga_update(pre: IcPrecomp, mu: np.ndarray, gram_mu: np.ndarray,
                 alpha: float) -> np.ndarray:
    """:func:`ic_siga_step` from the Gram product A^H A mu."""
    return alpha * _mean_update(pre, mu, gram_mu) + (1 - alpha) * mu


def mproj_belief_oracle(model: MeasurementModel, state: IcState, n: int):
    """Dense block-inversion oracle for coordinate ``n``'s belief.

    Builds the auxiliary Gaussian literally: its quadratic piece is the
    rank-1 PSD matrix with c_n at (n, n), the hollow Gram column k_n on row
    and column n, and k_n k_n^H / c_n elsewhere; its mean-parameter piece
    carries entry n of the model's sigma2^{-1} A^H y spread the same way.
    The point is inverted densely and m-projected through
    :mod:`igachan.gaussian`.  Returns (mu_n, r_n, xi_n, Xi_n), where the
    belief vectors must vanish at every coordinate except ``n``.
    """
    if not (0 <= n < model.n):
        raise DomainError(f"coordinate {n} out of range")
    s = 1.0 / model.sigma2
    K = s * model.gram()
    c_n = float(np.real(K[n, n])) + 1.0 / model.d[n]
    ahy_n = s * model.ahy[n]
    kbar = K[:, n].copy()
    kbar[n] = 0.0
    w = kbar / np.sqrt(c_n)
    w[n] = np.sqrt(c_n)
    C_n = np.outer(w, w.conj())
    b_n = (ahy_n / c_n) * kbar
    b_n[n] = ahy_n
    lam_minus = state.lam.copy()
    lam_minus[n] = 0.0
    Lam_minus = state.Lam.copy()
    Lam_minus[n] = 0.0
    P = np.diag(Lam_minus.astype(np.complex128)) + C_n
    proj = m_project_to_diag(GaussianNatural(lam_minus + b_n, -P))
    xi = proj.lam - lam_minus
    Xi = proj.Lam - Lam_minus
    return proj.mean[n], proj.Lam[n], xi, Xi


def run_estimator(kind: str, pre: IcPrecomp, alpha: float | None = None,
                  t_max: int = 100, tol: float = 1e-8) -> EstimateReport:
    """Run IC-IGA or IC-SIGA to (approximate) equilibrium.

    Stop and divergence rules are those of :func:`igachan.report.iterate`.
    Each iterate carries its Gram product A^H A mu, which both its residual
    and the next step read, so an iteration applies the Gram matrix once.
    IC-IGA reports variances 1/r at the final iterate and needs a
    dense-mode precomputation; IC-SIGA is mean-only and runs in either mode.
    """
    if kind not in DEFAULT_ALPHA:
        raise DomainError(f"unknown estimator kind {kind!r}")
    if alpha is None:
        alpha = DEFAULT_ALPHA[kind]
    if not (0 < alpha <= 1):
        raise DomainError("alpha must lie in (0, 1]")
    theta = pre.ahy / pre.sigma2
    theta_norm = float(np.linalg.norm(theta)) or 1.0

    # an iterate is (mu, A^H A mu, IcState, r of the step that made it);
    # the mean-only recursion carries None for the last two
    def measure(point):
        mu, gram_mu = point[0], point[1]
        lhs = gram_mu / pre.sigma2 + mu / pre.d
        return mu, float(np.linalg.norm(lhs - theta)) / theta_norm

    def siga_step(point):
        mu = _siga_update(pre, point[0], point[1], alpha)
        return mu, pre.gram(mu), None, None

    def iga_step(point):
        _, gram_mu, state, _ = point
        beliefs = _beliefs(pre, state, gram_mu)
        state = ic_iga_step(pre, state, alpha, beliefs=beliefs)
        return state.mu, pre.gram(state.mu), state, beliefs[1]

    def variances(point):
        return None if point[3] is None else 1.0 / point[3]

    mean_only = kind == "ic_siga"
    state = None if mean_only else initial_ic_state(pre.n)
    mu = np.zeros(pre.n, dtype=np.complex128)
    return iterate(siga_step if mean_only else iga_step, measure,
                   (mu, pre.gram(mu), state, None), t_max, tol,
                   config={"algorithm": kind, "alpha": alpha, "t_max": t_max,
                           "tol": tol, "mode": pre.mode},
                   variances=variances)

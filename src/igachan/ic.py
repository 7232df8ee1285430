"""Interference-cancellation estimators: per-coefficient beliefs (IC-IGA)
and the mean-only recursion (IC-SIGA).

Both act on the normal equations of y = A h + z.  With
K = sigma2^{-1} A^H A and c_n = K_nn + 1/d_n, one IC-IGA iteration updates
every coordinate from the residual interference of all the others:

    mu_n^new = sigma2^{-1} c_n^{-1} (a_n^H y - [A^H A mu]_n + [A^H A]_nn mu_n)
    e_n      = sigma2^{-2} c_n^{-1} ([L v]_n - [A^H A]_nn^2 v_n),
               L = |A^H A|.^2,  v = 1 ./ Lambda
    r_n      = c_n / (1 + e_n)

followed by damped natural-parameter updates lambda <- alpha r mu^new +
(1-alpha) lambda and Lambda <- alpha r + (1-alpha) Lambda.  IC-SIGA keeps
only the mean recursion, which is exactly damped Jacobi on the normal
equations since diag(sigma2^{-1} A^H A + D^{-1}) = c.  At any fixed point of
either recursion the mean solves the normal equations, i.e. equals the MMSE
mean.  Every function takes the trial's :class:`MeasurementModel` and reads
A^H y, the Gram apply, diag(A^H A), c and L from it; the private kernels
take a model or a :class:`ModelBatch` alike, whose padded (B, N) rows they
update in one pass.  :data:`IC_IGA` and :data:`IC_SIGA` describe the two
recursions as :class:`igachan.report.Iterative` records, which
:func:`igachan.harness.run_algorithm` runs by the names "ic_iga" and
"ic_siga" on a list of models in lockstep.

A dense-inversion oracle (:func:`mproj_belief_oracle`) rebuilds the
per-coordinate auxiliary Gaussian literally, m-projects it through
:mod:`igachan.gaussian`, and checks that the belief is nonzero only at the
owning coordinate; the vectorized kernels are tested against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DivergenceError, DomainError
from .estimators import MeasurementModel
from .gaussian import GaussianNatural, m_project_to_diag
from .report import Iterative, rows_at_fault

__all__ = [
    "IC_IGA",
    "IC_SIGA",
    "IcState",
    "initial_ic_state",
    "ic_beliefs",
    "ic_iga_step",
    "ic_siga_step",
    "mproj_belief_oracle",
]


@dataclass(frozen=True)
class IcState:
    """Diagonal natural parameters of the running estimate.

    Built from (lam, Lam) with Lam > 0 element-wise; the variances
    v = 1 / Lam and the mean mu = lam / Lam are derived from them.  The
    arrays are (N,) for one model, or (B, N) for a :class:`ModelBatch`.
    """

    lam: np.ndarray
    Lam: np.ndarray
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


def _interference_energy(model, v: np.ndarray) -> np.ndarray:
    """e_n = sigma2^{-2} c_n^{-1} sum_{j != n} |[A^H A]_nj|^2 v_j, from L; the
    division by sigma2^2 c cannot underflow (``sigma4_c``)."""
    lv = model.abs2_apply(v) - model.gram_diag**2 * v
    f2c, shift = model.sigma4_c
    return np.ldexp(lv / f2c, shift)


def ic_beliefs(model: MeasurementModel, state: IcState):
    """Per-coordinate projected means and precisions (mu_new, r, e).

    These are the quantities a full m-projection of every auxiliary point
    would produce; the dense oracle :func:`mproj_belief_oracle` recomputes
    them one coordinate at a time.
    """
    return _beliefs(model, state.mu, state.v, model.gram_apply(state.mu))


def _mean_update(model, mu: np.ndarray, gram_mu: np.ndarray) -> np.ndarray:
    """sigma2^{-1} c^{-1} (A^H y - A^H A mu + diag(A^H A) mu), given A^H A mu."""
    return (model.ahy - gram_mu + model.gram_diag * mu) / (model.sigma2 * model.c)


def _beliefs(model, mu: np.ndarray, v: np.ndarray, gram_mu: np.ndarray):
    """:func:`ic_beliefs` of the mean ``mu`` and variances ``v``, from the Gram
    product A^H A mu."""
    e = _interference_energy(model, v)
    corrupted = 1.0 + e <= 0
    if corrupted.any():
        raise DivergenceError(
            "1 + e_n <= 0: interference energies must be nonnegative, "
            "state is numerically corrupted", rows=rows_at_fault(corrupted)
        )
    r = model.c / (1.0 + e)
    return _mean_update(model, mu, gram_mu), r, e


def ic_iga_step(model: MeasurementModel, state: IcState, alpha: float) -> IcState:
    """One damped IC-IGA update of the natural parameters."""
    if not (0 < alpha <= 1):
        raise DomainError("alpha must lie in (0, 1]")
    mu_new, r, _ = ic_beliefs(model, state)
    return IcState(*_ic_iga_update(state.lam, state.Lam, mu_new, r, alpha))


def _ic_iga_update(lam, Lam, mu_new, r, alpha: float) -> tuple:
    """:func:`ic_iga_step`'s (lam, Lam) from the beliefs mu_new and r; a Lam
    that loses positivity raises :class:`DivergenceError` naming its rows."""
    lam = alpha * (r * mu_new) + (1 - alpha) * lam
    Lam = alpha * r + (1 - alpha) * Lam
    if not (Lam > 0).all():  # nan fails too
        raise DivergenceError("Lam lost positivity", rows=rows_at_fault(~(Lam > 0)))
    return lam, Lam


def ic_siga_step(model: MeasurementModel, mu_t: np.ndarray, alpha: float) -> np.ndarray:
    """One damped mean-only update (damped Jacobi on the normal equations)."""
    if not (0 < alpha <= 1):
        raise DomainError("alpha must lie in (0, 1]")
    mu_t = np.asarray(mu_t, dtype=np.complex128).reshape(-1)
    if mu_t.size != model.n:
        raise DomainError(f"mu has length {mu_t.size}, expected {model.n}")
    return _siga_update(model, mu_t, model.gram_apply(mu_t), alpha)


def _siga_update(model, mu: np.ndarray, gram_mu: np.ndarray, alpha: float) -> np.ndarray:
    """:func:`ic_siga_step` from the Gram product A^H A mu."""
    return alpha * _mean_update(model, mu, gram_mu) + (1 - alpha) * mu


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


class _IcPoint(NamedTuple):
    """An IC-IGA iterate: the (B, N) natural parameters, and the r of the
    step that made it (None at the start)."""

    lam: np.ndarray
    Lam: np.ndarray
    r: np.ndarray | None


def _ic_iga_start(batch, alpha: float):
    def step(b, point, gram_mu):
        # the mean and variances as IcState derives them
        mu_new, r, _ = _beliefs(b, point.lam / point.Lam, 1.0 / point.Lam, gram_mu)
        return _IcPoint(*_ic_iga_update(point.lam, point.Lam, mu_new, r, alpha), r)

    shape = (len(batch.models), batch.width)
    return _IcPoint(np.zeros(shape, dtype=np.complex128), np.ones(shape), None), step


def _ic_siga_start(batch, alpha: float):
    # the iterate is the mean itself
    return (np.zeros((len(batch.models), batch.width), dtype=np.complex128),
            lambda b, mu, gram_mu: _siga_update(b, mu, gram_mu, alpha))


# IC-IGA reports the variances 1/r of its last step and needs each model's
# L = |A^H A|.^2, which is not formed above DENSE_ENTRY_CAP; IC-SIGA is
# mean-only and runs at any size
IC_IGA = Iterative("ic_iga", 0.45, _ic_iga_start, mean=lambda point: point.lam / point.Lam,
                   variances=lambda point: None if point.r is None else 1.0 / point.r)
IC_SIGA = Iterative("ic_siga", 0.25, _ic_siga_start, mean=lambda mu: mu,
                    variances=lambda mu: None)


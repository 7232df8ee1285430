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
mean.

Every function takes a :class:`MeasurementModel` with (N,) arrays, or a
:class:`ModelBatch` with zero-padded (B, width) arrays whose rows it updates
in one pass, and reads A^H y, the Gram apply, diag(A^H A), c and L from it.
Given ``gram_mu`` = A^H A mu, a step applies no Gram matrix itself.
:data:`IC_IGA` and :data:`IC_SIGA` describe the two recursions as
:class:`igachan.report.Iterative` records whose steps are
:func:`ic_iga_step` and :func:`ic_siga_step`;
:func:`igachan.harness.run_algorithm` runs them by the names "ic_iga" and
"ic_siga" on a list of models in lockstep.

A dense-inversion oracle (:func:`mproj_belief_oracle`) rebuilds the
per-coordinate auxiliary Gaussian literally, m-projects it through
:mod:`igachan.gaussian`, and checks that the belief is nonzero only at the
owning coordinate; the vectorized beliefs are tested against it.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .errors import DivergenceError, DomainError
from .estimators import MeasurementModel, ModelBatch
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


class IcState(namedtuple("IcState", "lam Lam r")):
    """IC-IGA's iterate: the diagonal natural parameters (lam, Lam), and the
    precisions r of the step that made it (None at the start).

    The arrays are (N,) for one model, or (B, width) for a
    :class:`ModelBatch`; the mean mu = lam / Lam and the variances
    v = 1 / Lam are derived from them.  A state built by hand must have
    Lam > 0 element-wise; :func:`ic_iga_step` checks its own update instead.
    """

    __slots__ = ()

    def __new__(cls, lam, Lam, r=None):
        lam, Lam = np.asarray(lam), np.asarray(Lam)
        if not np.all(Lam > 0):
            raise DomainError("Lam entries must be strictly positive")
        return super().__new__(cls, lam, Lam, r)

    @property
    def mu(self) -> np.ndarray:
        return self.lam / self.Lam

    @property
    def v(self) -> np.ndarray:
        return 1.0 / self.Lam


def initial_ic_state(shape) -> IcState:
    """Start of the recursion: mu = 0, lam = 0, Lam = 1, v = 1, of ``shape``:
    N, or (B, width) for a batch."""
    return IcState(np.zeros(shape, dtype=np.complex128), np.ones(shape, dtype=np.float64))


def _check_shape(model, name: str, x: np.ndarray) -> None:
    """Refuse an array that is not the model's (N,), or the batch's (B, width)."""
    if x.shape != model.d.shape:
        raise DomainError(f"{name} has shape {x.shape}, expected {model.d.shape}")


def _interference_energy(model, v: np.ndarray) -> np.ndarray:
    """e_n = sigma2^{-2} c_n^{-1} sum_{j != n} |[A^H A]_nj|^2 v_j, from L; the
    division by sigma2^2 c cannot underflow (``sigma4_c``)."""
    lv = model.abs2_apply(v) - model.gram_diag**2 * v
    f2c, shift = model.sigma4_c
    return np.ldexp(lv / f2c, shift)


def _mean_update(model, mu: np.ndarray, gram_mu: np.ndarray) -> np.ndarray:
    """sigma2^{-1} c^{-1} (A^H y - A^H A mu + diag(A^H A) mu), given A^H A mu."""
    return (model.ahy - gram_mu + model.gram_diag * mu) / (model.sigma2 * model.c)


def ic_beliefs(model: MeasurementModel | ModelBatch, state: IcState,
               gram_mu: np.ndarray | None = None):
    """Per-coordinate projected means and precisions (mu_new, r, e) at
    ``state``, given ``gram_mu`` = A^H A mu (None: the model forms it).

    These are the quantities a full m-projection of every auxiliary point
    would produce; the dense oracle :func:`mproj_belief_oracle` recomputes
    them one coordinate at a time.  An interference energy with 1 + e <= 0
    raises :class:`DivergenceError` naming its rows.
    """
    _check_shape(model, "lam", state.lam)
    _check_shape(model, "Lam", state.Lam)
    mu = state.mu
    e = _interference_energy(model, state.v)
    corrupted = 1.0 + e <= 0
    if corrupted.any():
        raise DivergenceError(
            "1 + e_n <= 0: interference energies must be nonnegative, "
            "state is numerically corrupted", rows=rows_at_fault(corrupted)
        )
    r = model.c / (1.0 + e)
    if gram_mu is None:
        gram_mu = model.gram_apply(mu)
    return _mean_update(model, mu, gram_mu), r, e


def ic_iga_step(model: MeasurementModel | ModelBatch, state: IcState, alpha: float,
                gram_mu: np.ndarray | None = None) -> IcState:
    """One damped IC-IGA update of the natural parameters, given ``gram_mu``
    = A^H A mu (None: the model forms it).  An update that loses the
    positivity of Lam raises :class:`DivergenceError` naming its rows."""
    if not (0 < alpha <= 1):
        raise DomainError("alpha must lie in (0, 1]")
    mu_new, r, _ = ic_beliefs(model, state, gram_mu)
    lam = alpha * (r * mu_new) + (1 - alpha) * state.lam
    Lam = alpha * r + (1 - alpha) * state.Lam
    if not (Lam > 0).all():  # nan fails too
        raise DivergenceError("Lam lost positivity", rows=rows_at_fault(~(Lam > 0)))
    # checked above, so built without IcState's own check
    return IcState._make((lam, Lam, r))


def ic_siga_step(model: MeasurementModel | ModelBatch, mu: np.ndarray, alpha: float,
                 gram_mu: np.ndarray | None = None) -> np.ndarray:
    """One damped mean-only update (damped Jacobi on the normal equations)
    of ``mu``, given ``gram_mu`` = A^H A mu (None: the model forms it)."""
    if not (0 < alpha <= 1):
        raise DomainError("alpha must lie in (0, 1]")
    mu = np.asarray(mu, dtype=np.complex128)
    _check_shape(model, "mu", mu)
    if gram_mu is None:
        gram_mu = model.gram_apply(mu)
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
    _check_shape(model, "lam", state.lam)
    _check_shape(model, "Lam", state.Lam)
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


# Each record steps its batch through the public step, looked up here at
# every step.  IC-IGA reports the variances 1/r of its last step and needs
# each model's L = |A^H A|.^2, which is not formed above DENSE_ENTRY_CAP;
# IC-SIGA's point is its mean, and it runs at any size
IC_IGA = Iterative(
    "ic_iga", 0.45,
    lambda batch, alpha: (initial_ic_state((len(batch.models), batch.width)),
                          lambda b, state, gram_mu: ic_iga_step(b, state, alpha, gram_mu)),
    mean=lambda state: state.mu,
    variances=lambda state: None if state.r is None else 1.0 / state.r)
IC_SIGA = Iterative(
    "ic_siga", 0.25,
    lambda batch, alpha: (np.zeros((len(batch.models), batch.width), dtype=np.complex128),
                          lambda b, mu, gram_mu: ic_siga_step(b, mu, alpha, gram_mu)),
    mean=lambda mu: mu, variances=lambda mu: None)

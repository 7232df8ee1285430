"""Exact MMSE estimation for y = A h + z and its zero-diagonal modified form.

With h ~ CN(0, D), D diagonal, and z ~ CN(0, sigma2 I), the posterior mean

    mu = (sigma2^{-1} A^H A + D^{-1})^{-1} sigma2^{-1} A^H y

is the MMSE estimate.  The modified form rewrites the same mean through the
hollow (zero-diagonal) Gram matrix T and the diagonal matrix Upsilon,

    T = sigma2^{-1} A^H A - I .* (sigma2^{-1} A^H A),
    Upsilon = (I .* (sigma2^{-1} A^H A) + D^{-1})^{-1},
    hhat = (sigma2^{-1} A^H A + D^{-1} + T + T Upsilon T^H)^{-1}
           (sigma2^{-1} A^H y + T Upsilon sigma2^{-1} A^H y),

which has the same mean as MMSE.  Both are desk-scale oracles: every
iterative estimator in this package is validated against them.  Each
takes one :class:`MeasurementModel`, which carries y and forms A^H y once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .gaussian import _cho_solve

__all__ = [
    "MeasurementModel",
    "ModifiedForm",
    "mmse_estimate",
    "build_modified_form",
    "modified_mmse_estimate",
]


@dataclass(frozen=True)
class MeasurementModel:
    """One draw of the linear-Gaussian measurement model: (A, D, sigma2, y).

    ``A`` is either a dense (M, N) complex matrix or a matrix-free operator
    exposing ``shape``, ``matvec``, ``rmatvec``, ``gram_diag`` and ``gram``
    (see :class:`igachan.bscm.BscmScenario`).  ``d`` is the diagonal of D.
    ``ahy`` = A^H y is formed once here, by one dense product or one operator
    ``rmatvec``; every estimator reads it, and A^H A from :meth:`gram`, which
    builds it at its first call and shares it read-only afterwards.
    """

    A: object
    d: np.ndarray
    sigma2: float
    y: np.ndarray
    ahy: np.ndarray = field(init=False)
    _gram: np.ndarray | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        d = np.asarray(self.d, dtype=np.float64).reshape(-1)
        if d.size == 0 or not np.all(d > 0):
            raise DomainError("all prior variances d must be strictly positive")
        sigma2 = float(self.sigma2)
        if sigma2 <= 0:
            raise DomainError("sigma2 must be strictly positive")
        A = self.A
        if isinstance(A, (np.ndarray, list, tuple)):
            A = np.asarray(A, dtype=np.complex128)
            if A.ndim != 2:
                raise DomainError("A must be a 2-D matrix")
        m, n = A.shape
        if m < 1 or n < 1 or n != d.size:
            raise DomainError(
                f"inconsistent dimensions: A is {A.shape}, d has length {d.size}"
            )
        y = np.asarray(self.y, dtype=np.complex128).reshape(-1)
        if y.size != m:
            raise DomainError(f"y has length {y.size}, expected {m}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "sigma2", sigma2)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "ahy", A.conj().T @ y if self.is_dense else A.rmatvec(y))

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def is_dense(self) -> bool:
        return isinstance(self.A, np.ndarray)

    def _require_dense(self, op: str) -> np.ndarray:
        if not self.is_dense:
            raise DomainError(f"{op} requires a dense measurement matrix")
        return self.A

    def gram(self) -> np.ndarray:
        """A^H A as a read-only dense (N, N) matrix, built once per model; an
        operator builds it in closed form."""
        if self._gram is None:
            G = self.A.conj().T @ self.A if self.is_dense else self.A.gram()
            G.flags.writeable = False
            object.__setattr__(self, "_gram", G)
        return self._gram


@dataclass(frozen=True)
class ModifiedForm:
    """Pieces of the zero-diagonal rewrite of the MMSE normal equations.

    ``terms`` holds the four matrix summands of the modified system matrix
    (Gram, prior precision, T, T Upsilon T^H) so tests can probe them
    individually; ``theta_mod`` is the modified right-hand side.
    """

    T: np.ndarray
    Upsilon: np.ndarray
    theta_mod: np.ndarray
    terms: tuple

    @property
    def system_matrix(self) -> np.ndarray:
        return self.terms[0] + np.diag(self.terms[1]) + self.terms[2] + self.terms[3]


def _cond_estimate_1norm(B: np.ndarray) -> float:
    # error-path only: cheap 1-norm condition estimate for the message
    try:
        return float(np.linalg.cond(B, 1))
    except np.linalg.LinAlgError:
        return float("inf")


def _mmse_mean(model: MeasurementModel) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and the Cholesky factor of the posterior precision.

    Solves (sigma2^{-1} A^H A + D^{-1}) mu = sigma2^{-1} A^H y by Cholesky.
    """
    s = 1.0 / model.sigma2
    B = s * model.gram() + np.diag(1.0 / model.d)
    try:
        L = np.linalg.cholesky(B)
    except np.linalg.LinAlgError:
        raise DomainError(
            "posterior precision is numerically singular "
            f"(1-norm condition estimate {_cond_estimate_1norm(B):.3e})"
        ) from None
    return _cho_solve(L, s * model.ahy), L


def mmse_estimate(model: MeasurementModel) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and covariance of h given the model's y.

    The mean is :func:`_mmse_mean`'s; the covariance is the inverse of the
    posterior precision, obtained from the same Cholesky factor rather than
    by explicit inversion and multiplication.
    """
    mu, L = _mmse_mean(model)
    Sigma = _cho_solve(L, np.eye(model.n, dtype=np.complex128))
    Sigma = 0.5 * (Sigma + Sigma.conj().T)
    return mu, Sigma


def build_modified_form(model: MeasurementModel) -> ModifiedForm:
    """Assemble T, Upsilon, the modified system's summands and right-hand side.

    T is the Gram matrix sigma2^{-1} A^H A with its diagonal removed,
    Upsilon_n = 1 / (sigma2^{-1} a_n^H a_n + 1/d_n), and the right-hand side
    is sigma2^{-1} A^H y + T Upsilon sigma2^{-1} A^H y.
    """
    s = 1.0 / model.sigma2
    K = s * model.gram()
    kdiag = np.real(np.diag(K)).copy()
    T = K - np.diag(kdiag.astype(np.complex128))
    np.fill_diagonal(T, 0.0)  # exact zeros on the diagonal
    upsilon = 1.0 / (kdiag + 1.0 / model.d)
    TUT = (T * upsilon[None, :]) @ T.conj().T
    terms = (K, 1.0 / model.d, T, TUT)
    theta = s * model.ahy
    return ModifiedForm(T=T, Upsilon=upsilon, theta_mod=theta + T @ (upsilon * theta),
                        terms=terms)


def modified_mmse_estimate(model: MeasurementModel) -> np.ndarray:
    """Evaluate the modified estimator exactly as written.

    The system matrix is assembled from its four summands and the right-hand
    side from its two terms; nothing is simplified back to the plain normal
    equations, since agreement with :func:`mmse_estimate` is the whole point.
    The system is solved by one pivoted LU (``np.linalg.solve``); an exactly
    singular system raises :class:`DomainError`.
    """
    form = build_modified_form(model)
    B = form.system_matrix
    try:
        return np.linalg.solve(B, form.theta_mod)
    except np.linalg.LinAlgError:
        raise DomainError(
            "modified system is numerically singular "
            f"(1-norm condition estimate {_cond_estimate_1norm(B):.3e})"
        ) from None

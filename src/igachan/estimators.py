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
iterative estimator in this package is validated against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DomainError

__all__ = [
    "MeasurementModel",
    "ModifiedForm",
    "mmse_estimate",
    "build_modified_form",
    "modified_mmse_estimate",
]


@dataclass(frozen=True)
class MeasurementModel:
    """The triple (A, D, sigma2) of the linear-Gaussian measurement model.

    ``A`` is either a dense (M, N) complex matrix or a matrix-free operator
    exposing ``shape``, ``matvec``, ``rmatvec``, ``gram_diag`` and ``gram``
    (see :class:`igachan.bscm.BscmScenario`); the exact estimators read it
    through :meth:`gram` and :meth:`rmatvec`.  ``d`` is the diagonal of D.
    """

    A: object
    d: np.ndarray
    sigma2: float

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
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "sigma2", sigma2)

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
        """A^H A as a dense (N, N) matrix; an operator builds it in closed form."""
        return self.A.conj().T @ self.A if self.is_dense else self.A.gram()

    def rmatvec(self, b) -> np.ndarray:
        """A^H b."""
        return self.A.conj().T @ b if self.is_dense else self.A.rmatvec(b)

    def check_y(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=np.complex128).reshape(-1)
        if y.size != self.m:
            raise DomainError(f"y has length {y.size}, expected {self.m}")
        return y


@dataclass(frozen=True)
class ModifiedForm:
    """Pieces of the zero-diagonal rewrite of the MMSE normal equations.

    ``terms`` holds the four matrix summands of the modified system matrix
    (Gram, prior precision, T, T Upsilon T^H) so tests can probe them
    individually; ``theta_mod`` is the modified right-hand side and is None
    when the form was built without a received vector.
    """

    T: np.ndarray
    Upsilon: np.ndarray
    theta_mod: np.ndarray | None
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


def mmse_estimate(model: MeasurementModel, y) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and covariance of h given y.

    Solves (sigma2^{-1} A^H A + D^{-1}) mu = sigma2^{-1} A^H y by Cholesky;
    the covariance is the inverse of the same matrix, obtained from the
    factorization rather than by explicit inversion and multiplication.
    """
    y = model.check_y(y)
    s = 1.0 / model.sigma2
    B = s * model.gram() + np.diag(1.0 / model.d)
    rhs = s * model.rmatvec(y)
    try:
        cf = scipy.linalg.cho_factor(B)
    except scipy.linalg.LinAlgError:
        raise DomainError(
            "posterior precision is numerically singular "
            f"(1-norm condition estimate {_cond_estimate_1norm(B):.3e})"
        ) from None
    mu = scipy.linalg.cho_solve(cf, rhs)
    Sigma = scipy.linalg.cho_solve(cf, np.eye(model.n, dtype=np.complex128))
    Sigma = 0.5 * (Sigma + Sigma.conj().T)
    return mu, Sigma


def build_modified_form(model: MeasurementModel, y=None) -> ModifiedForm:
    """Assemble T, Upsilon and the four summands of the modified system.

    T is the Gram matrix sigma2^{-1} A^H A with its diagonal removed, and
    Upsilon_n = 1 / (sigma2^{-1} a_n^H a_n + 1/d_n).  When ``y`` is given the
    modified right-hand side sigma2^{-1} A^H y + T Upsilon sigma2^{-1} A^H y
    is included.
    """
    s = 1.0 / model.sigma2
    K = s * model.gram()
    kdiag = np.real(np.diag(K)).copy()
    T = K - np.diag(kdiag.astype(np.complex128))
    np.fill_diagonal(T, 0.0)  # exact zeros on the diagonal
    upsilon = 1.0 / (kdiag + 1.0 / model.d)
    TUT = (T * upsilon[None, :]) @ T.conj().T
    terms = (K, 1.0 / model.d, T, TUT)
    theta_mod = None
    if y is not None:
        y = model.check_y(y)
        theta = s * model.rmatvec(y)
        theta_mod = theta + T @ (upsilon * theta)
    return ModifiedForm(T=T, Upsilon=upsilon, theta_mod=theta_mod, terms=terms)


def modified_mmse_estimate(model: MeasurementModel, y) -> np.ndarray:
    """Evaluate the modified estimator exactly as written.

    The system matrix is assembled from its four summands and the right-hand
    side from its two terms; nothing is simplified back to the plain normal
    equations, since agreement with :func:`mmse_estimate` is the whole point.
    The solve attempts a Hermitian positive definite factorization first and
    falls back to a pivoted LU when the definiteness check fails.
    """
    form = build_modified_form(model, y)
    B = form.system_matrix
    rhs = form.theta_mod
    try:
        cf = scipy.linalg.cho_factor(0.5 * (B + B.conj().T))
        return scipy.linalg.cho_solve(cf, rhs)
    except scipy.linalg.LinAlgError:
        pass
    try:
        lu, piv = scipy.linalg.lu_factor(B)
    except scipy.linalg.LinAlgError:
        raise DomainError(
            "modified system is numerically singular "
            f"(1-norm condition estimate {_cond_estimate_1norm(B):.3e})"
        ) from None
    return scipy.linalg.lu_solve((lu, piv), rhs)

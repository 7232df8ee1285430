"""Parameterizations of multivariate complex Gaussians and the m-projection.

A circularly-symmetric complex Gaussian on C^N can be written in natural
(exponential-family) coordinates (theta, Theta),

    p(x) = exp{ x^H theta + theta^H x + x^H Theta x - psi(theta, Theta) },

with -Theta Hermitian positive definite, or in expectation coordinates
(mu, M) = (E[x], E[x x^H]).  Both coordinate systems are affine; conversion
between them is a Legendre transform:

    mu = -Theta^{-1} theta,        M = mu mu^H + (-Theta)^{-1},
    theta = Sigma^{-1} mu,         Theta = -Sigma^{-1},   Sigma = M - mu mu^H.

The manifold of *independent* complex Gaussians (diagonal precision) is
e-flat; the KL-minimizing projection onto it (the m-projection) simply keeps
the mean and the diagonal of the covariance.  That projection is the single
geometric primitive every iterative estimator in this package is built on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "GaussianNatural",
    "GaussianExpectation",
    "DiagGaussian",
    "natural_to_expectation",
    "expectation_to_natural",
    "kl_divergence",
    "m_project_to_diag",
]


def _as_complex_vector(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    if x.size == 0:
        raise DomainError(f"{name} must be a non-empty vector")
    return x


def _as_complex_matrix(x, n: int, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (n, n):
        raise DomainError(f"{name} must have shape ({n}, {n}), got {x.shape}")
    return x


def _check_hermitian(a: np.ndarray, name: str) -> None:
    scale = max(np.abs(a).max(), 1.0)
    if np.abs(a - a.conj().T).max() > 1e-10 * scale:
        raise DomainError(f"{name} is not Hermitian")


def _chol_pd(a: np.ndarray, name: str) -> np.ndarray:
    """Cholesky factor of a Hermitian matrix expected to be positive definite.

    Factorization failure is the definiteness test; the offending eigenvalue
    is located only on the error path.
    """
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        w = np.linalg.eigvalsh(a)
        raise DomainError(
            f"{name} is not positive definite (smallest eigenvalue {w[0]:.3e})"
        ) from None


def _cho_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L L^H) x = b from the lower Cholesky factor L: two triangular systems."""
    return np.linalg.solve(L.conj().T, np.linalg.solve(L, b))


@dataclass(frozen=True)
class GaussianNatural:
    """Natural parameters (theta, Theta) with -Theta Hermitian positive definite."""

    theta: np.ndarray
    Theta: np.ndarray

    def __post_init__(self):
        theta = _as_complex_vector(self.theta, "theta")
        Theta = _as_complex_matrix(self.Theta, theta.size, "Theta")
        _check_hermitian(Theta, "Theta")
        _chol_pd(-Theta, "-Theta")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "Theta", Theta)

    @property
    def dim(self) -> int:
        return self.theta.size


@dataclass(frozen=True)
class GaussianExpectation:
    """Expectation parameters (mu, M) with M - mu mu^H Hermitian positive definite."""

    mu: np.ndarray
    M: np.ndarray

    def __post_init__(self):
        mu = _as_complex_vector(self.mu, "mu")
        M = _as_complex_matrix(self.M, mu.size, "M")
        _check_hermitian(M, "M")
        _chol_pd(M - np.outer(mu, mu.conj()), "M - mu mu^H")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "M", M)

    @property
    def dim(self) -> int:
        return self.mu.size

    @property
    def Sigma(self) -> np.ndarray:
        return self.M - np.outer(self.mu, self.mu.conj())


@dataclass(frozen=True)
class DiagGaussian:
    """Independent complex Gaussian in natural coordinates.

    ``lam`` is the precision-scaled mean and ``Lam`` the (strictly positive,
    real) per-coordinate precision, so mean = lam / Lam and
    variance = 1 / Lam.  As a point of the full manifold it has
    theta = lam, Theta = -diag(Lam).
    """

    lam: np.ndarray
    Lam: np.ndarray

    def __post_init__(self):
        lam = _as_complex_vector(self.lam, "lam")
        Lam = np.asarray(self.Lam, dtype=np.float64).reshape(-1)
        if Lam.shape != lam.shape:
            raise DomainError("lam and Lam must have the same length")
        if not np.all(Lam > 0):
            raise DomainError("every entry of Lam must be strictly positive")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "Lam", Lam)

    @property
    def dim(self) -> int:
        return self.lam.size

    @property
    def mean(self) -> np.ndarray:
        return self.lam / self.Lam

    @property
    def variance(self) -> np.ndarray:
        return 1.0 / self.Lam

    def as_natural(self) -> GaussianNatural:
        return GaussianNatural(self.lam.copy(), -np.diag(self.Lam.astype(np.complex128)))


def natural_to_expectation(p: GaussianNatural) -> GaussianExpectation:
    """Legendre transform (theta, Theta) -> (mu, M).

    mu = -Theta^{-1} theta and M = mu mu^H + (-Theta)^{-1}; the inverse is
    taken through a Cholesky solve, never formed times a vector.
    """
    L = _chol_pd(-p.Theta, "-Theta")
    mu = _cho_solve(L, p.theta)
    Sigma = _cho_solve(L, np.eye(p.dim, dtype=np.complex128))
    Sigma = 0.5 * (Sigma + Sigma.conj().T)
    return GaussianExpectation(mu, np.outer(mu, mu.conj()) + Sigma)


def expectation_to_natural(p: GaussianExpectation) -> GaussianNatural:
    """Legendre transform (mu, M) -> (theta, Theta) via Sigma = M - mu mu^H."""
    L = _chol_pd(p.Sigma, "Sigma")
    theta = _cho_solve(L, p.mu)
    Prec = _cho_solve(L, np.eye(p.dim, dtype=np.complex128))
    Prec = 0.5 * (Prec + Prec.conj().T)
    return GaussianNatural(theta, -Prec)


def _free_energy(theta: np.ndarray, Theta: np.ndarray) -> float:
    """psi(theta, Theta) = N log pi - log det(-Theta) - theta^H Theta^{-1} theta."""
    n = theta.size
    L = _chol_pd(-Theta, "-Theta")
    logdet_negTheta = 2.0 * float(np.sum(np.log(np.real(np.diag(L)))))
    # theta^H Theta^{-1} theta = -theta^H (-Theta)^{-1} theta
    t = np.linalg.solve(L, theta)
    quad = -float(np.real(np.vdot(t, t)))
    return n * np.log(np.pi) - logdet_negTheta - quad


def _neg_entropy(mu: np.ndarray, M: np.ndarray) -> float:
    """phi(mu, M) = -N (log pi + 1) - log det(M - mu mu^H)."""
    n = mu.size
    Sigma = M - np.outer(mu, mu.conj())
    L = _chol_pd(Sigma, "M - mu mu^H")
    logdet_Sigma = 2.0 * float(np.sum(np.log(np.real(np.diag(L)))))
    return -n * (np.log(np.pi) + 1.0) - logdet_Sigma


def kl_divergence(p1: GaussianNatural, p0: GaussianNatural) -> float:
    """KL divergence D(P1 ; P0) between complex Gaussians in natural form.

    Evaluated as the Bregman-divergence decomposition

        phi(mu1, M1) + psi(theta0, Theta0)
            - mu1^H theta0 - theta0^H mu1 - tr(M1 Theta0),

    which equals the integral-form KL divergence; the additive constants of
    phi and psi cancel against each other.
    """
    if p1.dim != p0.dim:
        raise DomainError("p1 and p0 must have the same dimension")
    e1 = natural_to_expectation(p1)
    phi = _neg_entropy(e1.mu, e1.M)
    psi = _free_energy(p0.theta, p0.Theta)
    cross = 2.0 * float(np.real(np.vdot(p0.theta, e1.mu)))
    trace = float(np.real(np.trace(e1.M @ p0.Theta)))
    return phi + psi - cross - trace


def m_project_to_diag(p: GaussianNatural) -> DiagGaussian:
    """m-projection onto the manifold of independent complex Gaussians.

    The projection preserves the mean and the diagonal second moments, so the
    projected coordinates are lam = mu / diag(Sigma), Lam = 1 / diag(Sigma).
    It is the unique KL minimizer over diagonal-precision Gaussians.
    """
    L = _chol_pd(-p.Theta, "-Theta")
    mu = _cho_solve(L, p.theta)
    Sigma = _cho_solve(L, np.eye(p.dim, dtype=np.complex128))
    var = np.real(np.diag(Sigma)).copy()
    if not np.all(var > 0):
        raise DomainError("projected variances must be positive")
    return DiagGaussian(mu / var, 1.0 / var)

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
takes one :class:`MeasurementModel`, which carries A^H y, formed once from
y or given as drawn, and owns every product of A^H A the estimators read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import bscm
from .errors import DomainError
from .gaussian import _cho_solve

__all__ = [
    "MeasurementModel",
    "ModelBatch",
    "ModifiedForm",
    "mmse_estimate",
    "build_modified_form",
    "modified_mmse_estimate",
]


@dataclass(frozen=True)
class MeasurementModel:
    """One draw of the linear-Gaussian measurement model: (A, D, sigma2, y),
    or (A, D, sigma2, A^H y).

    ``A`` is either a dense (M, N) complex matrix or a matrix-free operator
    exposing ``shape``, ``matvec``, ``rmatvec``, ``gram_diag`` and ``gram``
    (see :class:`igachan.bscm.BscmScenario`).  No estimator reads an
    operator's rows: IGA takes its entries to have modulus 1, as a
    ``BscmScenario``'s do, and runs from :meth:`gram` and ``ahy``.  ``d`` is
    the diagonal of D.

    Every estimator reads the data only through ``ahy`` = A^H y, a
    sufficient statistic for h.  Given ``y``, the model forms ``ahy`` from
    it once, by one dense product or one operator ``rmatvec``; a passed
    ``ahy`` is then ignored, so ``dataclasses.replace(model, y=...)`` forms
    it anew.  Given only ``ahy`` (of length N), the model holds no y, and
    only the dense rank-1 IGA reference, which splits y, refuses it.

    It owns every product of A^H A the estimators read: :meth:`gram`,
    ``gram_apply``, ``gram_diag``, ``c`` and ``gram_abs2``, each built at
    its first use, when ``bscm.DENSE_ENTRY_CAP`` is read, and shared after;
    ``dataclasses.replace`` starts with none built.  Above the cap on N^2,
    A^H A is applied through the operator, L is not formed and a dense
    ``A`` is refused.  :meth:`residual` is the one normal-equation residual
    of every estimator: the iteration driver and the direct solves read it.
    """

    A: object
    d: np.ndarray
    sigma2: float
    y: np.ndarray | None = None
    ahy: np.ndarray | None = None

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
        if self.y is not None:
            y = np.asarray(self.y, dtype=np.complex128).reshape(-1)
            if y.size != m:
                raise DomainError(f"y has length {y.size}, expected {m}")
            object.__setattr__(self, "y", y)
            # (y^H A)^H makes no conjugate copy of A
            ahy = (y.conj() @ A).conj() if self.is_dense else A.rmatvec(y)
        elif self.ahy is not None:
            ahy = np.asarray(self.ahy, dtype=np.complex128).reshape(-1)
            if ahy.size != n:
                raise DomainError(f"ahy has length {ahy.size}, expected {n}")
        else:
            raise DomainError("a measurement model needs y or A^H y")
        object.__setattr__(self, "ahy", ahy)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def is_dense(self) -> bool:
        return isinstance(self.A, np.ndarray)

    def gram(self) -> np.ndarray:
        """A^H A as a read-only dense (N, N) matrix, built once per model; an
        operator builds it in closed form."""
        return self._gram

    @cached_property
    def _gram(self) -> np.ndarray:
        G = self.A.conj().T @ self.A if self.is_dense else self.A.gram()
        G.flags.writeable = False
        return G

    def _gram_fits(self) -> bool:
        """Whether N^2 <= ``bscm.DENSE_ENTRY_CAP`` (:func:`igachan.bscm.gram_fits`);
        above it a dense ``A`` is refused."""
        if bscm.gram_fits(self.n):
            return True
        if self.is_dense:
            raise DomainError("N^2 exceeds DENSE_ENTRY_CAP: pass a matrix-free operator, "
                              "not a dense A")
        return False

    @cached_property
    def gram_apply(self):
        """x -> A^H A x: the dense A^H A at or below the cap, the operator's
        ``rmatvec(matvec(x))`` above it."""
        if self._gram_fits():
            return self.gram().dot
        op = self.A
        return lambda x: op.rmatvec(op.matvec(x))

    @cached_property
    def gram_diag(self) -> np.ndarray:
        """diag(A^H A), real."""
        if self._gram_fits():
            return np.real(np.diag(self.gram())).copy()
        return np.asarray(self.A.gram_diag(), dtype=np.float64)

    @cached_property
    def c(self) -> np.ndarray:
        """sigma2^{-1} diag(A^H A) + 1/d, the diagonal of the posterior precision."""
        c = self.gram_diag / self.sigma2 + 1.0 / self.d
        if not np.all(c > 0):
            raise DomainError("c must be strictly positive (check A columns and d)")
        return c

    @cached_property
    def sigma4_c(self) -> tuple:
        """sigma2^2 c as (f^2 c, -2k), sigma2 = f 2^k: ``np.ldexp(x / f2c, shift)``
        cannot underflow however small sigma2 is, and equals x / (sigma2^2 c)
        bit for bit wherever sigma2^2 is a normal float."""
        f, k = np.frexp(self.sigma2)
        return f * f * self.c, -2 * k

    @cached_property
    def gram_abs2(self) -> np.ndarray:
        """L = |A^H A|.^2, formed only at or below the cap."""
        if not self._gram_fits():
            raise DomainError("L = |A^H A|.^2 is not formed above DENSE_ENTRY_CAP")
        return np.abs(self.gram()) ** 2

    def abs2_apply(self, v: np.ndarray) -> np.ndarray:
        """v -> L v, with L = ``gram_abs2``."""
        return self.gram_abs2.dot(v)

    def residual(self, mu: np.ndarray, gram_mu: np.ndarray) -> float:
        """||(sigma2^{-1} A^H A + D^{-1}) mu - theta|| / ||theta||, theta = sigma2^{-1} A^H y,
        the relative normal-equation residual of ``mu`` given ``gram_mu`` = A^H A mu:
        :meth:`ModelBatch.residuals` on the batch of one."""
        return ModelBatch([self]).residuals(mu[None], gram_mu[None])[0]


class ModelBatch:
    """B measurement models whose runs the iteration driver steps together.

    Each model's vectors are the first ``sizes[b]`` entries of row b of a
    zero-padded (B, ``width``) array, ``width`` the largest N unless given.
    The padding keeps a padded entry of every element-wise step at zero:
    ``ahy`` and ``gram_diag`` pad with 0, and ``sigma2``, ``d`` and ``c``
    with 1 (``sigma2`` fills its row, since a same-shape operand is cheaper
    than a broadcast one).  Each array is built at its first use
    from the model's own, so its entries are the model's bit for bit.
    Every product or sum over N (:meth:`gram_apply`, :meth:`abs2_apply`,
    the norms of :meth:`residuals`) runs per model on the unpadded view:
    padding would change the association of BLAS and pairwise sums, and so
    the last bits of the result.
    """

    def __init__(self, models, width: int | None = None):
        self.models = tuple(models)
        self.sizes = [model.n for model in self.models]
        self.width = max(self.sizes) if width is None else width

    def take(self, rows) -> "ModelBatch":
        """The batch of the models at ``rows``, at the same width."""
        return ModelBatch([self.models[j] for j in rows], self.width)

    def _pad(self, name: str, fill: float, dtype) -> np.ndarray:
        out = np.full((len(self.models), self.width), fill, dtype=dtype)
        for row, model, n in zip(out, self.models, self.sizes):
            row[:n] = getattr(model, name)
        return out

    @cached_property
    def sigma2(self) -> np.ndarray:
        return self._pad("sigma2", 1.0, np.float64)

    @cached_property
    def d(self) -> np.ndarray:
        return self._pad("d", 1.0, np.float64)

    @cached_property
    def ahy(self) -> np.ndarray:
        return self._pad("ahy", 0.0, np.complex128)

    @cached_property
    def gram_diag(self) -> np.ndarray:
        return self._pad("gram_diag", 0.0, np.float64)

    @cached_property
    def c(self) -> np.ndarray:
        return self._pad("c", 1.0, np.float64)

    @cached_property
    def sigma4_c(self) -> tuple:
        """:attr:`MeasurementModel.sigma4_c` of the padded rows."""
        f, k = np.frexp(self.sigma2)
        return f * f * self.c, -2 * k

    def _per_model(self, product: str, v: np.ndarray) -> np.ndarray:
        out = np.zeros(v.shape, v.dtype)
        for j, (model, n) in enumerate(zip(self.models, self.sizes)):
            out[j, :n] = getattr(model, product)(v[j, :n])
        return out

    def gram_apply(self, v: np.ndarray) -> np.ndarray:
        """Row b -> A_b^H A_b v_b, through each model's ``gram_apply``."""
        return self._per_model("gram_apply", v)

    def abs2_apply(self, v: np.ndarray) -> np.ndarray:
        """Row b -> L_b v_b, through each model's :meth:`MeasurementModel.abs2_apply`."""
        return self._per_model("abs2_apply", v)

    @cached_property
    def _residual_parts(self) -> tuple:
        """Row b's sigma2, d and theta = sigma2^{-1} A^H y divided by a power
        of two 2^e_b near its largest |theta|, ||theta|| scaled so, and a
        (B, width) buffer for the residual vectors with the real and
        imaginary views of each row's unpadded part.

        The scaled terms are O(1), so squaring them cannot overflow however
        small sigma2 is, and 2^e_b is formed from the exponents of sigma2
        and max |A^H y| alone.  A power of two scales exactly, so each
        residual equals the unscaled one bit for bit wherever that one is
        finite.  A row with theta = 0 keeps e_b = 0 and the norm 1.
        """
        exps = np.array([[np.frexp(np.abs(model.ahy).max())[1] - np.frexp(model.sigma2)[1]
                          if model.ahy.any() else 0] for model in self.models])
        # d 2^e overflows only where mu / d is below 2^-1000 of theta
        with np.errstate(over="ignore"):
            sigma2, d = np.ldexp(self.sigma2, exps), np.ldexp(self.d, exps)
        for n, sigma2_row, d_row in zip(self.sizes, sigma2, d):
            sigma2_row[n:] = d_row[n:] = 1.0
        theta = self.ahy / sigma2
        norms = [float(np.linalg.norm(row[:n])) or 1.0 for row, n in zip(theta, self.sizes)]
        buf = np.zeros((len(self.models), self.width), dtype=np.complex128)
        views = [(buf[j, :n].real, buf[j, :n].imag) for j, n in enumerate(self.sizes)]
        return sigma2, d, theta, norms, buf, views

    def residuals(self, mu: np.ndarray, gram_mu: np.ndarray) -> list:
        """Each row's :meth:`MeasurementModel.residual`, as a list of floats."""
        sigma2, d, theta, norms, diff, views = self._residual_parts
        np.divide(gram_mu, sigma2, out=diff)
        diff += mu / d
        diff -= theta
        # np.linalg.norm of a complex vector, without its argument handling
        return [math.sqrt(re.dot(re) + im.dot(im)) / norm
                for (re, im), norm in zip(views, norms)]


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

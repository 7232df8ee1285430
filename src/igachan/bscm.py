"""Beam-domain measurement model for a planar array with ZC pilots.

Geometry.  A uniform planar array with M_z x M_x half-wavelength elements
observes channels on an oversampled beam grid: the sampled directional
cosines are u_i = (2(i-1) - N_z) / N_z (likewise v_j), giving the steering
matrix V = V_z kron V_x of size M_r x N_r with [V_z]_{m,i} =
exp(-j pi (m-1) u_i).  On the frequency axis, sampled delays
tau_r = (r-1) / (N_p df) give the M_p x N_f matrix
[U]_{l,r} = exp(-j 2 pi (l-1)(r-1) / N_p).

Pilots.  User k is assigned root q and cyclic shift p; its pilot is the
Zadoff-Chu sequence of root q-1 modulated by the delay ramp of shift p.
Users sharing a root land in disjoint N_f-column blocks of the root's
beam-channel matrix provided P <= floor(N_p / N_f).  Stacking the Q roots
gives Y = V H P_mat + Z, and vectorizing gives y = (P_mat^T kron V) h_tilde
+ z.  Removing beam coefficients with (near-)zero prior variance through an
extraction map yields the working model y = A h + z.

Fast application.  V_z equals a per-antenna sign diagonal
diag((-1)^(m-1)) times the first M_z rows of the N_z-point DFT matrix (the
centered cosine grid shifts the DFT by half the spectrum), and the pilot
blocks of P_mat are diagonal scalings of a partial DFT.  A and A^H therefore
apply in O(Q (M_r N_p log N_p + N_p N_r log N_r)) via FFTs, with the sign
correction applied explicitly in the spatial stage.
"""

from __future__ import annotations

import functools
import math
import typing
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

__all__ = [
    "ArrayConfig",
    "OfdmConfig",
    "PilotPlan",
    "ExtractionMap",
    "ScenarioConfig",
    "BscmScenario",
    "largest_prime_below",
    "build_steering",
    "zc_pilot",
    "build_P_matrix",
    "assemble_dense_A",
    "parse_scenario_config",
    "load_scenario_config",
    "geometry_from_config",
]

DENSE_ENTRY_CAP = 10_000_000  # complex entries of the largest dense A or A^H A formed


def largest_prime_below(n: int) -> int:
    """Largest prime strictly less than n."""
    if n <= 2:
        raise DomainError(f"no prime below {n}")
    for cand in range(n - 1, 1, -1):
        if all(cand % p for p in range(2, int(math.isqrt(cand)) + 1)):
            return cand
    raise DomainError(f"no prime below {n}")


@dataclass(frozen=True)
class ArrayConfig:
    """Planar-array geometry; antenna spacing is fixed at half a wavelength."""

    M_z: int
    M_x: int
    F_z: int = 1
    F_x: int = 1

    def __post_init__(self):
        for name in ("M_z", "M_x", "F_z", "F_x"):
            if int(getattr(self, name)) < 1:
                raise DomainError(f"{name} must be >= 1")

    @property
    def N_z(self) -> int:
        return self.F_z * self.M_z

    @property
    def N_x(self) -> int:
        return self.F_x * self.M_x

    @property
    def M_r(self) -> int:
        return self.M_z * self.M_x

    @property
    def N_r(self) -> int:
        return self.N_z * self.N_x


@dataclass(frozen=True)
class OfdmConfig:
    """Subcarrier/pilot layout of the OFDM frame."""

    N_c: int
    delta_f_hz: float
    M_p: int
    M_g: int
    F_p: int = 1

    def __post_init__(self):
        for name in ("N_c", "M_p", "M_g", "F_p"):
            if int(getattr(self, name)) < 1:
                raise DomainError(f"{name} must be >= 1")
        if not 0 < float(self.delta_f_hz) < math.inf:  # nan fails too
            raise DomainError(f"delta_f_hz must be finite and positive, got {self.delta_f_hz}")
        if self.N_f > self.N_p:
            raise DomainError("N_f must not exceed N_p (cyclic prefix too long)")
        if self.M_p > self.N_p:
            raise DomainError("M_p must not exceed N_p")

    @property
    def N_p(self) -> int:
        return self.F_p * self.M_p

    @property
    def N_f(self) -> int:
        return -(-self.N_p * self.M_g // self.N_c)  # ceil


@dataclass(frozen=True)
class PilotPlan:
    """Assignment of users to ZC roots and cyclic shifts.

    User k (1-based) gets root q = floor((k-1)/P) + 1 and shift
    p = ((k-1) mod P) + 1.  ``N_l`` is the largest prime below M_p.
    """

    K: int
    P: int
    M_p: int
    N_p: int
    N_f: int

    def __post_init__(self):
        if self.K < 1 or self.P < 1:
            raise DomainError("K and P must be >= 1")
        p_max = self.N_p // self.N_f
        if self.P > p_max:
            raise DomainError(
                f"P = {self.P} exceeds floor(N_p / N_f) = {p_max}; "
                "users sharing a root would alias"
            )
        if self.Q > self.N_l - 1:
            raise DomainError(
                f"requires {self.Q} ZC roots but only {self.N_l - 1} distinct "
                f"nontrivial roots exist below N_l = {self.N_l}"
            )

    @property
    def Q(self) -> int:
        return -(-self.K // self.P)  # ceil(K / P)

    @property
    def N_l(self) -> int:
        return largest_prime_below(self.M_p)

    def user_slot(self, k: int) -> tuple[int, int]:
        """(root q, shift p), both 1-based, of user k in 1..K."""
        if not (1 <= k <= self.K):
            raise DomainError(f"user index {k} out of range 1..{self.K}")
        return (k - 1) // self.P + 1, (k - 1) % self.P + 1

    def user_columns(self, k: int) -> slice:
        """Columns of user k's N_f beam block in the (N_r, Q N_p) stacked grid."""
        q, p = self.user_slot(k)
        start = (q - 1) * self.N_p + (p - 1) * self.N_f
        return slice(start, start + self.N_f)


@dataclass(frozen=True)
class ExtractionMap:
    """Positions (0-based) of the stacked beam coefficients that are kept."""

    indices: np.ndarray
    n_tilde: int

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64).reshape(-1)
        if idx.size == 0:
            raise DomainError("extraction map must keep at least one index")
        if np.any(np.diff(idx) <= 0):
            raise DomainError("extraction indices must be strictly increasing")
        if idx[0] < 0 or idx[-1] >= self.n_tilde:
            raise DomainError("extraction indices out of range")
        object.__setattr__(self, "indices", idx)

    @property
    def n(self) -> int:
        return self.indices.size


def full_extraction(array: ArrayConfig, ofdm: OfdmConfig, plan: PilotPlan) -> ExtractionMap:
    nt = plan.Q * ofdm.N_p * array.N_r
    return ExtractionMap(indices=np.arange(nt, dtype=np.int64), n_tilde=nt)


# ---------------------------------------------------------------------------
# steering, pilots, stacked pilot matrix

def sampled_cosines(n: int) -> np.ndarray:
    """u_i = (2(i-1) - n) / n for i = 1..n; a centered grid on [-1, 1)."""
    i = np.arange(1, n + 1, dtype=np.float64)
    return (2.0 * (i - 1) - n) / n


def _steering_axis(m: int, n: int) -> np.ndarray:
    u = sampled_cosines(n)
    ant = np.arange(m, dtype=np.float64)
    return np.exp(-1j * np.pi * np.outer(ant, u))


def build_steering(array: ArrayConfig, ofdm: OfdmConfig):
    """(V_z, V_x, V, U): dense sampled steering matrices.

    V = V_z kron V_x maps the beam grid to antennas; U maps sampled delays
    to pilot subcarriers and equals the top-left M_p x N_f block of the
    N_p-point DFT matrix.  All entries have unit modulus.
    """
    V_z = _steering_axis(array.M_z, array.N_z)
    V_x = _steering_axis(array.M_x, array.N_x)
    V = np.kron(V_z, V_x)
    l = np.arange(ofdm.M_p, dtype=np.float64)
    r = np.arange(ofdm.N_f, dtype=np.float64)
    U = np.exp(-2j * np.pi * np.outer(l, r) / ofdm.N_p)
    return V_z, V_x, V, U


def _zc_root_sequence(q: int, m_p: int, n_l: int) -> np.ndarray:
    # exact phase via modular reduction: (q-1) l (l-1) mod 2 N_l
    l = np.arange(1, m_p + 1, dtype=np.int64)
    phase = ((q - 1) * l * (l - 1)) % (2 * n_l)
    return np.exp(-1j * np.pi * phase / n_l)


def _delay_ramp(p: int, m_p: int, n_p: int, n_f: int) -> np.ndarray:
    l = np.arange(m_p, dtype=np.int64)
    phase = (l * (p - 1) * n_f) % n_p
    return np.exp(-2j * np.pi * phase / n_p)


def zc_pilot(plan: PilotPlan, ofdm: OfdmConfig, k: int) -> np.ndarray:
    """Pilot of user k: ZC root sequence times the cyclic delay ramp."""
    q, p = plan.user_slot(k)
    return _zc_root_sequence(q, ofdm.M_p, plan.N_l) * _delay_ramp(
        p, ofdm.M_p, ofdm.N_p, ofdm.N_f
    )


def build_P_matrix(plan: PilotPlan, ofdm: OfdmConfig) -> np.ndarray:
    """Stacked pilot matrix of shape (Q N_p, M_p).

    Horizontal blocks diag(zc_root_q) @ U_F are stacked over roots and
    transposed, with U_F the first M_p rows of the N_p-point DFT matrix.
    """
    m_p, n_p = ofdm.M_p, ofdm.N_p
    l = np.arange(m_p, dtype=np.float64)
    r = np.arange(n_p, dtype=np.float64)
    U_F = np.exp(-2j * np.pi * np.outer(l, r) / n_p)
    blocks = [
        _zc_root_sequence(q, m_p, plan.N_l)[:, None] * U_F
        for q in range(1, plan.Q + 1)
    ]
    return np.hstack(blocks).T


# ---------------------------------------------------------------------------
# scenario handle with fast operators

class BscmScenario:
    """Immutable handle bundling geometry, pilots and the extraction map.

    Provides the interface (``shape``, ``matvec``, ``rmatvec``, ``gram_diag``,
    ``gram``) expected by :class:`igachan.estimators.MeasurementModel`,
    and ``gram_block`` for the Gram matrix of a subset of the extracted columns.
    Every entry of A has modulus 1 (a pilot phase times a steering phase),
    which IGA's Gram-domain step relies on.
    """

    def __init__(self, array: ArrayConfig, ofdm: OfdmConfig, plan: PilotPlan,
                 extraction: ExtractionMap):
        if plan.M_p != ofdm.M_p or plan.N_p != ofdm.N_p or plan.N_f != ofdm.N_f:
            raise DomainError("pilot plan is inconsistent with the OFDM config")
        nt = plan.Q * ofdm.N_p * array.N_r
        if extraction.n_tilde != nt:
            raise DomainError(
                f"extraction map covers {extraction.n_tilde} stacked entries, "
                f"scenario has {nt}"
            )
        self.array = array
        self.ofdm = ofdm
        self.plan = plan
        self.extraction = extraction
        self.xt = np.stack([
            _zc_root_sequence(q, ofdm.M_p, plan.N_l) for q in range(1, plan.Q + 1)
        ])
        self._sign_z = (-1.0) ** np.arange(array.M_z)
        self._sign_x = (-1.0) ** np.arange(array.M_x)

    @property
    def shape(self) -> tuple[int, int]:
        return self.array.M_r * self.ofdm.M_p, self.extraction.n

    @property
    def n_tilde(self) -> int:
        return self.plan.Q * self.ofdm.N_p * self.array.N_r

    # -- spatial stage -----------------------------------------------------
    def _spatial_forward(self, H: np.ndarray) -> np.ndarray:
        """V @ H for H of shape (N_r, L): 2-D FFT, truncate, sign-correct."""
        a = self.array
        Hc = H.reshape(a.N_z, a.N_x, -1)
        G = np.fft.fft2(Hc, axes=(0, 1))[: a.M_z, : a.M_x, :]
        G = G * self._sign_z[:, None, None] * self._sign_x[None, :, None]
        return G.reshape(a.M_r, -1)

    def _spatial_adjoint(self, X: np.ndarray) -> np.ndarray:
        """V^H @ X for X of shape (M_r, L): sign-correct, zero-pad, conj 2-D FFT."""
        a = self.array
        Xc = X.reshape(a.M_z, a.M_x, -1)
        Xc = Xc * self._sign_z[:, None, None] * self._sign_x[None, :, None]
        pad = np.zeros((a.N_z, a.N_x, Xc.shape[2]), dtype=np.complex128)
        pad[: a.M_z, : a.M_x, :] = Xc
        H = np.fft.ifft2(pad, axes=(0, 1)) * (a.N_z * a.N_x)
        return H.reshape(a.N_r, -1)

    # -- frequency/pilot stage ----------------------------------------------
    def _pilot_forward(self, X: np.ndarray) -> np.ndarray:
        """(X @ P_mat) for X of shape (M_r, Q N_p): per-root FFT + pilot scaling."""
        o = self.ofdm
        Y = np.zeros((self.array.M_r, o.M_p), dtype=np.complex128)
        for q in range(self.plan.Q):
            blk = X[:, q * o.N_p : (q + 1) * o.N_p]
            Y += np.fft.fft(blk, axis=1)[:, : o.M_p] * self.xt[q][None, :]
        return Y

    def _pilot_adjoint(self, B: np.ndarray) -> np.ndarray:
        """(B @ P_mat^H) for B of shape (M_r, M_p)."""
        o = self.ofdm
        W = np.empty((self.array.M_r, self.plan.Q * o.N_p), dtype=np.complex128)
        pad = np.zeros((self.array.M_r, o.N_p), dtype=np.complex128)
        for q in range(self.plan.Q):
            pad[:, : o.M_p] = B * self.xt[q].conj()[None, :]
            W[:, q * o.N_p : (q + 1) * o.N_p] = np.fft.ifft(pad, axis=1) * o.N_p
        return W

    # -- public operator interface ------------------------------------------
    def matvec(self, s) -> np.ndarray:
        """A s: scatter through the extraction map, transform, vectorize."""
        s = np.asarray(s, dtype=np.complex128).reshape(-1)
        if s.size != self.extraction.n:
            raise DomainError(f"s has length {s.size}, expected {self.extraction.n}")
        ht = np.zeros(self.n_tilde, dtype=np.complex128)
        ht[self.extraction.indices] = s
        H = ht.reshape(self.array.N_r, -1, order="F")
        Y = self._pilot_forward(self._spatial_forward(H))
        return Y.reshape(-1, order="F")

    def rmatvec(self, b) -> np.ndarray:
        """A^H b: transform back and gather through the extraction map."""
        b = np.asarray(b, dtype=np.complex128).reshape(-1)
        m = self.array.M_r * self.ofdm.M_p
        if b.size != m:
            raise DomainError(f"b has length {b.size}, expected {m}")
        B = b.reshape(self.array.M_r, -1, order="F")
        H = self._spatial_adjoint(self._pilot_adjoint(B))
        return H.reshape(-1, order="F")[self.extraction.indices]

    def gram_diag(self) -> np.ndarray:
        """diag(A^H A): every column has unit-modulus entries, so M_r M_p."""
        return np.full(self.extraction.n, float(self.array.M_r * self.ofdm.M_p))

    def gram(self) -> np.ndarray:
        """A^H A over the extracted columns: :meth:`gram_block` on every position."""
        return self.gram_block(slice(None))

    def gram_block(self, positions) -> np.ndarray:
        """Rows and columns ``positions`` (an index array or slice into the
        extraction) of A^H A, in closed form without forming A.

        Column e of A is PT[:, q N_p + r] kron V_z[:, i_z] kron V_x[:, i_x],
        and each factor's Gram matrix is circulant, so G[e, e'] =
        Kp[q, q'][(r' - r) mod N_p] Dz[(i_z - i_z') mod N_z] Dx[(i_x - i_x') mod N_x]
        with Kp[q, q'] = FFT_{N_p}(conj(zc_q) zc_q') and Dz[k] = V_z[:, k]^H V_z[:, 0].
        A block of b positions costs O(b^2) once the generators are built
        (O(Q^2 N_p log N_p), once per scenario); refuses above
        ``DENSE_ENTRY_CAP`` entries.
        """
        a, o = self.array, self.ofdm
        idx = self.extraction.indices[positions]
        _refuse_above_cap("Gram matrix", idx.size, idx.size)
        kp, dz, dx = self._gram_generators
        col_j, col_i = np.divmod(idx, a.N_r)
        q, r = np.divmod(col_j, o.N_p)
        iz, ix = np.divmod(col_i, a.N_x)
        return (kp[q[:, None], q[None, :], (r[None, :] - r[:, None]) % o.N_p]
                * dz[(iz[:, None] - iz[None, :]) % a.N_z]
                * dx[(ix[:, None] - ix[None, :]) % a.N_x])

    @functools.cached_property
    def _gram_generators(self):
        """(Kp, Dz, Dx): the circulant generators :meth:`gram_block` reads."""
        a, o = self.array, self.ofdm
        kp = np.fft.fft(self.xt.conj()[:, None, :] * self.xt[None, :, :], n=o.N_p)
        vz, vx = _steering_axis(a.M_z, a.N_z), _steering_axis(a.M_x, a.N_x)
        return kp, vz.conj().T @ vz[:, 0], vx.conj().T @ vx[:, 0]

    def beam_to_space_freq(self, H_k: np.ndarray) -> np.ndarray:
        """V @ H_k @ U^T for one user's beam matrix (N_r, N_f) -> (M_r, M_p)."""
        o = self.ofdm
        H_k = np.asarray(H_k, dtype=np.complex128)
        if H_k.shape != (self.array.N_r, o.N_f):
            raise DomainError(
                f"beam matrix has shape {H_k.shape}, expected "
                f"({self.array.N_r}, {o.N_f})"
            )
        X = self._spatial_forward(H_k)
        pad = np.zeros((self.array.M_r, o.N_p), dtype=np.complex128)
        pad[:, : o.N_f] = X
        return np.fft.fft(pad, axis=1)[:, : o.M_p]


def _refuse_above_cap(what: str, rows: int, cols: int) -> None:
    if rows * cols > DENSE_ENTRY_CAP:
        raise DomainError(
            f"{what} of {rows} x {cols} = {rows * cols} complex entries exceeds the "
            f"desk-scale cap of {DENSE_ENTRY_CAP}; use the fast operators"
        )


def assemble_dense_A(array: ArrayConfig, ofdm: OfdmConfig, plan: PilotPlan,
                     extraction: ExtractionMap) -> np.ndarray:
    """Extracted columns of P_mat^T kron V, assembled column by column.

    A desk-scale oracle, which no estimator calls; refuses above
    ``DENSE_ENTRY_CAP`` complex entries.
    """
    m = array.M_r * ofdm.M_p
    n = extraction.n
    _refuse_above_cap("dense assembly", m, n)
    PT = build_P_matrix(plan, ofdm).T  # (M_p, Q N_p)
    _, _, V, _ = build_steering(array, ofdm)
    n_r = array.N_r
    col_j = extraction.indices // n_r  # index into P^T columns
    col_i = extraction.indices % n_r  # index into V columns
    A = (PT[:, col_j][:, None, :] * V[:, col_i][None, :, :]).reshape(m, n)
    return A


# ---------------------------------------------------------------------------
# scenario description files

@dataclass(frozen=True)
class ScenarioConfig:
    """Keys of a scenario description file; defaults are the standard
    128-antenna, 120-pilot setup."""

    M_z: int = 8
    M_x: int = 16
    F_z: int = 2
    F_x: int = 2
    N_c: int = 2048
    delta_f_hz: float = 30_000.0
    M_p: int = 120
    M_g: int = 144
    F_p: int = 2
    K: int = 12
    P: int = 12
    seed: int = 0


def parse_scenario_config(text: str) -> ScenarioConfig:
    """Parse ``key = value`` lines; unknown keys are an error (catch typos)."""
    key_types = typing.get_type_hints(ScenarioConfig)
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        val = val.strip()
        if key not in key_types:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = key_types[key](val)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: cannot parse value {val!r} for key {key!r}"
            ) from None
    return ScenarioConfig(**values)


def load_scenario_config(path) -> ScenarioConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a UTF-8 text file ({exc.reason})") from None
    return parse_scenario_config(text)


def geometry_from_config(cfg: ScenarioConfig):
    """(ArrayConfig, OfdmConfig, PilotPlan) derived from a scenario config."""
    try:
        array = ArrayConfig(M_z=cfg.M_z, M_x=cfg.M_x, F_z=cfg.F_z, F_x=cfg.F_x)
        ofdm = OfdmConfig(N_c=cfg.N_c, delta_f_hz=cfg.delta_f_hz, M_p=cfg.M_p,
                          M_g=cfg.M_g, F_p=cfg.F_p)
        plan = PilotPlan(K=cfg.K, P=cfg.P, M_p=ofdm.M_p, N_p=ofdm.N_p, N_f=ofdm.N_f)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
    return array, ofdm, plan

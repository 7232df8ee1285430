"""Synthetic scenario generation: sparse beam-domain power maps, channel
draws, and received pilot signals or their sufficient statistic.

Power maps are built from a few rectangular clusters on the N_r x N_f beam
grid with lognormal relative powers, normalized so every user's variances
sum to one; beam coefficients are then independent zero-mean complex
Gaussians with those variances.  :func:`extraction_from_powers` returns
the extraction, the coefficients of nonzero variance, with those
variances, its prior.  :func:`sample_channels` draws a user's whole grid;
:func:`sample_extracted` draws only the coefficients on the extraction,
which is all a trial reads.  :func:`synthesize_rx` forms y = A h + z by
FFT; :func:`synthesize_ahy` draws A^H y = A^H A h + A^H z from A^H A
alone, with the same distribution, which is all an estimator reads of y.
Everything is drawn from named substreams of a counter-based Philox
generator, whose seed :func:`check_seed` checks, so any (config, seed)
pair reproduces bit-identical data and trials can be generated
independently in any order.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .bscm import (
    ArrayConfig,
    BscmScenario,
    ExtractionMap,
    OfdmConfig,
    PilotPlan,
    ScenarioConfig,
    geometry_from_config,
)
from .errors import ConfigError, DomainError

__all__ = [
    "RNG_FAMILY",
    "PowerMatrix",
    "BeamChannel",
    "substream",
    "gen_power_matrices",
    "sample_channels",
    "user_slices",
    "sample_extracted",
    "stack_grid",
    "extraction_from_powers",
    "synthesize_rx",
    "gram_factor",
    "synthesize_ahy",
    "save_power_matrices",
    "load_power_matrices",
    "save_channels",
    "load_channels",
]

RNG_FAMILY = "philox4x64"  # counter-based; recorded in output metadata

_PURPOSES = {"powers": 1, "channels": 2, "noise": 3}

DEFAULT_CLUSTERS = 3
ZERO_VARIANCE_REL_THRESHOLD = 1e-12


# check_seed stays out of __all__: outside-in tracers would time it inside
# every substream call
def check_seed(value, what: str = "seed") -> int:
    """``value`` as an int if it is a seed, an integer in [0, 2^64); else
    ConfigError.  Substream indices obey the same rule."""
    if not (isinstance(value, (int, np.integer)) and 0 <= value < 2**64):
        raise ConfigError(f"{what} must be an integer in [0, 2^64), got {value!r}")
    return int(value)


def substream(seed: int, purpose: str, *indices: int) -> np.random.Generator:
    """Philox generator on the named substream.

    The stream key is the entropy tuple (seed, purpose id, *indices), so
    streams for different purposes, trials or users never collide and can
    be drawn in any order.
    """
    if purpose not in _PURPOSES:
        raise ConfigError(f"unknown substream purpose {purpose!r}")
    entropy = (check_seed(seed), _PURPOSES[purpose],
               *(check_seed(i, "substream index") for i in indices))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


@dataclass(frozen=True)
class PowerMatrix:
    """Per-user beam-domain variances; nonnegative, summing to one."""

    omega: np.ndarray

    def __post_init__(self):
        om = np.asarray(self.omega, dtype=np.float64)
        if om.ndim != 2:
            raise DomainError("omega must be a 2-D grid")
        if np.any(om < 0):
            raise DomainError("omega entries must be nonnegative")
        if abs(om.sum() - 1.0) > 1e-12:
            raise DomainError("omega must sum to 1 (got %.17g)" % om.sum())
        object.__setattr__(self, "omega", om)


@dataclass(frozen=True)
class BeamChannel:
    """One user's beam-domain channel draw."""

    H: np.ndarray

    def __post_init__(self):
        H = np.asarray(self.H, dtype=np.complex128)
        if H.ndim != 2:
            raise DomainError("H must be a 2-D matrix")
        object.__setattr__(self, "H", H)


def _cluster_dims(array: ArrayConfig, ofdm: OfdmConfig) -> tuple[int, int]:
    # one resolution cell per cluster: F_x adjacent fine beams, and up to F_p
    # adjacent sampled delays when the delay grid has room
    h = max(1, array.F_x)
    w = max(1, min(ofdm.F_p, ofdm.N_f // (2 * DEFAULT_CLUSTERS)))
    return h, w


def _lattice_anchor(rng, extent: int, size: int) -> int:
    # anchors snap to a stride-2*size lattice so distinct clusters never
    # chain into longer runs of mutually coherent grid columns
    slots = max(1, (extent - size) // (2 * size) + 1)
    return int(rng.integers(0, slots)) * 2 * size


def gen_power_matrices(cfg: ScenarioConfig, seed: int,
                       stream: tuple = ()) -> list[PowerMatrix]:
    """Draw one power map per user.

    Each map is a sum of ``DEFAULT_CLUSTERS`` rectangles with lognormal relative
    powers spread uniformly over the rectangle, normalized to total power
    one.  Rectangles are sized like one array/delay resolution cell and
    anchored on a separated lattice, which keeps the extracted measurement
    columns well conditioned; ``stream`` carries extra substream indices
    (e.g. trial number) for independent redraws under one seed.
    """
    array, ofdm, plan = geometry_from_config(cfg)
    n_r, n_f = array.N_r, ofdm.N_f
    h, w = _cluster_dims(array, ofdm)
    out = []
    for k in range(1, plan.K + 1):
        rng = substream(seed, "powers", *stream, k)
        omega = np.zeros((n_r, n_f), dtype=np.float64)
        for _ in range(DEFAULT_CLUSTERS):
            top = _lattice_anchor(rng, n_r, h)
            left = _lattice_anchor(rng, n_f, w)
            power = float(rng.lognormal(0.0, 1.0))
            omega[top : top + h, left : left + w] += power / (h * w)
        omega /= omega.sum()
        out.append(PowerMatrix(omega))
    return out


def sample_channels(powers: list[PowerMatrix], seed: int,
                    stream: tuple = ()) -> list[BeamChannel]:
    """Draw H_k with independent CN(0, omega_ij) entries.

    Zero-variance grid cells come out as exact zeros.
    """
    out = []
    for k, pm in enumerate(powers, start=1):
        rng = substream(seed, "channels", *stream, k)
        shape = pm.omega.shape
        g = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
        out.append(BeamChannel(np.sqrt(pm.omega) * g))
    return out


def user_slices(extraction: ExtractionMap, array: ArrayConfig,
                plan: PilotPlan) -> list[slice]:
    """User k's coefficients in extraction order, one slice per user.

    User k's beam matrix fills the stacked positions first_k + vec(H_k), and
    the extraction is sorted, so its extracted coefficients are contiguous.
    """
    out = []
    for k in range(1, plan.K + 1):
        cols = plan.user_columns(k)
        ends = (cols.start * array.N_r, cols.stop * array.N_r)
        out.append(slice(*np.searchsorted(extraction.indices, ends).tolist()))
    return out


def sample_extracted(d: np.ndarray, slices: list[slice], seed: int,
                     stream: tuple = ()) -> np.ndarray:
    """h ~ CN(0, diag(d)) on the extraction, user k's slice ``slices[k-1]``
    drawn from the same "channels" substream as :func:`sample_channels`.

    It has the law of :func:`sample_channels` gathered on the extraction,
    but draws only n normals, not a full grid per user.
    """
    h = np.empty(d.size, dtype=np.complex128)
    for k, s in enumerate(slices, start=1):
        rng = substream(seed, "channels", *stream, k)
        size = s.stop - s.start
        g = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2.0)
        h[s] = np.sqrt(d[s]) * g
    return h


def stack_grid(grids: list[np.ndarray], array: ArrayConfig, ofdm: OfdmConfig,
               plan: PilotPlan) -> np.ndarray:
    """Stacked beam vector of the users' (N_r, N_f) grids (power maps or
    channels): user k lands in its root/shift column block of the
    (N_r, Q N_p) grid, read column-major (length Q N_p N_r)."""
    if len(grids) != plan.K:
        raise DomainError(f"expected {plan.K} user grids, got {len(grids)}")
    # column-major, so the stacking reshape below is a view, not a copy
    grid = np.zeros((array.N_r, plan.Q * ofdm.N_p), dtype=np.result_type(*grids), order="F")
    for k in range(1, plan.K + 1):
        grid[:, plan.user_columns(k)] = grids[k - 1]
    return grid.reshape(-1, order="F")


def extraction_from_powers(powers: list[PowerMatrix], array: ArrayConfig, ofdm: OfdmConfig,
                           plan: PilotPlan) -> tuple[ExtractionMap, np.ndarray]:
    """The extraction and its prior: the stacked indices whose variance
    exceeds ZERO_VARIANCE_REL_THRESHOLD * max, and the variances d there,
    in extraction order.

    Every map sums to one, so the maximum is positive and so is every kept
    variance.  The threshold (rather than an exact-zero test) guards
    serialization round-trips of the power maps.
    """
    om = stack_grid([pm.omega for pm in powers], array, ofdm, plan)
    extraction = ExtractionMap(
        indices=np.flatnonzero(om > ZERO_VARIANCE_REL_THRESHOLD * om.max()), n_tilde=om.size)
    return extraction, om[extraction.indices]


def synthesize_rx(scenario: BscmScenario, h: np.ndarray, sigma2: float, seed: int,
                  stream: tuple = ()) -> np.ndarray:
    """y = A h + z through the fast operator, with circular complex noise.

    ``h`` holds the beam coefficients on ``scenario.extraction``, in
    extraction order (``stack_grid(...)[extraction.indices]`` of a
    channel draw's grids).  Noise draws come from the "noise" substream; real and
    imaginary parts each have variance sigma2 / 2.  ``sigma2 = 0`` gives a
    noise-free y.
    """
    if sigma2 < 0:
        raise DomainError("sigma2 must be nonnegative")
    y = scenario.matvec(h)
    if sigma2 > 0:
        rng = substream(seed, "noise", *stream)
        z = rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size)
        y = y + np.sqrt(sigma2 / 2.0) * z
    return y


def gram_factor(G: np.ndarray) -> np.ndarray:
    """F with F F^H = G for a Hermitian positive semidefinite G.

    The Cholesky factor; where Cholesky refuses a singular G, V sqrt(max(lambda, 0))
    from ``eigh``, which costs about ten times more.
    """
    try:
        return np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        lam, V = np.linalg.eigh(G)
        return V * np.sqrt(np.maximum(lam, 0.0))


def synthesize_ahy(G: np.ndarray, h: np.ndarray, sigma2: float, seed: int,
                   stream: tuple = ()) -> np.ndarray:
    """A^H y = G h + A^H z drawn from G = A^H A, without forming y.

    A^H z ~ CN(0, sigma2 G) is drawn as sqrt(sigma2) F w with F F^H = G
    (:func:`gram_factor`) and w ~ CN(0, I_n) from the "noise" substream
    (real and imaginary parts of variance 1/2), so the result has the law
    of ``A^H synthesize_rx(...)``, though not its values.  ``sigma2 = 0``
    gives the noise-free G h.
    """
    if sigma2 < 0:
        raise DomainError("sigma2 must be nonnegative")
    ahy = G @ h
    if sigma2 > 0:
        rng = substream(seed, "noise", *stream)
        w = rng.standard_normal(h.size) + 1j * rng.standard_normal(h.size)
        ahy = ahy + np.sqrt(sigma2 / 2.0) * (gram_factor(G) @ w)
    return ahy


# ---------------------------------------------------------------------------
# flat binary serialization (little-endian)

_MAGIC = b"IGACHAN1"
_HEADER_BYTES = len(_MAGIC) + 16
_KIND_POWERS = 1
_KIND_CHANNELS = 2


def _write_arrays(path, kind: int, dtype: str, what: str, arrays: list) -> None:
    """Header (magic, kind, count, rows, cols), then each (rows, cols) array
    row-major as ``dtype``; the file ``_read_arrays`` reads."""
    rows, cols = arrays[0].shape
    if any(a.shape != (rows, cols) for a in arrays):
        raise DomainError(f"all {what} must share one shape")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIII", kind, len(arrays), rows, cols))
        for a in arrays:
            fh.write(np.asarray(a, dtype=dtype).tobytes())


def _read_arrays(path, kind: int, dtype: str, what: str) -> np.ndarray:
    """(count, rows, cols) array of a file written with ``_write_arrays``.

    A file cut inside the header or the payload is a ConfigError naming the
    file and the byte count its header promises.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER_BYTES)
        # a file shorter than the magic but matching it so far was cut, not foreign
        if head[: len(_MAGIC)] != _MAGIC[: len(head)]:
            raise ConfigError(f"bad magic {head[:len(_MAGIC)]!r}; not an igachan binary file")
        if len(head) < _HEADER_BYTES:
            raise ConfigError(f"{path}: truncated header: {len(head)} bytes, "
                              f"expected {_HEADER_BYTES}")
        file_kind, count, rows, cols = struct.unpack("<IIII", head[len(_MAGIC):])
        if file_kind != kind:
            raise ConfigError(f"file holds kind {file_kind}, expected {what}")
        size = count * rows * cols * np.dtype(dtype).itemsize
        raw = fh.read(size)
    if len(raw) < size:
        raise ConfigError(f"{path}: truncated payload: {_HEADER_BYTES + len(raw)} bytes, "
                          f"expected {_HEADER_BYTES + size}")
    return np.frombuffer(raw, dtype=dtype).reshape(count, rows, cols)


def save_power_matrices(path, powers: list[PowerMatrix]) -> None:
    """Row-major float64 values per user (kind 1)."""
    _write_arrays(path, _KIND_POWERS, "<f8", "power maps", [pm.omega for pm in powers])


def load_power_matrices(path) -> list[PowerMatrix]:
    data = _read_arrays(path, _KIND_POWERS, "<f8", "power maps")
    return [PowerMatrix(m.astype(np.float64)) for m in data]


def save_channels(path, channels: list[BeamChannel]) -> None:
    """Interleaved re/im float64 pairs per user, row-major (kind 2)."""
    _write_arrays(path, _KIND_CHANNELS, "<c16", "beam channels", [ch.H for ch in channels])


def load_channels(path) -> list[BeamChannel]:
    data = _read_arrays(path, _KIND_CHANNELS, "<c16", "beam channels")
    return [BeamChannel(m.astype(np.complex128)) for m in data]

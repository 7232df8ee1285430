"""Synthetic scenario generation: sparse beam-domain power maps, channel
draws, and received pilot signals.

Power maps are built from a few rectangular clusters on the N_r x N_f beam
grid with lognormal relative powers, normalized so every user's variances
sum to one; beam coefficients are then independent zero-mean complex
Gaussians with those variances.  Everything is drawn from named substreams
of a counter-based Philox generator, so any (config, seed) pair reproduces
bit-identical data and trials can be generated independently in any order.
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
    "stack_powers",
    "stack_channels",
    "extraction_from_powers",
    "build_prior",
    "synthesize_rx",
    "save_power_matrices",
    "load_power_matrices",
    "save_channels",
    "load_channels",
]

RNG_FAMILY = "philox4x64"  # counter-based; recorded in output metadata

_PURPOSES = {"powers": 1, "channels": 2, "noise": 3}

DEFAULT_CLUSTERS = 3
ZERO_VARIANCE_REL_THRESHOLD = 1e-12


def substream(seed: int, purpose: str, *indices: int) -> np.random.Generator:
    """Philox generator on the named substream.

    The stream key is the entropy tuple (seed, purpose id, *indices), so
    streams for different purposes, trials or users never collide and can
    be drawn in any order.
    """
    if purpose not in _PURPOSES:
        raise ConfigError(f"unknown substream purpose {purpose!r}")
    seed = int(seed)
    if seed < 0:
        raise ConfigError("seed must be nonnegative")
    entropy = (seed, _PURPOSES[purpose], *(int(i) for i in indices))
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


def stack_powers(powers: list[PowerMatrix], array: ArrayConfig, ofdm: OfdmConfig,
                 plan: PilotPlan) -> np.ndarray:
    """Variances of the stacked beam vector, in stacking order (length Q N_p N_r)."""
    if len(powers) != plan.K:
        raise DomainError(f"expected {plan.K} power maps, got {len(powers)}")
    grid = np.zeros((array.N_r, plan.Q * ofdm.N_p), dtype=np.float64)
    for k in range(1, plan.K + 1):
        grid[:, plan.user_columns(k)] = powers[k - 1].omega
    return grid.reshape(-1, order="F")


def stack_channels(channels: list[BeamChannel], array: ArrayConfig,
                   ofdm: OfdmConfig, plan: PilotPlan) -> np.ndarray:
    """Stacked beam vector: users land in their root/shift column blocks."""
    if len(channels) != plan.K:
        raise DomainError(f"expected {plan.K} channels, got {len(channels)}")
    grid = np.zeros((array.N_r, plan.Q * ofdm.N_p), dtype=np.complex128)
    for k in range(1, plan.K + 1):
        grid[:, plan.user_columns(k)] = channels[k - 1].H
    return grid.reshape(-1, order="F")


def extraction_from_powers(powers: list[PowerMatrix], array: ArrayConfig,
                           ofdm: OfdmConfig, plan: PilotPlan) -> ExtractionMap:
    """Keep stacked indices whose prior variance exceeds
    ZERO_VARIANCE_REL_THRESHOLD * max.

    The threshold (rather than an exact-zero test) guards serialization
    round-trips of the power maps.
    """
    om = stack_powers(powers, array, ofdm, plan)
    keep = np.flatnonzero(om > ZERO_VARIANCE_REL_THRESHOLD * om.max())
    return ExtractionMap(indices=keep, n_tilde=om.size)


def build_prior(powers: list[PowerMatrix], extraction: ExtractionMap,
                array: ArrayConfig, ofdm: OfdmConfig, plan: PilotPlan) -> np.ndarray:
    """Prior variances d of the extracted coefficients, in extraction order."""
    om = stack_powers(powers, array, ofdm, plan)
    if om.size != extraction.n_tilde:
        raise DomainError("extraction map does not match the stacked grid size")
    d = om[extraction.indices]
    if np.any(d <= 0):
        raise DomainError("extraction kept a zero-variance index")
    return d


def synthesize_rx(scenario: BscmScenario, channels: list[BeamChannel],
                  sigma2: float, seed: int, stream: tuple = ()) -> np.ndarray:
    """y = A h + z through the fast operator, with circular complex noise.

    Noise draws come from the "noise" substream; real and imaginary parts
    each have variance sigma2 / 2.  ``sigma2 = 0`` gives a noise-free y.
    """
    if sigma2 < 0:
        raise DomainError("sigma2 must be nonnegative")
    ht = stack_channels(channels, scenario.array, scenario.ofdm, scenario.plan)
    y = scenario.matvec(ht[scenario.extraction.indices])
    if sigma2 > 0:
        rng = substream(seed, "noise", *stream)
        z = rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size)
        y = y + np.sqrt(sigma2 / 2.0) * z
    return y


# ---------------------------------------------------------------------------
# flat binary serialization (little-endian)

_MAGIC = b"IGACHAN1"
_HEADER_BYTES = len(_MAGIC) + 16
_KIND_POWERS = 1
_KIND_CHANNELS = 2


def _write_header(fh, kind: int, count: int, rows: int, cols: int) -> None:
    fh.write(_MAGIC)
    fh.write(struct.pack("<IIII", kind, count, rows, cols))


def _read_arrays(path, kind: int, dtype: str, what: str) -> np.ndarray:
    """(count, rows, cols) array of a file written with ``_write_header``.

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
    """Header (magic, kind, user count, dims) then row-major float64 values."""
    rows, cols = powers[0].omega.shape
    with open(path, "wb") as fh:
        _write_header(fh, _KIND_POWERS, len(powers), rows, cols)
        for pm in powers:
            if pm.omega.shape != (rows, cols):
                raise DomainError("all power maps must share one shape")
            fh.write(np.ascontiguousarray(pm.omega).astype("<f8").tobytes())


def load_power_matrices(path) -> list[PowerMatrix]:
    data = _read_arrays(path, _KIND_POWERS, "<f8", "power maps")
    return [PowerMatrix(m.astype(np.float64)) for m in data]


def save_channels(path, channels: list[BeamChannel]) -> None:
    """Same header; values are interleaved re/im float64 pairs, row-major."""
    rows, cols = channels[0].H.shape
    with open(path, "wb") as fh:
        _write_header(fh, _KIND_CHANNELS, len(channels), rows, cols)
        for ch in channels:
            if ch.H.shape != (rows, cols):
                raise DomainError("all channels must share one shape")
            fh.write(np.ascontiguousarray(ch.H).astype("<c16").tobytes())


def load_channels(path) -> list[BeamChannel]:
    data = _read_arrays(path, _KIND_CHANNELS, "<c16", "beam channels")
    return [BeamChannel(m.astype(np.complex128)) for m in data]

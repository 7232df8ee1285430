"""The benchmark sweep: the trial builder, the estimator registry, the
sweep and its CSV, and the reference NMSE scorer (the oracle cross-checks
are :mod:`igachan.validate`).

A benchmark cell is one (SNR, algorithm) pair: N_sam scenarios and noise
draws are generated from per-trial substreams, every algorithm estimates on
the *same* data, and

    NMSE = (1 / (K N_sam)) sum_k sum_n ||Gbar_kn - G_kn||_F^2 / ||G_kn||_F^2

is averaged into one CSV row per cell.  Scoring builds no space-frequency
matrix: ||Gbar_k - G_k||_F^2 = e_k^H W_k e_k, with e_k user k's coefficient
error and W_k its diagonal block of A^H A (see :class:`Trial`);
:func:`reconstruct_G` and :func:`nmse` are the reference it is tested
against.  Output is deterministic under a fixed (spec, seed): the cells
run in order, each building its N_sam trials on per-trial substreams and
running every algorithm once over all of them in lockstep, with numpy's
BLAS on one thread; a trial's result equals its run alone bit for bit.
Rows appear in (snr, algorithm) order, and the wall-time column is written as
0.0 unless timing is explicitly requested (measured times would break
byte-identical reproducibility).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from . import ic as _ic
from . import iga as _iga
from .blas import one_blas_thread
from .bscm import (
    BscmScenario,
    ScenarioConfig,
    geometry_from_config,
    gram_fits,
)
from .errors import ConfigError, DomainError
from .estimators import MeasurementModel, _mmse_mean, is_normal, modified_mmse_estimate
from .report import EstimateReport, Iterative, run
from .scenario import (
    check_seed,
    extraction_from_powers,
    gen_power_matrices,
    sample_extracted,
    synthesize_ahy,
    synthesize_rx,
    user_slices,
)

# build_trial stays out of __all__: outside-in tracers start a trial at a
# gen_power_matrices call made outside every public function
__all__ = [
    "ALGORITHMS",
    "ESTIMATORS",
    "CSV_HEADER",
    "run_algorithm",
    "BenchmarkSpec",
    "reconstruct_G",
    "nmse",
    "run_benchmark",
    "write_benchmark_csv",
    "benchmark_csv_text",
]

CSV_HEADER = "snr_db,algorithm,nmse,nmse_db,mean_iterations,converged_fraction,wall_time_ms,seed"


def reconstruct_G(h_est, scenario: BscmScenario):
    """Scatter an estimate back to per-user space-frequency matrices.

    Returns the list [Gbar_1, ..., Gbar_K] of (M_r, M_p) matrices obtained by
    transforming each user's beam block through the fast steering path.
    """
    extraction, plan = scenario.extraction, scenario.plan
    h_est = np.asarray(h_est, dtype=np.complex128).reshape(-1)
    if h_est.size != extraction.n:
        raise DomainError(f"estimate has length {h_est.size}, expected {extraction.n}")
    ht = np.zeros(extraction.n_tilde, dtype=np.complex128)
    ht[extraction.indices] = h_est
    grid = ht.reshape(scenario.array.N_r, plan.Q * scenario.ofdm.N_p, order="F")
    return [scenario.beam_to_space_freq(grid[:, plan.user_columns(k)])
            for k in range(1, plan.K + 1)]


def nmse(estimates, truths) -> float:
    """Mean Frobenius-normalized squared error over matched matrix pairs."""
    if len(estimates) != len(truths):
        raise DomainError("estimate/truth lists must have equal length")
    if not truths:
        raise DomainError("need at least one pair")
    total = 0.0
    for gbar, g in zip(estimates, truths):
        gbar = np.asarray(gbar)
        g = np.asarray(g)
        if gbar.shape != g.shape:
            raise DomainError("estimate/truth shapes differ")
        denom = np.linalg.norm(g) ** 2
        if denom == 0.0:
            raise DomainError("truth matrix has zero norm")
        total += np.linalg.norm(gbar - g) ** 2 / denom
    return total / len(truths)


@dataclass(frozen=True)
class Trial:
    """One generated scenario draw: the model every estimator reads and the
    truth it is scored against.  ``model.A`` is a :class:`BscmScenario`.

    ``h`` is the stacked channel on the extracted support, sorted by stacked
    index, so user k's coefficients are one contiguous slice s_k of it.
    User k, with root q and shift p, owns the columns
    A_k = (diag(zc_q o ramp_p) kron I) (U kron V)[:, I_k] of A, I_k its
    extracted beam positions: a unit-modulus row scaling of its
    beam-to-space-frequency transform.  Hence
    ||Gbar_k - G_k||_F^2 = e_k^H W_k e_k with e_k = hbar_k - h_k and
    W_k = A_k^H A_k, the diagonal block of A^H A on s_k, and
    ||G_k||_F^2 = h_k^H W_k h_k.  ``users`` holds (s_k, W_k, ||G_k||_F^2)
    per user.
    """

    model: MeasurementModel
    h: np.ndarray
    users: tuple

    def score(self, mu) -> list:
        """Per-user ||Gbar_k - G_k||_F^2 / ||G_k||_F^2 of an estimate."""
        mu = np.asarray(mu, dtype=np.complex128).reshape(-1)
        if mu.size != self.h.size:
            raise DomainError(f"estimate has length {mu.size}, expected {self.h.size}")
        scores = []
        for s, W, g2 in self.users:
            e = mu[s] - self.h[s]
            scores.append(float(np.vdot(e, W @ e).real) / g2)
        return scores


def sigma2_of_snr(snr_db: float) -> float:
    """Noise variance of an SNR in dB, SNR = 1 / sigma2; inf on overflow."""
    try:
        return 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        return math.inf


def build_trial(geometry, cfg: ScenarioConfig, seed: int, snr_db: float,
                stream: tuple) -> Trial:
    """Draw powers, channels and noise for one trial from substream ``stream``.

    The truth h is drawn on the extraction only (:func:`sample_extracted`).
    Where A^H A fits under ``bscm.DENSE_ENTRY_CAP``, it is formed once, in
    closed form, and the model is built from A^H y = A^H A h + A^H z drawn
    from it (:func:`synthesize_ahy`): no FFT runs and no y is formed.  Above
    the cap, y is synthesized by FFT from the same h and the model forms
    A^H y with one ``rmatvec``.  Both give A^H y the same law.
    """
    array, ofdm, plan = geometry
    sigma2 = sigma2_of_snr(snr_db)
    powers = gen_power_matrices(cfg, seed, stream=stream)
    extraction, d = extraction_from_powers(powers, array, ofdm, plan)
    scn = BscmScenario(array, ofdm, plan, extraction)
    slices = user_slices(extraction, array, plan)
    h = sample_extracted(d, slices, seed, stream=stream)
    if gram_fits(extraction.n):
        G = scn.gram()
        model = MeasurementModel(scn, d, sigma2, ahy=synthesize_ahy(G, h, sigma2, seed, stream))
    else:
        G = None
        model = MeasurementModel(scn, d, sigma2, synthesize_rx(scn, h, sigma2, seed, stream))
    return Trial(model, h, _truth_blocks(scn, h, slices, G))


def _truth_blocks(scn: BscmScenario, h: np.ndarray, slices, G) -> tuple:
    """(slice, W_k, ||G_k||_F^2) per user of the truth h on the extraction.

    W_k is user k's diagonal block of A^H A: a view of ``G`` where the
    caller formed it, else :meth:`BscmScenario.gram_block` (the same
    entries).
    """
    users = []
    for k, s in enumerate(slices, start=1):
        W = scn.gram_block(s) if G is None else G[s, s]
        g2 = float(np.vdot(h[s], W @ h[s]).real)
        if not g2 > 0:
            raise DomainError(f"truth of user {k} has zero norm")
        users.append((s, W, g2))
    return tuple(users)


# -- estimator registry: name -> an iterative record (igachan.report.Iterative)
# or a direct solve model -> mu
ESTIMATORS = {
    # the sweep reads only the mean, so the covariance is never formed
    "mmse": lambda model: _mmse_mean(model)[0],
    "modified_mmse": modified_mmse_estimate,
    "iga": _iga.IGA,
    "ic_iga": _ic.IC_IGA,
    "ic_siga": _ic.IC_SIGA,
}
ALGORITHMS = tuple(ESTIMATORS)


def run_algorithm(name: str, models, alpha: float | None = None, t_max: int = 100,
                  tol: float = 1e-8) -> list:
    """One report per model from the registry's estimator ``name``: the one
    way to run an estimator by name.  A diverged run is a report with stop
    "diverged", never a raise.  An iterative estimator runs the models in
    lockstep; a direct solve ignores ``alpha``, ``t_max`` and ``tol`` and
    reports its mean's residual."""
    estimator = ESTIMATORS.get(name)
    if estimator is None:
        raise DomainError(f"unknown algorithm {name!r}; choose from {ALGORITHMS}")
    if isinstance(estimator, Iterative):
        return run(estimator, models, alpha, t_max, tol)
    reports = []
    for model in models:
        mu = estimator(model)
        reports.append(EstimateReport(
            mu=mu, variances=None, residual_trace=[model.residual(mu, model.gram_apply(mu))],
            stop="converged", config={"algorithm": name}))
    return reports


@dataclass(frozen=True)
class BenchmarkSpec:
    """One benchmark sweep: SNR grid x algorithms x N_sam trials.

    ``alpha`` overrides the damping of every iterative algorithm; None
    keeps each one's own default.
    """

    snr_list_db: tuple
    algorithms: tuple
    n_sam: int
    scenario: ScenarioConfig
    seed: int
    alpha: float | None = None
    t_max: int = 100
    tol: float = 1e-8
    measure_time: bool = False

    def __post_init__(self):
        snrs = tuple(float(s) for s in self.snr_list_db)
        if not snrs or not all(is_normal(sigma2_of_snr(s)) for s in snrs):
            raise ConfigError("SNR list (--snr) must be non-empty, each giving a noise variance "
                              "10^(-SNR/10) that is finite and positive with a finite "
                              f"reciprocal, got {snrs}")
        object.__setattr__(self, "snr_list_db", snrs)
        algs = tuple(self.algorithms)
        if not algs:
            raise ConfigError("algorithm list (--alg) must be non-empty")
        for a in algs:
            if a not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm {a!r}; choose from {ALGORITHMS}")
        object.__setattr__(self, "algorithms", algs)
        check_seed(self.seed)
        if not (isinstance(self.n_sam, Integral) and self.n_sam >= 1):
            raise ConfigError(f"n_sam must be an integer >= 1, got {self.n_sam!r}")
        if not (isinstance(self.t_max, Integral) and self.t_max >= 0):
            raise ConfigError(f"t_max (--max-iter) must be an integer >= 0, got {self.t_max!r}")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ConfigError(f"tol (--tol) must be finite and >= 0, got {self.tol}")
        if self.alpha is not None and not (0 < self.alpha <= 1):
            raise ConfigError(f"alpha (--alpha) must lie in (0, 1], got {self.alpha}")


def _run_cell(spec: BenchmarkSpec, geometry, snr_index: int) -> list:
    """The CSV rows of one SNR point, one per algorithm, in spec order.

    Builds the cell's trials, trial t on substream (snr_index, t), and runs
    each algorithm once over all of them.  A row's NMSE is the mean of the
    per-user scores of every trial.  A diverged trial is a result, not a
    crash: it scores the zero estimate at ``t_max`` iterations, unconverged.
    Under ``spec.measure_time`` a row's wall time is the algorithm's time
    over the cell divided by N_sam; otherwise it is 0.0.
    """
    snr_db = spec.snr_list_db[snr_index]
    trials = [build_trial(geometry, spec.scenario, spec.seed, snr_db, stream=(snr_index, t))
              for t in range(spec.n_sam)]
    models = [trial.model for trial in trials]
    rows = []
    for alg in spec.algorithms:
        t0 = time.perf_counter()
        reports = run_algorithm(alg, models, spec.alpha, spec.t_max, spec.tol)
        wall_ms = (time.perf_counter() - t0) * 1e3 / len(trials)
        ratios, iters = [], []
        for trial, rep in zip(trials, reports):
            if rep.stop == "diverged":
                ratios += trial.score(np.zeros(trial.model.n, dtype=np.complex128))
                iters.append(spec.t_max)
            else:
                ratios += trial.score(rep.mu)
                iters.append(rep.iterations)
        cell_nmse = float(np.mean(ratios))
        rows.append({
            "snr_db": snr_db,
            "algorithm": alg,
            "nmse": cell_nmse,
            "nmse_db": 10.0 * math.log10(cell_nmse) if cell_nmse > 0 else float("-inf"),
            "mean_iterations": float(np.mean(iters)),
            "converged_fraction": float(np.mean([rep.converged for rep in reports])),
            "wall_time_ms": wall_ms if spec.measure_time else 0.0,
            "seed": spec.seed,
        })
    return rows


def run_benchmark(spec: BenchmarkSpec):
    """Sweep the spec; returns one row dict per (snr, algorithm) cell, the
    rows of :func:`_run_cell` joined in SNR order.

    Cells run in order, each algorithm over a cell's trials in lockstep,
    every trial on its own substream, with numpy's BLAS on the calling
    thread (:func:`igachan.blas.one_blas_thread`); every algorithm in a cell
    sees the same data, so the rows depend only on the spec and seed, and
    not on the host's core count.
    """
    geometry = geometry_from_config(spec.scenario)
    with one_blas_thread():
        return [row for si in range(len(spec.snr_list_db))
                for row in _run_cell(spec, geometry, si)]


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def benchmark_csv_text(rows) -> str:
    """Render rows to the pinned CSV schema (UTF-8, LF terminators)."""
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(_fmt(row[col]) for col in CSV_HEADER.split(",")))
    return "\n".join(lines) + "\n"


def write_benchmark_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(benchmark_csv_text(rows))

"""Workload definitions and the metric tables of the NMSE-sweep benchmark.

Kept free of numpy and igachan imports so the parent process of
``run.py`` can read it without loading the program under test.
README.md next to this file says why each workload exists and which
end-to-end metric each per-layer metric is expected to move.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# the igachan sources of the checkout the benchmark sits in
SRC = Path(__file__).resolve().parent.parent / "src"

# Scenario of acceptance criterion 6: n = 24, m = 384.
DESK_SCENARIO = dict(M_z=4, M_x=4, F_z=2, F_x=2, N_c=2048, delta_f_hz=30e3,
                     M_p=24, M_g=144, F_p=2, K=4, P=4)

# Criterion-6 parity tolerance for IC-IGA and IC-SIGA on the desk scenario.
PARITY_DB = 0.1
# IGA stops at t_max=500 on every desk trial without converging.  In
# 16-trial-per-SNR pools resampled from 200 trials per SNR its worst gap to
# MMSE was about 0.01 dB at the median, crossed 0.1 dB in about 4% of pools
# and reached 0.25 dB, so its gate sits at twice that worst case.
IGA_PARITY_DB = 0.5


@dataclass(frozen=True)
class Workload:
    """One benchmark sweep shape.

    ``scenario`` holds ScenarioConfig keyword arguments ({} = the library
    defaults).  A run cycles through ``input_sets`` sub-seeds derived from
    the benchmark seed, one ``run_benchmark`` sweep each, and repeats the
    cycle while time remains; the first repeat checks that the CSV is
    byte-identical.  ``parity_db`` (None = no gate) is the largest gap in
    dB allowed between a pooled iterative cell and MMSE; it is also the
    floor of the end-to-end nmse_gap_db, below which gaps are solver
    round-off whose size varies with the seed by orders of magnitude.
    """

    name: str
    why: str
    scenario: dict
    snr_db: tuple
    algorithms: tuple
    n_sam: int
    t_max: int
    tol: float
    input_sets: int
    parity_db: float | None = None

    @property
    def iterative(self) -> tuple:
        return tuple(a for a in self.algorithms if a not in ("mmse", "modified_mmse"))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk-sweep",
            why="criterion-6 scenario, many small trials: IC-SIGA's FFT path, "
                "per-trial fixed costs and BLAS under the trial pool dominate",
            scenario=DESK_SCENARIO,
            snr_db=(-10.0, 0.0, 10.0, 30.0),
            algorithms=("mmse", "ic_iga", "ic_siga"),
            n_sam=4, t_max=500, tol=1e-10,
            # trials differ in how many IC-SIGA runs converge before t_max,
            # so 20 distinct trials per SNR keep the seed-to-seed spread of
            # trials_per_s near 5%
            input_sets=5,
            parity_db=PARITY_DB,
        ),
        Workload(
            name="default-sweep",
            why="ScenarioConfig() at the CLI benchmark defaults: one large A^H A "
                "GEMM per trial, the 35 MB dense A, and the iteration cap binds",
            scenario={},
            snr_db=(-10.0, 0.0, 10.0, 20.0, 30.0),
            algorithms=("mmse", "ic_iga", "ic_siga"),
            # the CLI runs 20 trials per SNR; at about 1 s per trial a sweep
            # of 20 would not fit a run's time limit, so each sweep runs 2
            n_sam=2, t_max=100, tol=1e-8,
            # every iterative run stops at t_max, so the work per trial does
            # not depend on the seed
            input_sets=2,
        ),
        Workload(
            name="desk-iga",
            why="desk scenario with the rank-1 IGA engine only: no IC or FFT "
                "iteration, so Gram and PCG changes should not move it",
            scenario=DESK_SCENARIO,
            snr_db=(0.0, 10.0),
            algorithms=("mmse", "iga"),
            n_sam=4, t_max=500, tol=1e-10,
            input_sets=4,
            parity_db=IGA_PARITY_DB,
        ),
    )
}

# name -> (unit, better, bound); printed by --trace 0 runs
END_TO_END = {
    "trials_per_s": ("1/s", "higher", 0.25),
    "trials_per_s.p10": ("1/s", "higher", 0.25),
    "cpu_s_per_trial": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "setup_s": ("s", "lower", 0.25),
    "nmse_gap_db": ("dB", "lower", 0.25),
    "ok_share": ("share", "higher", 0.01),
}

# name -> (unit, better); printed by --trace 1 runs
PER_LAYER = {
    "harness.trial_ms.p50": ("ms", "lower"),
    "harness.trial_ms.p90": ("ms", "lower"),
    "harness.self_ms_per_trial": ("ms/trial", "lower"),
    "harness.cpu_per_wall": ("ratio", "lower"),
    "harness.reconstruct_G.ms": ("ms/trial", "lower"),
    "scenario.gen_power_matrices.ms": ("ms/trial", "lower"),
    "scenario.sample_channels.ms": ("ms/trial", "lower"),
    "scenario.synthesize_rx.ms": ("ms/trial", "lower"),
    "scenario.extraction.ms": ("ms/trial", "lower"),
    "bscm.matvec.ms": ("ms/trial", "lower"),
    "bscm.rmatvec.ms": ("ms/trial", "lower"),
    "bscm.matvec.calls_per_trial": ("count", "lower"),
    "bscm.gram_applies_per_iter": ("count", "lower"),
    "bscm.assemble_dense_A.ms": ("ms/trial", "lower"),
    "bscm.dense_A_mb": ("MB", "lower"),
    "estimators.mmse_estimate.ms": ("ms/trial", "lower"),
    "ic.precompute_ic.ms": ("ms/trial", "lower"),
    "ic.ic_siga_step.ms": ("ms/trial", "lower"),
    "ic.ic_beliefs.ms": ("ms/trial", "lower"),
    "ic.ic_iga_step.ms": ("ms/trial", "lower"),
    "ic.run_estimator.self_ms": ("ms/trial", "lower"),
    "converged_share": ("share", "higher"),
    "ic.diverged": ("count", "lower"),
    "ic.iterations.ic_iga": ("count", "lower"),
    "ic.iterations.ic_siga": ("count", "lower"),
    "iga.build_rank1_split.ms": ("ms/trial", "lower"),
    "iga.project_all.ms": ("ms/trial", "lower"),
    "iga.update_points.ms": ("ms/trial", "lower"),
    "iga.run_iga.self_ms": ("ms/trial", "lower"),
    "iga.iterations": ("count", "lower"),
    "iga.diverged": ("count", "lower"),
    "nmse_gap_db.ic_iga": ("dB", "lower"),
    "nmse_gap_db.ic_siga": ("dB", "lower"),
    "nmse_gap_db.iga": ("dB", "lower"),
    "trace_overhead": ("ratio", "lower"),
    "trace.cover_share.p50": ("share", "higher"),
    "trace.cover_share.min": ("share", "higher"),
}


def input_seed(seed: int, k: int) -> int:
    """Seed of input set ``k`` of a run started with ``seed`` (k = 0 is ``seed``)."""
    return (seed + k * 0x9E3779B97F4A7C15) % (1 << 64)

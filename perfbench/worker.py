"""One workload of the NMSE-sweep benchmark, run in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                --trace 0|1 [--setup-only]

Imports igachan from the checkout's ``src`` (and refuses any other copy),
builds the
workload's ``BenchmarkSpec`` per input set, and calls
``igachan.harness.run_benchmark`` repeatedly for about S seconds.  It
checks every sweep's CSV and prints one JSON object with the measurements.
``run.py`` starts this script; it is not meant to be called by hand.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

from workloads import PER_LAYER, SRC, WORKLOADS, Workload, input_seed


def import_igachan():
    """Import igachan from SRC; returns (harness module, bscm module)."""
    sys.path.insert(0, str(SRC))
    import igachan
    from igachan import bscm, harness

    where = Path(igachan.__file__).resolve()
    if SRC not in where.parents:
        raise ImportError(f"igachan was imported from {where}, not from {SRC}")
    return harness, bscm


def build_specs(harness, bscm, workload: Workload, seed: int) -> list:
    """One BenchmarkSpec per input set, in the order a run cycles through them."""
    specs = []
    for k in range(workload.input_sets):
        s = input_seed(seed, k)
        specs.append(harness.BenchmarkSpec(
            snr_list_db=workload.snr_db,
            algorithms=workload.algorithms,
            n_sam=workload.n_sam,
            scenario=bscm.ScenarioConfig(**workload.scenario, seed=s),
            seed=s,
            t_max=workload.t_max,
            tol=workload.tol,
        ))
    return specs


class Sweeps:
    """Runs sweeps and keeps what the checks and metrics need."""

    def __init__(self, harness, workload: Workload, specs: list):
        self.harness = harness
        self.workload = workload
        self.specs = specs
        self.cells = len(workload.snr_db) * len(workload.algorithms)
        self.trials = len(workload.snr_db) * workload.n_sam
        self.reference: dict = {}  # input set -> (csv lines, rows)
        self.samples: list = []  # (input set, traced, wall s, cpu s)
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def run(self, k: int, traced: bool = False) -> bool:
        """One sweep over input set ``k``; False when it raised."""
        self.attempted += self.cells
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            rows = self.harness.run_benchmark(self.specs[k])
        except Exception as exc:  # a crashed sweep is a failed sweep, reported below
            self.failed += self.cells
            self.errors.append(f"input set {k}: {type(exc).__name__}: {exc}")
            return False
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        self.samples.append((k, traced, wall, cpu))
        lines = self.harness.benchmark_csv_text(rows).splitlines()[1:]
        if len(lines) != self.cells:
            self.failed += self.cells
            self.errors.append(f"input set {k}: {len(lines)} rows, expected {self.cells}")
            return True
        bad = {i for i, r in enumerate(rows)
               if not (math.isfinite(r["nmse"]) and math.isfinite(r["nmse_db"]))}
        if k in self.reference:
            ref_lines, _ = self.reference[k]
            bad |= {i for i, (a, b) in enumerate(zip(lines, ref_lines)) if a != b}
        else:
            self.reference[k] = (lines, rows)
        if bad:
            self.errors.append(f"input set {k}: rows {sorted(bad)} non-finite or not "
                               "byte-identical to the first sweep of this input set")
        self.failed += len(bad)
        return True

    # -- accuracy over the input sets seen, each counted once ----------------
    def pooled_nmse(self) -> dict:
        acc: dict = {}
        for _, rows in self.reference.values():
            for r in rows:
                acc.setdefault((r["snr_db"], r["algorithm"]), []).append(r["nmse"])
        return {key: statistics.fmean(v) for key, v in acc.items()}

    def cell_gaps_db(self) -> dict:
        """(snr, iterative alg) -> |NMSE_dB(alg) - NMSE_dB(mmse)| of the pooled cell."""
        pooled = self.pooled_nmse()
        return {(snr, alg): abs(10.0 * math.log10(v / pooled[(snr, "mmse")]))
                for (snr, alg), v in pooled.items() if alg in self.workload.iterative}

    def gaps_db(self) -> dict:
        """Worst pooled-cell gap to MMSE over the SNR points, per iterative alg."""
        gaps = {}
        for (_, alg), g in self.cell_gaps_db().items():
            gaps[alg] = max(gaps.get(alg, 0.0), g)
        return gaps

    def check_parity(self) -> None:
        """Parity of the pooled cells with MMSE; a breach fails that cell in every input set."""
        tol = self.workload.parity_db
        if tol is None:
            return
        for (snr, alg), g in self.cell_gaps_db().items():
            if g > tol:
                self.failed += len(self.reference)
                self.errors.append(f"parity: {alg} at {snr} dB is {g:.4f} dB "
                                   f"from MMSE (tol {tol} dB)")

    def csv_column_mean(self, alg: str, column: str) -> float:
        vals = [r[column] for _, rows in self.reference.values()
                for r in rows if r["algorithm"] == alg]
        return statistics.fmean(vals) if vals else 0.0

    def converged_share(self) -> float:
        """Converged (trial, iterative alg) runs over those attempted."""
        shares = [r["converged_fraction"] for _, rows in self.reference.values()
                  for r in rows if r["algorithm"] in self.workload.iterative]
        return statistics.fmean(shares) if shares else 0.0

    def csv_sha256(self) -> dict:
        header = self.harness.CSV_HEADER
        return {str(k): hashlib.sha256(
                    ("\n".join([header, *lines]) + "\n").encode()).hexdigest()
                for k, (lines, _) in sorted(self.reference.items())}

    # -- timing ----------------------------------------------------------------
    def untraced_rates(self) -> list:
        """Trials per second of each untraced sweep."""
        return [self.trials / w for _, traced, w, _ in self.samples if not traced]

    def cycle_medians(self):
        """(wall s, cpu s, trials) of one untraced pass over the input sets
        seen, each input set's sweep taken at the median of its sweeps."""
        per_set: dict = {}
        for k, traced, wall, cpu in self.samples:
            if not traced:
                per_set.setdefault(k, []).append((wall, cpu))
        wall = sum(statistics.median(w for w, _ in v) for v in per_set.values())
        cpu = sum(statistics.median(c for _, c in v) for v in per_set.values())
        return wall, cpu, len(per_set) * self.trials


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile, q in [0, 1]; a single value is returned as is."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    pos = q * (len(values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def run_plain(sweeps: Sweeps, seconds: float) -> dict:
    """Untraced sweeps cycling over the input sets until ``seconds`` pass.

    At least one full cycle plus one repeat of the first input set runs, so
    that every run checks CSV byte-identity and a second seed.
    """
    n_sets = len(sweeps.specs)
    start = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - start
        if k > n_sets and elapsed + elapsed / k > seconds:
            break
        if not sweeps.run(k % n_sets):
            break
        k += 1
    sweeps.check_parity()
    wall, cpu, trials = sweeps.cycle_medians()
    gaps = sweeps.gaps_db()
    return {
        "trials_per_s": trials / wall if wall else 0.0,
        "trials_per_s.p10": quantile(sweeps.untraced_rates(), 0.1) if sweeps.samples else 0.0,
        "cpu_s_per_trial": cpu / trials if trials else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "nmse_gap_db": max([sweeps.workload.parity_db or 0.0, *gaps.values()]),
        "ok_share": 1.0 - sweeps.failed / sweeps.attempted,
    }


def run_traced(sweeps: Sweeps, seconds: float) -> dict:
    """Pairs of (untraced, traced) sweeps on the same input set until ``seconds`` pass.

    As in ``run_plain``, every input set runs at least once, so the parity
    gate pools the same trials as in an untraced run and the per-layer
    figures cover every input set.  The traced sweep must reproduce the
    untraced CSV byte for byte, and the tracer must find each of its trials.
    """
    from tracer import Tracer

    tracer = Tracer()
    n_sets = len(sweeps.specs)
    ratios = []
    traced_cpu = traced_wall = 0.0
    start = time.perf_counter()
    pair = 0
    while True:
        elapsed = time.perf_counter() - start
        if pair >= n_sets and elapsed + elapsed / pair > seconds:
            break
        k = pair % n_sets
        if not sweeps.run(k):
            break
        tracer.begin_sweep()
        tracer.install()
        try:
            ok = sweeps.run(k, traced=True)
        finally:
            tracer.uninstall()
        tracer.begin_sweep()
        if not ok:
            break
        if len(tracer.trials) != (pair + 1) * sweeps.trials:
            raise RuntimeError(f"tracer split {pair + 1} traced sweeps into "
                               f"{len(tracer.trials)} trials, expected "
                               f"{(pair + 1) * sweeps.trials}")
        _, _, untraced_w, _ = sweeps.samples[-2]
        _, _, traced_w, traced_c = sweeps.samples[-1]
        ratios.append(traced_w / untraced_w)
        traced_wall += traced_w
        traced_cpu += traced_c
        pair += 1
    sweeps.check_parity()
    return layer_metrics(sweeps, tracer, ratios, traced_cpu, traced_wall)


def layer_metrics(sweeps: Sweeps, tracer, ratios, traced_cpu, traced_wall) -> dict:
    totals = tracer.layer_totals()
    trials = [t for t in tracer.trials if t.wall > 0]
    n = max(len(trials), 1)

    def ms(key, column=1):
        row = totals.get(key)
        return row[column] * 1e3 / n if row else 0.0

    walls = [t.wall * 1e3 for t in trials] or [0.0]
    cover = [t.covered / t.wall for t in trials] or [0.0]
    gaps = sweeps.gaps_db()
    dense = tracer.dense_bytes
    out = {
        "harness.trial_ms.p50": quantile(walls, 0.5),
        "harness.trial_ms.p90": quantile(walls, 0.9),
        "harness.self_ms_per_trial": sum(t.wall - t.covered for t in trials) * 1e3 / n,
        "harness.cpu_per_wall": traced_cpu / traced_wall if traced_wall else 0.0,
        "harness.reconstruct_G.ms": ms("harness.reconstruct_G"),
        "scenario.gen_power_matrices.ms": ms("scenario.gen_power_matrices"),
        "scenario.sample_channels.ms": ms("scenario.sample_channels"),
        "scenario.synthesize_rx.ms": ms("scenario.synthesize_rx"),
        "scenario.extraction.ms": ms("scenario.extraction_from_powers"),
        "bscm.matvec.ms": ms("bscm.matvec"),
        "bscm.rmatvec.ms": ms("bscm.rmatvec"),
        "bscm.matvec.calls_per_trial": totals.get("bscm.matvec", [0])[0] / n,
        "bscm.gram_applies_per_iter": tracer.gram_applies_per_iter(),
        "bscm.assemble_dense_A.ms": ms("bscm.assemble_dense_A"),
        "bscm.dense_A_mb": statistics.fmean(dense) / 1e6 if dense else 0.0,
        "estimators.mmse_estimate.ms": ms("estimators.mmse_estimate"),
        "ic.precompute_ic.ms": ms("ic.precompute_ic"),
        "ic.ic_siga_step.ms": ms("ic.ic_siga_step"),
        "ic.ic_beliefs.ms": ms("ic.ic_beliefs"),
        "ic.ic_iga_step.ms": ms("ic.ic_iga_step"),
        "ic.run_estimator.self_ms": ms("ic.run_estimator", column=2),
        "converged_share": sweeps.converged_share(),
        "ic.diverged": tracer.diverged.get("ic.run_estimator", 0),
        "ic.iterations.ic_iga": sweeps.csv_column_mean("ic_iga", "mean_iterations"),
        "ic.iterations.ic_siga": sweeps.csv_column_mean("ic_siga", "mean_iterations"),
        "iga.build_rank1_split.ms": ms("iga.build_rank1_split"),
        "iga.project_all.ms": ms("iga.project_all"),
        "iga.update_points.ms": ms("iga.update_points"),
        "iga.run_iga.self_ms": ms("iga.run_iga", column=2),
        "iga.iterations": sweeps.csv_column_mean("iga", "mean_iterations"),
        "iga.diverged": tracer.diverged.get("iga.run_iga", 0),
        "nmse_gap_db.ic_iga": gaps.get("ic_iga", 0.0),
        "nmse_gap_db.ic_siga": gaps.get("ic_siga", 0.0),
        "nmse_gap_db.iga": gaps.get("iga", 0.0),
        "trace_overhead": statistics.median(ratios) if ratios else 0.0,
        "trace.cover_share.p50": quantile(cover, 0.5),
        "trace.cover_share.min": min(cover),
    }
    if out.keys() != PER_LAYER.keys():
        raise RuntimeError("per-layer metrics differ from workloads.PER_LAYER")
    return out


def library_versions() -> dict:
    import numpy
    import scipy

    info = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError) as exc:  # informative only
        info["blas"] = f"unknown ({type(exc).__name__})"
    return info


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    workload = WORKLOADS[args.workload]
    harness, bscm = import_igachan()
    specs = build_specs(harness, bscm, workload, args.seed)
    if args.setup_only:
        bscm.geometry_from_config(specs[0].scenario)
        return 0
    sweeps = Sweeps(harness, workload, specs)
    run = run_traced if args.trace else run_plain
    metrics = run(sweeps, args.seconds)
    print(json.dumps({
        "metrics": metrics,
        "attempted": sweeps.attempted,
        "failed": sweeps.failed,
        "errors": sweeps.errors,
        "sweeps": [[k, traced, wall, cpu] for k, traced, wall, cpu in sweeps.samples],
        "csv_sha256": sweeps.csv_sha256(),
        "libraries": library_versions(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

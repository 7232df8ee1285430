"""Fast smoke test of the benchmark at the tiny criterion-9 geometry.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload's code path, untraced and traced, in this process with
the scenario swapped for the tiny one, and checks that each metric the
benchmark promises is emitted, finite, and that no cell failed.  It also
checks BENCHMARK.json against the tables in workloads.py, and that run.py
refuses to run without the igachan sources.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
from workloads import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

TINY = dict(M_z=2, M_x=2, F_z=2, F_x=2, N_c=64, delta_f_hz=30000.0,
            M_p=8, M_g=8, F_p=2, K=4, P=2)

# every metric name the benchmark documents in README.md
EXPECTED_END_TO_END = {
    "trials_per_s", "trials_per_s.p10", "cpu_s_per_trial", "peak_rss_mb",
    "setup_s", "nmse_gap_db", "ok_share",
}
EXPECTED_PER_LAYER = {
    "harness.trial_ms.p50", "harness.trial_ms.p90", "harness.self_ms_per_trial",
    "harness.cpu_per_wall", "harness.reconstruct_G.ms",
    "scenario.gen_power_matrices.ms", "scenario.sample_channels.ms",
    "scenario.synthesize_rx.ms", "scenario.extraction.ms",
    "bscm.matvec.ms", "bscm.rmatvec.ms", "bscm.matvec.calls_per_trial",
    "bscm.gram_applies_per_iter", "bscm.assemble_dense_A.ms", "bscm.dense_A_mb",
    "estimators.mmse_estimate.ms",
    "ic.precompute_ic.ms", "ic.ic_siga_step.ms", "ic.ic_beliefs.ms",
    "ic.ic_iga_step.ms", "ic.run_estimator.self_ms", "ic.diverged",
    "ic.iterations.ic_iga", "ic.iterations.ic_siga", "converged_share",
    "iga.build_rank1_split.ms", "iga.project_all.ms", "iga.update_points.ms",
    "iga.run_iga.self_ms", "iga.iterations", "iga.diverged",
    "nmse_gap_db.ic_iga", "nmse_gap_db.ic_siga", "nmse_gap_db.iga",
    "trace_overhead", "trace.cover_share.p50", "trace.cover_share.min",
}


@pytest.fixture(scope="module")
def igachan_modules():
    return worker.import_igachan()


def tiny_sweeps(modules, name: str) -> worker.Sweeps:
    # parity is a property of the desk scenario pooled over its input sets,
    # not of two tiny trials; test_parity_gate covers the gate itself
    harness, bscm = modules
    workload = dataclasses.replace(WORKLOADS[name], scenario=TINY, n_sam=2,
                                   input_sets=2, parity_db=None)
    return worker.Sweeps(harness, workload, worker.build_specs(harness, bscm, workload, 5))


def test_metric_tables_name_every_metric():
    assert set(END_TO_END) == EXPECTED_END_TO_END
    assert set(PER_LAYER) == EXPECTED_PER_LAYER


def test_benchmark_json_matches_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} \
        == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run(igachan_modules, name):
    sweeps = tiny_sweeps(igachan_modules, name)
    metrics = worker.run_plain(sweeps, seconds=0.0)
    assert sweeps.failed == 0, sweeps.errors
    # one cycle over both input sets plus a repeat of the first
    assert [k for k, *_ in sweeps.samples] == [0, 1, 0]
    assert set(metrics) == EXPECTED_END_TO_END - {"setup_s"}
    assert all(math.isfinite(v) and v > 0 for v in metrics.values()), metrics


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run(igachan_modules, name):
    harness, _ = igachan_modules
    sweeps = tiny_sweeps(igachan_modules, name)
    original = harness.gen_power_matrices
    metrics = worker.run_traced(sweeps, seconds=0.0)
    assert harness.gen_power_matrices is original, "tracer left a wrapper installed"
    assert sweeps.failed == 0, sweeps.errors
    # one (untraced, traced) pair per input set
    assert [(k, traced) for k, traced, *_ in sweeps.samples] == [
        (0, False), (0, True), (1, False), (1, True)]
    assert set(metrics) == EXPECTED_PER_LAYER
    assert all(math.isfinite(v) for v in metrics.values()), metrics
    workload = WORKLOADS[name]
    assert metrics["harness.trial_ms.p50"] > 0
    assert 0.5 < metrics["trace.cover_share.p50"] <= 1.0
    assert metrics["bscm.matvec.calls_per_trial"] >= 1
    if "ic_siga" in workload.algorithms:
        assert metrics["bscm.gram_applies_per_iter"] == 2.0
        assert metrics["ic.ic_siga_step.ms"] > 0
    if "iga" in workload.algorithms:
        assert metrics["iga.project_all.ms"] > 0
        assert metrics["ic.precompute_ic.ms"] == 0.0
    else:
        assert metrics["iga.project_all.ms"] == 0.0


@pytest.mark.parametrize("name, alg, gap_db, failed", [
    ("desk-sweep", "ic_siga", 0.05, 0), ("desk-sweep", "ic_siga", 0.4, 2),
    ("desk-iga", "iga", 0.4, 0), ("desk-iga", "iga", 2.0, 2),
])
def test_parity_gate(igachan_modules, name, alg, gap_db, failed):
    harness, _ = igachan_modules
    sweeps = worker.Sweeps(harness, WORKLOADS[name], specs=[])
    mmse = 1e-3
    for k, alg_nmse in enumerate((mmse * 10 ** (gap_db / 10), mmse)):
        rows = [{"snr_db": 30.0, "algorithm": "mmse", "nmse": mmse},
                {"snr_db": 30.0, "algorithm": alg, "nmse": alg_nmse}]
        sweeps.reference[k] = ([], rows)
    sweeps.check_parity()
    # the pooled gap is about half the injected one; a breach fails the
    # cell once per input set
    assert sweeps.failed == failed, sweeps.errors


def test_run_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-iga", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

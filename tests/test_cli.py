import json
import os
import subprocess
import sys

import pytest

from igachan import bscm
from igachan.bscm import parse_scenario_config
from igachan.cli import main
from igachan.harness import ALGORITHMS, BenchmarkSpec, benchmark_csv_text, run_benchmark
from igachan.scenario import load_channels, load_power_matrices

TINY = "\n".join([
    "M_z = 2", "M_x = 2", "F_z = 2", "F_x = 2",
    "N_c = 64", "delta_f_hz = 30000", "M_p = 8", "M_g = 8", "F_p = 2",
    "K = 4", "P = 2", "seed = 9",
]) + "\n"


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text(TINY, encoding="utf-8")
    return path


def test_generate_writes_loadable_files(tiny_config, tmp_path, capsys):
    out = tmp_path / "gen"
    assert main(["generate", "--config", str(tiny_config), "--out", str(out)]) == 0
    powers = load_power_matrices(out / "powers.bin")
    channels = load_channels(out / "channels.bin")
    assert len(powers) == 4 and len(channels) == 4
    assert "philox" in capsys.readouterr().out


def test_estimate_reports_json(tiny_config, tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main(["estimate", "--config", str(tiny_config), "--snr", "10",
                 "--alg", "ic_iga", "--max-iter", "300", "--tol", "1e-10",
                 "--out", str(report)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["algorithm"] == "ic_iga"
    assert summary["nmse"] >= 0
    payload = json.loads(report.read_text())
    assert len(payload["mu_re"]) == summary["n"]
    assert len(payload["residual_trace"]) == payload["iterations"] + 1


def test_estimate_mmse_has_no_iterations(tiny_config, tmp_path, capsys):
    report = tmp_path / "mmse.json"
    assert main(["estimate", "--config", str(tiny_config), "--snr", "0",
                 "--alg", "mmse", "--out", str(report)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["iterations"] == 0 and summary["converged"]
    payload = json.loads(report.read_text())
    assert payload["iterations"] == 0 and payload["converged"]
    assert payload["nmse"] == summary["nmse"]
    assert len(payload["mu_re"]) == len(payload["mu_im"]) == summary["n"]
    assert len(payload["residual_trace"]) == 1
    assert payload["final_residual"] <= 1e-10


def test_estimate_mean_stuck_at_zero_is_not_converged(tiny_config, capsys):
    # at 200 dB IGA's first step rounds the mean to exactly zero; that is
    # no sign of convergence, so the run goes on to --max-iter and warns
    assert main(["estimate", "--config", str(tiny_config), "--snr=200",
                 "--alg", "iga"]) == 0
    out = capsys.readouterr()
    summary = json.loads(out.out)
    assert not summary["converged"] and summary["stop"] == "t_max"
    assert "did not converge" in out.err and "final residual" in out.err


def test_estimate_above_the_dense_cap(tmp_path, capsys):
    # at the real cap: the trial synthesizes y by FFT and IC-SIGA runs on the
    # operators, while every estimator that reads A^H A is refused with one
    # error line that names the cap
    path = tmp_path / "big.txt"
    path.write_text("M_z = 8\nM_x = 8\nK = 300\nP = 14\nseed = 1\n", encoding="utf-8")
    argv = ["estimate", "--config", str(path), "--max-iter", "5", "--alg"]
    assert main(argv + ["ic_siga"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] ** 2 > bscm.DENSE_ENTRY_CAP
    for alg in ("mmse", "modified_mmse", "ic_iga", "iga"):
        assert main(argv + [alg]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "DENSE_ENTRY_CAP" in err[0]


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_estimate_negative_max_iter_exits_2(tiny_config, capsys, alg):
    assert main(["estimate", "--config", str(tiny_config), "--snr", "0",
                 "--alg", alg, "--max-iter", "-1"]) == 2
    assert "--max-iter" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["benchmark", "--snr", "nan"],
    ["benchmark", "--snr", ","],
    ["benchmark", "--alg", ","],
    ["benchmark", "--snr", "0", "--alpha", "0"],
    ["benchmark", "--snr", "0", "--alpha", "1.5"],
    ["benchmark", "--snr", "0", "--tol", "nan"],
    ["benchmark", "--snr=-4000"],
    ["estimate", "--snr", "inf", "--alg", "mmse"],
    ["estimate", "--snr=4000", "--alg", "mmse"],
    ["estimate", "--snr=3200", "--alg", "mmse"],
    ["estimate", "--snr", "0", "--alg", "mmse", "--alpha", "0"],
    ["estimate", "--snr", "0", "--alg", "ic_iga", "--alpha", "0"],
    ["estimate", "--snr", "0", "--alg", "ic_siga", "--alpha", "1.5"],
    ["estimate", "--snr", "0", "--alg", "ic_iga", "--tol", "nan"],
    ["estimate", "--snr", "0", "--alg", "ic_iga", "--tol", "-1"],
], ids=lambda argv: " ".join(argv))
def test_bad_numeric_flags_exit_2(tiny_config, tmp_path, capsys, argv):
    out = ["--out", str(tmp_path / "out.csv")] if argv[0] == "benchmark" else []
    assert main(argv + ["--config", str(tiny_config)] + out) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_delta_f_exits_2(tmp_path, capsys, value):
    path = tmp_path / "bad.txt"
    path.write_text(TINY.replace("delta_f_hz = 30000", f"delta_f_hz = {value}"),
                    encoding="utf-8")
    assert main(["estimate", "--config", str(path), "--alg", "mmse"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "delta_f_hz" in err[0]


def test_benchmark_deterministic_bytes(tiny_config, tmp_path):
    args = ["benchmark", "--config", str(tiny_config), "--snr", "0,10",
            "--alg", "mmse,ic_siga", "--trials", "3", "--max-iter", "200",
            "--seed", "123"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == ("snr_db,algorithm,nmse,nmse_db,mean_iterations,"
                      "converged_fraction,wall_time_ms,seed")


def test_benchmark_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the default scenario's dense products are large enough for OpenBLAS
    # to split over threads, and a split product sums in another order
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "igachan", "benchmark", "--trials", "1", "--snr", "0",
             "--out", str(out)],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_unconverged_cells_warn_on_stderr(tiny_config, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["benchmark", "--config", str(tiny_config), "--snr", "0,10",
                 "--alg", "mmse,ic_siga", "--trials", "2", "--max-iter", "3",
                 "--out", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == [f"warning: ic_siga at {snr} dB converged in 0 of trials within --max-iter 3"
                   for snr in (0, 10)]
    # the warnings leave the CSV as run_benchmark renders it
    cfg = parse_scenario_config(TINY)
    rows = run_benchmark(BenchmarkSpec(snr_list_db=(0.0, 10.0), algorithms=("mmse", "ic_siga"),
                                       n_sam=2, scenario=cfg, seed=cfg.seed, t_max=3))
    assert out.read_bytes() == benchmark_csv_text(rows).encode("utf-8")

    assert main(["estimate", "--config", str(tiny_config), "--snr", "10",
                 "--alg", "ic_siga", "--max-iter", "3"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["converged"] is False
    (line,) = captured.err.splitlines()
    assert line.startswith("warning: ic_siga at 10 dB did not converge within --max-iter 3 ")

    assert main(["estimate", "--config", str(tiny_config), "--snr", "10",
                 "--alg", "mmse"]) == 0
    assert capsys.readouterr().err == ""


def test_validate_quick_exits_zero(capsys):
    assert main(["validate", "--level", "quick"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_validate_failure_exits_one(capsys, corrupt_e_diagonal):
    code = main(["validate", "--level", "quick"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_estimate_covers_every_algorithm(tiny_config, tmp_path, capsys, alg):
    out = tmp_path / "report.json"
    assert main(["estimate", "--config", str(tiny_config), "--snr", "5",
                 "--alg", alg, "--max-iter", "400", "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["algorithm"] == alg and summary["nmse"] >= 0
    # --out writes the run's report plus the command's score, seed, time
    # and generator
    payload = json.loads(out.read_text())
    keys = {"config", "converged", "final_residual", "iterations", "mu_im", "mu_re", "nmse",
            "residual_trace", "rng", "seed", "stop", "wall_time"}
    if alg in ("iga", "ic_iga"):
        keys.add("variances")
    assert set(payload) == keys
    assert payload["iterations"] == len(payload["residual_trace"]) - 1
    assert payload["converged"] == (payload["stop"] == "converged")
    assert payload["nmse"] == summary["nmse"] and payload["seed"] == summary["seed"]
    # estimate and a one-SNR, one-trial benchmark draw the same data and
    # run the same estimator, so they score the same NMSE bit for bit
    cfg = parse_scenario_config(TINY)
    rows = run_benchmark(BenchmarkSpec(snr_list_db=(5.0,), algorithms=(alg,), n_sam=1,
                                       scenario=cfg, seed=cfg.seed, t_max=400))
    assert len(rows) == 1
    assert summary["nmse"] == rows[0]["nmse"]
    assert summary["iterations"] == rows[0]["mean_iterations"]


def test_bad_config_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("M_z = 2\nbogus_key = 3\n", encoding="utf-8")
    assert main(["estimate", "--config", str(bad), "--snr", "0", "--alg", "mmse"]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path):
    assert main(["generate", "--config", str(tmp_path / "nope.txt"),
                 "--out", str(tmp_path / "g")]) == 2


@pytest.mark.parametrize("case", ["generate_out_is_file", "benchmark_out_is_dir",
                                  "config_is_dir", "config_is_binary"])
def test_path_errors_exit_2_without_traceback(tiny_config, tmp_path, case):
    existing = tmp_path / "existing.txt"
    existing.write_text("x", encoding="utf-8")
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"\xff\xfe\x00\x81M_z = 2\n")
    argv = {
        "generate_out_is_file": ["generate", "--config", str(tiny_config),
                                 "--out", str(existing)],
        "benchmark_out_is_dir": ["benchmark", "--config", str(tiny_config), "--snr", "0",
                                 "--alg", "mmse", "--trials", "1", "--out", str(tmp_path)],
        "config_is_dir": ["estimate", "--config", str(tmp_path), "--alg", "mmse"],
        "config_is_binary": ["estimate", "--config", str(binary), "--alg", "mmse"],
    }[case]
    proc = subprocess.run([sys.executable, "-m", "igachan", *argv],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1, proc.stderr
    if case == "config_is_binary":
        assert str(binary) in errors[0]


def test_unknown_algorithm_exits_2(tiny_config):
    assert main(["benchmark", "--config", str(tiny_config), "--alg", "amp",
                 "--out", "/dev/null"]) == 2


def test_bad_seed_exits_2(tiny_config):
    assert main(["estimate", "--config", str(tiny_config), "--seed", "-3",
                 "--snr", "0", "--alg", "mmse"]) == 2


@pytest.mark.parametrize("command", ["generate", "estimate", "benchmark"])
def test_config_file_seed_beyond_64_bits_exits_2(tmp_path, capsys, command):
    # a seed read from the file meets the rule --seed meets
    path = tmp_path / "big-seed.txt"
    path.write_text(TINY.replace("seed = 9", f"seed = {2**64}"), encoding="utf-8")
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "seed must be an integer in [0, 2^64)" in capsys.readouterr().err


def test_estimate_rejects_snr_list(tiny_config):
    assert main(["estimate", "--config", str(tiny_config), "--snr", "0,10",
                 "--alg", "mmse"]) == 2


def test_import_loads_no_scipy():
    # numpy is the one linear-algebra stack
    proc = subprocess.run(
        [sys.executable, "-c",
         "import igachan, sys; print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_module_entry_point(tiny_config, tmp_path):
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "igachan", "benchmark", "--config", str(tiny_config),
         "--snr", "0", "--alg", "mmse", "--trials", "2", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()

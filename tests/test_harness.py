import numpy as np
import pytest

from igachan.bscm import BscmScenario, ScenarioConfig, build_steering, geometry_from_config
from igachan.errors import ConfigError, DomainError
from igachan.harness import (
    ALGORITHMS,
    CSV_HEADER,
    BenchmarkSpec,
    _run_trial,
    benchmark_csv_text,
    build_trial,
    nmse,
    reconstruct_G,
    run_benchmark,
    validate_suite,
    write_benchmark_csv,
)
from igachan.scenario import (
    gen_power_matrices,
    sample_channels,
    stack_channels,
)


@pytest.fixture(scope="module")
def small_spec():
    cfg = ScenarioConfig(M_z=2, M_x=2, F_z=2, F_x=2, N_c=64, delta_f_hz=30e3,
                         M_p=8, M_g=8, F_p=2, K=4, P=2, seed=77)
    return BenchmarkSpec(snr_list_db=(0.0, 10.0), algorithms=("mmse", "ic_iga", "ic_siga"),
                         n_sam=4, scenario=cfg, seed=77, t_max=300, tol=1e-10)


class TestNmse:
    def test_perfect_estimate(self, rng):
        g = [rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))]
        assert nmse(g, g) == 0.0

    def test_zero_estimate(self, rng):
        g = [rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))]
        assert abs(nmse([np.zeros_like(g[0])], g) - 1.0) <= 1e-15

    def test_scalar_perturbation(self, rng):
        # (1 + eps) G has error exactly eps^2; eps = 0.5 is exact in binary
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert nmse([1.5 * g], [g]) == pytest.approx(0.25, abs=1e-15)

    def test_unitary_invariance(self, rng):
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        est = g + 0.1 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        base = nmse([est], [g])
        rotated = nmse([est @ q], [g @ q])
        assert abs(base - rotated) <= 1e-12 * base

    def test_zero_norm_truth_rejected(self):
        with pytest.raises(DomainError):
            nmse([np.ones((2, 2))], [np.zeros((2, 2))])

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            nmse([np.ones((2, 2))], [np.ones((2, 3))])


class TestReconstruct:
    def test_truth_round_trip(self, tiny_scenario):
        scn = tiny_scenario
        cfg = ScenarioConfig(M_z=2, M_x=2, F_z=2, F_x=2, N_c=64, delta_f_hz=30e3,
                             M_p=8, M_g=8, F_p=2, K=4, P=2, seed=3)
        powers = gen_power_matrices(cfg, seed=3)
        channels = sample_channels(powers, seed=3)
        ht = stack_channels(channels, scn.array, scn.ofdm, scn.plan)
        h = ht[scn.extraction.indices]
        rec = reconstruct_G(h, scn)
        truth = [scn.beam_to_space_freq(ch.H) for ch in channels]
        for a, b in zip(rec, truth):
            assert np.abs(a - b).max() <= 1e-10 * max(np.abs(b).max(), 1.0)

    def test_zero_estimate_gives_zero_matrices(self, tiny_scenario):
        rec = reconstruct_G(np.zeros(tiny_scenario.extraction.n), tiny_scenario)
        assert all(np.all(g == 0) for g in rec)

    def test_fast_matches_dense_transforms(self, tiny_scenario, rng):
        scn = tiny_scenario
        _, _, V, U = build_steering(scn.array, scn.ofdm)
        h = rng.standard_normal(scn.extraction.n) + 1j * rng.standard_normal(scn.extraction.n)
        rec = reconstruct_G(h, scn)
        ht = np.zeros(scn.extraction.n_tilde, dtype=complex)
        ht[scn.extraction.indices] = h
        grid = ht.reshape(scn.array.N_r, -1, order="F")
        for k in range(1, scn.plan.K + 1):
            q, p = scn.plan.user_slot(k)
            start = (q - 1) * scn.ofdm.N_p + (p - 1) * scn.ofdm.N_f
            Hk = grid[:, start : start + scn.ofdm.N_f]
            dense = V @ Hk @ U.T
            assert np.abs(rec[k - 1] - dense).max() <= 1e-10 * np.abs(dense).max()


class TestBenchmark:
    def test_row_shape_and_header(self, small_spec):
        rows = run_benchmark(small_spec)
        assert len(rows) == len(small_spec.snr_list_db) * len(small_spec.algorithms)
        text = benchmark_csv_text(rows)
        assert text.splitlines()[0] == CSV_HEADER
        assert text.endswith("\n")

    def test_deterministic_output(self, small_spec):
        a = benchmark_csv_text(run_benchmark(small_spec))
        b = benchmark_csv_text(run_benchmark(small_spec))
        assert a == b

    def test_mmse_is_lower_envelope(self, small_spec):
        rows = run_benchmark(small_spec)
        by_key = {(r["snr_db"], r["algorithm"]): r["nmse"] for r in rows}
        n_pairs = small_spec.n_sam * small_spec.scenario.K
        for snr in small_spec.snr_list_db:
            ref = by_key[(snr, "mmse")]
            # iterative estimators may not undercut the exact posterior mean
            # by more than sampling noise
            slack = 3 * ref / np.sqrt(n_pairs)
            for alg in ("ic_iga", "ic_siga"):
                assert by_key[(snr, alg)] >= ref - slack

    def test_iterative_parity_with_mmse(self, small_spec):
        rows = run_benchmark(small_spec)
        by_key = {(r["snr_db"], r["algorithm"]): r["nmse_db"] for r in rows}
        for snr in small_spec.snr_list_db:
            for alg in ("ic_iga", "ic_siga"):
                assert abs(by_key[(snr, alg)] - by_key[(snr, "mmse")]) <= 0.1

    def test_csv_written_to_disk(self, small_spec, tmp_path):
        rows = run_benchmark(small_spec)
        path = tmp_path / "bench.csv"
        write_benchmark_csv(rows, path)
        data = path.read_bytes()
        assert data.decode("utf-8").splitlines()[0] == CSV_HEADER
        assert b"\r" not in data

    def test_unknown_algorithm_rejected(self, small_spec):
        with pytest.raises(ConfigError):
            BenchmarkSpec(snr_list_db=(0.0,), algorithms=("amp",), n_sam=1,
                          scenario=small_spec.scenario, seed=1)

    def test_wall_time_zero_without_timing(self, small_spec):
        rows = run_benchmark(small_spec)
        assert all(r["wall_time_ms"] == 0.0 for r in rows)

    def test_divergence_is_a_result_not_a_crash(self, small_spec, monkeypatch):
        # a diverged trial lowers converged_fraction and scores the zero
        # estimate instead of aborting the sweep
        from igachan import harness as h
        from igachan.errors import DivergenceError

        def explode(kind, pre, **kwargs):
            raise DivergenceError("forced", trace=[1.0])

        monkeypatch.setattr(h._ic, "run_estimator", explode)
        spec = BenchmarkSpec(snr_list_db=(0.0,), algorithms=("mmse", "ic_siga"),
                             n_sam=2, scenario=small_spec.scenario, seed=5)
        rows = run_benchmark(spec)
        by_alg = {r["algorithm"]: r for r in rows}
        assert by_alg["ic_siga"]["converged_fraction"] == 0.0
        assert by_alg["ic_siga"]["nmse"] == pytest.approx(1.0)
        assert by_alg["mmse"]["converged_fraction"] == 1.0


# run_benchmark rows of the small_spec scenario, all five algorithms at the
# default t_max and tol: (snr_db, algorithm, nmse, mean_iterations,
# converged_fraction).  A refactor must leave them as they are; change them
# only with a deliberate change of the numerics, and say so.
GOLDEN_ROWS = [
    (0.0, "mmse", 0.29621019082170896, 0.0, 1.0),
    (0.0, "modified_mmse", 0.29621019082170724, 0.0, 1.0),
    (0.0, "iga", 0.28322708274319475, 100.0, 0.0),
    (0.0, "ic_iga", 0.29614985972605834, 100.0, 0.0),
    (0.0, "ic_siga", 0.2956643081300802, 100.0, 0.0),
    (10.0, "mmse", 0.023215946318230075, 0.0, 1.0),
    (10.0, "modified_mmse", 0.023215946318233018, 0.0, 1.0),
    (10.0, "iga", 0.029127925632043188, 100.0, 0.0),
    (10.0, "ic_iga", 0.024852238190053638, 100.0, 0.0),
    (10.0, "ic_siga", 0.026138255080832312, 100.0, 0.0),
]


def test_golden_rows(small_spec):
    spec = BenchmarkSpec(snr_list_db=(0.0, 10.0), algorithms=ALGORITHMS, n_sam=2,
                         scenario=small_spec.scenario, seed=77)
    rows = run_benchmark(spec)
    assert [(r["snr_db"], r["algorithm"]) for r in rows] == [g[:2] for g in GOLDEN_ROWS]
    for r, (_, _, nmse_ref, iters, conv) in zip(rows, GOLDEN_ROWS):
        assert r["nmse"] == pytest.approx(nmse_ref, rel=1e-9, abs=0.0)
        assert r["mean_iterations"] == iters
        assert r["converged_fraction"] == conv


def _count_default_trial_calls(monkeypatch, method):
    """Calls of a BscmScenario method in one default _run_trial of the IC sweep."""
    calls = []
    original = getattr(BscmScenario, method)
    monkeypatch.setattr(BscmScenario, method,
                        lambda self, *a: calls.append(1) or original(self, *a))
    spec = BenchmarkSpec(snr_list_db=(10.0,), algorithms=("mmse", "ic_iga", "ic_siga"),
                         n_sam=1, scenario=ScenarioConfig(), seed=0)
    results = _run_trial(spec, geometry_from_config(spec.scenario), 0, 0)
    assert set(results) == {"mmse", "ic_iga", "ic_siga"}
    return len(calls)


def test_one_rmatvec_per_default_trial(monkeypatch):
    # every estimator reads A^H y from the trial's model, which forms it once
    assert _count_default_trial_calls(monkeypatch, "rmatvec") == 1


def test_one_gram_per_default_trial(monkeypatch):
    # mmse, both IC precomputations and the direct-solve residual share the
    # model's A^H A, which it builds at the first call and hands out read-only
    assert _count_default_trial_calls(monkeypatch, "gram") == 1
    cfg = ScenarioConfig()
    model = build_trial(geometry_from_config(cfg), cfg, 0, 10.0, stream=(0, 0)).model
    assert model.gram() is model.gram()
    assert not model.gram().flags.writeable


def test_no_space_frequency_transform_per_default_trial(monkeypatch):
    # scoring reads each user's Gram block, never a space-frequency matrix
    assert _count_default_trial_calls(monkeypatch, "beam_to_space_freq") == 0


def test_truth_off_the_extraction_is_refused(small_spec, monkeypatch):
    # the Gram-block score sees only extracted coefficients, so a channel
    # draw with energy outside them cannot be scored
    from igachan import harness as h

    def leaky(powers, seed, stream=()):
        channels = sample_channels(powers, seed, stream=stream)
        H = channels[0].H.copy()
        H[np.unravel_index(np.argmin(powers[0].omega), H.shape)] = 1.0
        return [type(channels[0])(H), *channels[1:]]

    cfg = small_spec.scenario
    monkeypatch.setattr(h, "sample_channels", leaky)
    with pytest.raises(DomainError, match="outside the extraction"):
        build_trial(geometry_from_config(cfg), cfg, cfg.seed, 10.0, stream=(0, 0))


class TestValidateSuite:
    def test_quick_level_passes(self, capsys):
        import time

        t0 = time.perf_counter()
        results = validate_suite("quick")
        elapsed = time.perf_counter() - t0
        out = capsys.readouterr().out
        assert all(ok for ok, _ in results.values())
        assert out.count("PASS") == len(results)
        assert elapsed < 60.0
        for line in out.splitlines()[:-1]:
            assert "tol" in line or "sigma" in line

    def test_corrupting_e_diagonal_fails_belief_check(self, capsys, corrupt_e_diagonal):
        results = validate_suite("quick")
        capsys.readouterr()
        ok, _ = results["per_coefficient_belief_oracle"]
        assert not ok

    def test_full_level_adds_statistical_checks(self, capsys):
        results = validate_suite("full")
        capsys.readouterr()
        assert all(ok for ok, _ in results.values())
        assert "kl_monte_carlo" in results
        assert len(results) > len(validate_suite("quick"))

    def test_unknown_level(self):
        with pytest.raises(ConfigError):
            validate_suite("paranoid")

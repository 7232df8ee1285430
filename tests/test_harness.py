import dataclasses
import functools

import numpy as np
import pytest

from igachan.bscm import BscmScenario, ScenarioConfig, build_steering, geometry_from_config
from igachan.errors import ConfigError, DivergenceError, DomainError
from igachan.estimators import MeasurementModel, mmse_estimate
from igachan.harness import (
    ALGORITHMS,
    CSV_HEADER,
    ESTIMATORS,
    BenchmarkSpec,
    Trial,
    _run_cell,
    _truth_blocks,
    benchmark_csv_text,
    build_trial,
    nmse,
    reconstruct_G,
    run_algorithm,
    run_benchmark,
    sigma2_of_snr,
    write_benchmark_csv,
)
from igachan.iga import SplitScheme
from igachan.report import DIVERGENCE_FACTOR, Iterative
from igachan.scenario import (
    extraction_from_powers,
    gen_power_matrices,
    sample_channels,
    stack_grid,
    synthesize_rx,
    user_slices,
)
from igachan.validate import validate_suite

from conftest import random_model


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
        ht = stack_grid([ch.H for ch in channels], scn.array, scn.ofdm, scn.plan)
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

    @pytest.mark.parametrize("field", ["n_sam", "t_max", "seed"])
    def test_a_count_must_be_an_integer(self, small_spec, field):
        # n_sam = 2.5 died in range() with a TypeError, t_max = 2.5 was
        # never met by the iteration count, so it ran on without a cap, and
        # seed = 2.5 drew seed 2's trials
        with pytest.raises(ConfigError, match=field):
            dataclasses.replace(small_spec, **{field: 2.5})

    @pytest.mark.parametrize("seed", [-1, 2**64], ids=["-1", "2^64"])
    def test_a_seed_must_fit_in_64_bits(self, small_spec, seed):
        with pytest.raises(ConfigError, match="seed"):
            dataclasses.replace(small_spec, seed=seed)

    def test_wall_time_zero_without_timing(self, small_spec):
        rows = run_benchmark(small_spec)
        assert all(r["wall_time_ms"] == 0.0 for r in rows)

    def test_divergence_is_a_result_not_a_crash(self, small_spec, monkeypatch):
        # a diverged trial lowers converged_fraction and scores the zero
        # estimate instead of aborting the sweep
        from igachan import harness as h

        def explode(batch, alpha):
            def step(b, point, gram_mu):
                raise DivergenceError("forced")

            return np.ones((len(batch.models), batch.width), dtype=complex), step

        monkeypatch.setitem(h.ESTIMATORS, "ic_siga",
                            dataclasses.replace(h.ESTIMATORS["ic_siga"], start=explode))
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
# only with a deliberate change of the numerics, and say so.  Recorded again
# when trials began to draw A^H y from A^H A, which changed every stream.
GOLDEN_ROWS = [
    (0.0, "mmse", 0.15471943591200005, 0.0, 1.0),
    (0.0, "modified_mmse", 0.15471943591200008, 0.0, 1.0),
    (0.0, "iga", 0.16561289164079554, 100.0, 0.0),
    (0.0, "ic_iga", 0.15474112321460645, 100.0, 0.0),
    (0.0, "ic_siga", 0.15527361322506636, 100.0, 0.0),
    (10.0, "mmse", 0.022586634128101954, 0.0, 1.0),
    (10.0, "modified_mmse", 0.022586634128100934, 0.0, 1.0),
    (10.0, "iga", 0.03356010505514204, 100.0, 0.0),
    (10.0, "ic_iga", 0.024860096928842203, 100.0, 0.0),
    (10.0, "ic_siga", 0.026232736155460547, 100.0, 0.0),
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


def _counted(monkeypatch, owner, method):
    """Patch ``owner.method`` to record its calls; returns the list of them."""
    calls, original = [], getattr(owner, method)
    monkeypatch.setattr(owner, method, lambda self, *a: calls.append(1) or original(self, *a))
    return calls


# trials in the default cells of the per-trial counts below
CELL = 2


def _count_default_trial_calls(monkeypatch, method, algorithms=("mmse", "ic_iga", "ic_siga"),
                               owner=BscmScenario):
    """Calls of ``owner.method``, a BscmScenario method unless told
    otherwise, per trial in one default _run_cell of ``algorithms`` over
    CELL trials, capped at 5 iterations."""
    calls = _counted(monkeypatch, owner, method)
    spec = BenchmarkSpec(snr_list_db=(10.0,), algorithms=algorithms, n_sam=CELL,
                         scenario=ScenarioConfig(), seed=0, t_max=5)
    rows = _run_cell(spec, geometry_from_config(spec.scenario), 0)
    assert [row["algorithm"] for row in rows] == list(algorithms)
    return len(calls) / CELL


@pytest.mark.parametrize("method", ["matvec", "rmatvec"])
def test_no_fft_operator_per_default_trial(monkeypatch, method):
    # below the cap a trial draws A^H y from A^H A, and every estimator reads
    # it and A^H A from the model: no FFT operator runs
    assert _count_default_trial_calls(monkeypatch, method) == 0


def test_one_gram_per_default_trial(monkeypatch):
    # the trial's A^H y, its users' blocks, mmse, both IC estimators and the
    # direct-solve residual share one closed-form A^H A, built at the first
    # call and handed out read-only
    assert _count_default_trial_calls(monkeypatch, "gram_block") == 1
    cfg = ScenarioConfig()
    model = build_trial(geometry_from_config(cfg), cfg, 0, 10.0, stream=(0, 0)).model
    assert model.gram() is model.gram()
    assert not model.gram().flags.writeable


def test_one_stacking_per_default_trial(monkeypatch):
    # the extraction and its prior come from one stacking of the power maps
    from igachan import scenario

    assert _count_default_trial_calls(monkeypatch, "stack_grid", ("mmse",), scenario) == 1


def test_one_model_and_one_gram_per_default_iga_trial(monkeypatch):
    # IGA steps from the trial model's A^H A and measures its residual
    # through it, so an mmse,iga trial builds one model and one Gram matrix,
    # and never the split's (N, N) precision
    models = _counted(monkeypatch, MeasurementModel, "__post_init__")
    precisions = _counted(monkeypatch, SplitScheme, "precision")
    assert _count_default_trial_calls(monkeypatch, "gram_block", ("mmse", "iga")) == 1
    assert len(precisions) == 0
    assert len(models) / CELL == 1


def test_one_residual_for_every_estimator(desk_config, desk_geometry):
    # the driver and the direct solves all measure through the model
    trial = build_trial(desk_geometry, desk_config, desk_config.seed, 10.0, stream=(0, 0))
    model = trial.model
    for name in ESTIMATORS:
        (rep,) = run_algorithm(name, [model], None, 50, 1e-8)
        assert rep.residual_trace[-1] == model.residual(rep.mu, model.gram_apply(rep.mu)), name


@pytest.mark.parametrize("name", ALGORITHMS)
def test_every_algorithm_runs_a_gaussian_model(rng, name):
    # the registry is the one front door: a dense Gaussian A, whose |A|^2
    # rows differ, runs through it under every name and lands on MMSE
    model = random_model(rng, 32, 16)
    mu_mmse, _ = mmse_estimate(model)
    (rep,) = run_algorithm(name, [model], None, 5000, 1e-11)
    assert rep.stop == "converged", name
    assert np.linalg.norm(rep.mu - mu_mmse) <= 1e-8 * np.linalg.norm(mu_mmse), name


@pytest.mark.parametrize("name", [name for name, estimator in ESTIMATORS.items()
                                  if isinstance(estimator, Iterative)])
def test_every_record_resolves_and_checks_its_damping(desk_config, desk_geometry, name):
    model = build_trial(desk_geometry, desk_config, desk_config.seed, 10.0, stream=(0, 0)).model
    (rep,) = run_algorithm(name, [model], None, 3, 1e-8)
    assert rep.config == {"algorithm": name, "alpha": ESTIMATORS[name].alpha, "t_max": 3,
                          "tol": 1e-8}
    for alpha in (0.0, 1.5, float("nan")):
        with pytest.raises(DomainError, match="alpha"):
            run_algorithm(name, [model], alpha, 3, 1e-8)


@pytest.mark.parametrize("name", ALGORITHMS)
def test_no_models_give_no_reports(name):
    assert run_algorithm(name, []) == []


@pytest.mark.parametrize("t_max, tol", [(2.5, 1e-8), (np.float64(3.0), 1e-8), (-1, 1e-8),
                                        (3, float("nan")), (3, -1e-8), (3, float("inf"))])
def test_run_settings_that_disable_a_stop_rule_are_refused(rng, t_max, tol):
    # the iteration count never equals a non-integer t_max, and no relative
    # change is below a nan or negative tol: either would run on unannounced;
    # every change is below an infinite tol, which reports a first step
    # "converged"
    with pytest.raises(DomainError, match="t_max" if tol == 1e-8 else "tol"):
        run_algorithm("ic_siga", [random_model(rng, 6, 4)], None, t_max, tol)


@pytest.mark.parametrize("algorithms, builds", [
    (("mmse", "ic_iga", "ic_siga"), 1),
    (("ic_siga",), 0),
], ids=["default-algorithms", "ic_siga-alone"])
def test_L_formed_at_most_once_per_default_trial(monkeypatch, algorithms, builds):
    # IC-IGA and IC-SIGA read one model per trial, so L = |A^H A|.^2 is
    # formed once; IC-SIGA alone never reads it
    product, calls = vars(MeasurementModel)["gram_abs2"], []
    counted = functools.cached_property(lambda model: calls.append(1) or product.func(model))
    counted.__set_name__(MeasurementModel, "gram_abs2")
    monkeypatch.setattr(MeasurementModel, "gram_abs2", counted)
    spec = BenchmarkSpec(snr_list_db=(10.0,), algorithms=algorithms, n_sam=CELL,
                         scenario=ScenarioConfig(), seed=0)
    _run_cell(spec, geometry_from_config(spec.scenario), 0)
    assert len(calls) / CELL == builds


def test_iga_assembles_no_dense_A(small_spec, monkeypatch):
    # a BscmScenario trial runs IGA in the Gram domain: no A is assembled
    # and the (Q, N) split and its reference step are not built
    from igachan import bscm, iga

    calls = []
    for owner, name in ((bscm, "assemble_dense_A"), (iga, "build_rank1_split"),
                        (iga, "initial_state")):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
    cfg = small_spec.scenario
    trial = build_trial(geometry_from_config(cfg), cfg, cfg.seed, 10.0, stream=(0, 0))
    (rep,) = run_algorithm("iga", [trial.model], 0.05, 2, 1e-8)
    assert rep.iterations == 2
    assert calls == []


def test_no_space_frequency_transform_per_default_trial(monkeypatch):
    # scoring reads each user's Gram block, never a space-frequency matrix
    assert _count_default_trial_calls(monkeypatch, "beam_to_space_freq") == 0


def test_above_the_cap_a_trial_forms_y_from_the_same_truth(desk_config, desk_geometry,
                                                           monkeypatch):
    # above the cap A^H A is not formed: y is synthesized by FFT from the
    # truth the trial below the cap draws, and the model forms A^H y from it
    from igachan import bscm

    seed, stream = desk_config.seed, (1, 3)
    below = build_trial(desk_geometry, desk_config, seed, 10.0, stream=stream)
    monkeypatch.setattr(bscm, "DENSE_ENTRY_CAP", below.model.n ** 2 - 1)
    above = build_trial(desk_geometry, desk_config, seed, 10.0, stream=stream)
    scn = above.model.A
    y = synthesize_rx(scn, below.h, below.model.sigma2, seed, stream=stream)
    assert np.array_equal(above.model.y, y)
    assert np.array_equal(above.model.ahy, scn.rmatvec(y))
    assert np.array_equal(above.h, below.h)
    for (s_a, W_a, g2_a), (s_b, W_b, g2_b) in zip(above.users, below.users):
        assert (s_a, g2_a) == (s_b, g2_b) and np.array_equal(W_a, W_b)
    assert below.model.y is None


def _y_domain_trial(geometry, cfg, seed, snr_db, stream) -> Trial:
    """A trial as built before the statistic draw: each user's full grid is
    drawn, y is synthesized by FFT and the model forms A^H y from it."""
    array, ofdm, plan = geometry
    sigma2 = sigma2_of_snr(snr_db)
    powers = gen_power_matrices(cfg, seed, stream=stream)
    extraction, d = extraction_from_powers(powers, array, ofdm, plan)
    scn = BscmScenario(array, ofdm, plan, extraction)
    channels = sample_channels(powers, seed, stream=stream)
    h = stack_grid([ch.H for ch in channels], array, ofdm, plan)[extraction.indices]
    model = MeasurementModel(scn, d, sigma2, synthesize_rx(scn, h, sigma2, seed, stream=stream))
    return Trial(model, h, _truth_blocks(scn, h, user_slices(extraction, array, plan), None))


@pytest.mark.parametrize("snr_db", [0.0, 30.0])
def test_statistic_draw_matches_y_domain_nmse(desk_config, desk_geometry, snr_db):
    # two-sample test: MMSE's per-trial NMSE has the same mean whether the
    # trial draws A^H y from A^H A or synthesizes y; independent seeds
    trials = 200

    def per_trial_nmse(build, seed):
        vals = []
        for t in range(trials):
            trial = build(desk_geometry, desk_config, seed, snr_db, stream=(0, t))
            (rep,) = run_algorithm("mmse", [trial.model], None, 0, 0.0)
            vals.append(np.mean(trial.score(rep.mu)))
        return np.mean(vals), np.var(vals, ddof=1) / trials

    new_mean, new_var = per_trial_nmse(build_trial, 5101)
    old_mean, old_var = per_trial_nmse(_y_domain_trial, 5102)
    assert abs(new_mean - old_mean) <= 4.0 * np.sqrt(new_var + old_var)


@pytest.mark.parametrize("snr_db", [1600.0, 2000.0])
def test_residual_does_not_overflow_at_extreme_snr(snr_db):
    # 1 / sigma2 is about 1e160 and 1e200: the squares of the unscaled
    # residual terms overflowed to inf/inf
    cfg = ScenarioConfig(M_z=2, M_x=2, F_z=2, F_x=2, N_c=64, delta_f_hz=30e3,
                         M_p=8, M_g=8, F_p=2, K=4, P=2, seed=9)
    trial = build_trial(geometry_from_config(cfg), cfg, cfg.seed, snr_db, stream=(0, 0))
    (rep,) = run_algorithm("mmse", [trial.model], None, 0, 0.0)
    assert np.isfinite(rep.residual_trace[0]) and rep.residual_trace[0] <= 1e-10
    # at the start the mean is zero
    for alg in ("iga", "ic_iga", "ic_siga"):
        (rep,) = run_algorithm(alg, [trial.model], None, 0, 1e-8)
        assert rep.residual_trace == [1.0], alg
    # IC-IGA's sigma2^2 is below the smallest normal float at both SNRs, and
    # 0 at 2000 dB: its steps apply it as a mantissa and a power of two
    (rep,) = run_algorithm("ic_iga", [trial.model], None, 100, 1e-8)
    assert rep.iterations > 0 and np.isfinite(rep.residual_trace).all()
    assert rep.residual_trace[-1] < rep.residual_trace[0] and np.isfinite(rep.variances).all()
    # IGA at its default damping blows up here: the driver's rule reports the
    # run, whose residual may read inf, with no overflow warning on the way
    (rep,) = run_algorithm("iga", [trial.model], None, 100, 1e-8)
    assert rep.stop == "diverged"
    assert rep.residual_trace[-1] > DIVERGENCE_FACTOR * min(rep.residual_trace[:-1])


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

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from igachan import bscm
from igachan.bscm import ScenarioConfig, assemble_dense_A, geometry_from_config
from igachan.errors import DivergenceError, DomainError
from igachan.estimators import MeasurementModel, ModelBatch, mmse_estimate
from igachan.harness import ALGORITHMS, build_trial, run_algorithm
from igachan.ic import (
    IcState,
    ic_beliefs,
    ic_iga_step,
    ic_siga_step,
    initial_ic_state,
    mproj_belief_oracle,
)
from igachan.report import DIVERGENCE_FACTOR, Iterative, run

from conftest import random_model, random_y


def probe(step):
    """A mean-only :class:`Iterative` whose point is its mean, started at 0."""
    def start(batch, _alpha):
        return np.zeros((len(batch.models), batch.width), dtype=complex), step

    return Iterative("probe", 1.0, start, mean=lambda mu: mu, variances=lambda mu: None)


def random_state(rng, n):
    lam = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    Lam = rng.uniform(0.5, 2.0, n)
    return IcState(lam=lam, Lam=Lam)


class TestPrecompute:
    # the model's products of A^H A, each built at its first use
    def test_identity(self):
        model = MeasurementModel(np.eye(3, dtype=complex), np.ones(3), 1.0, np.zeros(3))
        assert np.allclose(model.c, 2.0)
        assert np.allclose(model.gram_abs2, np.eye(3))

    def test_scalar(self):
        model = MeasurementModel(np.array([[2.0]]), np.array([1.0]), 1.0, np.array([1.0]))
        assert model.gram_diag[0] == 4.0
        assert model.c[0] == 5.0

    def test_squared_gram_oracle(self, rng):
        model = random_model(rng, 12, 8)
        aha = model.A.conj().T @ model.A
        for i in range(8):
            for j in range(8):
                expect = abs(aha[i, j]) ** 2
                assert abs(model.gram_abs2[i, j] - expect) <= 1e-13 * max(expect, 1.0)

    def test_scenario_model_stores_L_below_cap(self, tiny_scenario, rng, monkeypatch):
        scn = tiny_scenario
        d = rng.uniform(0.5, 2.0, scn.shape[1])
        y = random_y(rng, scn.shape[0])
        model = MeasurementModel(scn, d, 1.0, y)
        A = assemble_dense_A(scn.array, scn.ofdm, scn.plan, scn.extraction)
        G = A.conj().T @ A
        L = np.abs(G) ** 2
        assert np.abs(model.gram_abs2 - L).max() <= 1e-12 * L.max()
        # above the cap only the FFT operators run: A^H A and L are not
        # formed.  The cap is read when a model is built, so this cap gets a
        # fresh model, and a dense A is refused there
        monkeypatch.setattr(bscm, "DENSE_ENTRY_CAP", scn.shape[1] ** 2 - 1)
        model = MeasurementModel(scn, d, 1.0, y)
        x = random_y(rng, scn.shape[1])
        assert np.abs(model.gram_apply(x) - G @ x).max() <= 1e-12 * np.abs(G @ x).max()
        assert np.array_equal(model.gram_diag, scn.gram_diag())
        assert np.array_equal(model.c, scn.gram_diag() + 1.0 / d)
        with pytest.raises(DomainError, match="DENSE_ENTRY_CAP"):
            model.gram_abs2
        assert "_gram" not in vars(model)
        with pytest.raises(DomainError, match="DENSE_ENTRY_CAP"):
            MeasurementModel(A, d, 1.0, y)

    def test_model_keeps_its_regime(self, tiny_scenario, rng, monkeypatch):
        # the cap is read once, when the model is built: lowering it after
        # changes nothing for that model, which still forms A^H A and L
        scn = tiny_scenario
        d = rng.uniform(0.5, 2.0, scn.shape[1])
        model = MeasurementModel(scn, d, 1.0, random_y(rng, scn.shape[0]))
        monkeypatch.setattr(bscm, "DENSE_ENTRY_CAP", scn.shape[1] ** 2 - 1)
        x = random_y(rng, scn.shape[1])
        assert np.array_equal(model.gram_apply(x), model.gram().dot(x))
        assert np.array_equal(model.gram_abs2, np.abs(scn.gram()) ** 2)
        assert np.array_equal(model.gram_diag, np.real(np.diag(scn.gram())))
        assert not MeasurementModel(scn, d, 1.0, model.y).gram_fits


class TestIcIgaStep:
    def test_diagonal_gram_first_step(self):
        model = MeasurementModel(np.eye(2, dtype=complex), np.ones(2), 1.0, np.array([2.0, 4.0]))
        state = initial_ic_state(2)
        mu_new, r, e = ic_beliefs(model, state)
        assert np.abs(e).max() == 0
        assert np.allclose(r, 2.0)
        assert np.allclose(mu_new, [1.0, 2.0])

    def test_orthogonal_columns_fixed_point_after_one_step(self, rng):
        q_mat, _ = np.linalg.qr(rng.standard_normal((24, 12))
                                + 1j * rng.standard_normal((24, 12)))
        model = MeasurementModel(q_mat, rng.uniform(0.5, 2.0, 12), 0.7, random_y(rng, 24))
        mu_mmse, _ = mmse_estimate(model)
        s1 = ic_iga_step(model, initial_ic_state(12), alpha=1.0)
        assert np.abs(s1.mu - mu_mmse).max() <= 1e-12 * np.abs(mu_mmse).max()
        s2 = ic_iga_step(model, s1, alpha=1.0)
        assert np.abs(s2.lam - s1.lam).max() <= 1e-12 * np.abs(s1.lam).max()
        assert np.abs(s2.Lam - s1.Lam).max() <= 1e-12 * np.abs(s1.Lam).max()

    def test_matches_dense_oracle(self, rng):
        model = random_model(rng, 12, 8)
        state = random_state(rng, 8)
        mu_vec, r_vec, e = ic_beliefs(model, state)
        assert np.all(e >= 0)
        assert np.all(r_vec > 0) and np.all(r_vec <= model.c + 1e-12)
        for n in range(8):
            mu_n, r_n, xi, Xi = mproj_belief_oracle(model, state, n)
            assert abs(mu_n - mu_vec[n]) <= 1e-10 * max(1.0, abs(mu_n))
            assert abs(r_n - r_vec[n]) <= 1e-10 * r_n

    def test_belief_support_structure(self, rng):
        # the n-th auxiliary point contributes only to coordinate n
        model = random_model(rng, 10, 6)
        state = random_state(rng, 6)
        for n in (0, 3, 5):
            _, _, xi, Xi = mproj_belief_oracle(model, state, n)
            assert np.abs(np.delete(xi, n)).max() <= 1e-12
            assert np.abs(np.delete(Xi, n)).max() <= 1e-12

    def test_oracle_closed_form_on_orthogonal_columns(self, rng):
        # no interference: mu_n = c_n^{-1} a_n^H y / sigma2 and r_n = c_n
        q_mat, _ = np.linalg.qr(rng.standard_normal((16, 8))
                                + 1j * rng.standard_normal((16, 8)))
        model = MeasurementModel(q_mat, rng.uniform(0.5, 2.0, 8), 0.6, random_y(rng, 16))
        state = random_state(rng, 8)
        s = 1.0 / model.sigma2
        for n in (0, 4, 7):
            mu_n, r_n, _, _ = mproj_belief_oracle(model, state, n)
            c_n = s * np.real(np.vdot(model.A[:, n], model.A[:, n])) + 1 / model.d[n]
            expect_mu = s * np.vdot(model.A[:, n], model.y) / c_n
            assert abs(mu_n - expect_mu) <= 1e-12 * abs(expect_mu)
            assert abs(r_n - c_n) <= 1e-12 * c_n

    def test_dense_and_operator_steps_agree(self, tiny_scenario, rng):
        scn = tiny_scenario
        A = assemble_dense_A(scn.array, scn.ofdm, scn.plan, scn.extraction)
        d = rng.uniform(0.5, 2.0, A.shape[1])
        y = random_y(rng, A.shape[0])
        state = random_state(rng, A.shape[1])
        s_d = ic_iga_step(MeasurementModel(A, d, 0.8, y), state, alpha=0.6)
        s_o = ic_iga_step(MeasurementModel(scn, d, 0.8, y), state, alpha=0.6)
        scale = np.abs(s_d.lam).max()
        assert np.abs(s_d.lam - s_o.lam).max() <= 1e-12 * scale
        assert np.abs(s_d.Lam - s_o.Lam).max() <= 1e-12 * np.abs(s_d.Lam).max()

    def test_state_invariants_enforced(self):
        for Lam in (np.array([1.0, -1.0]), np.array([0.0, 1.0])):
            with pytest.raises(DomainError):
                IcState(lam=np.zeros(2), Lam=Lam)

    def test_update_that_loses_positivity_names_its_rows(self, rng):
        # an infinite L makes e infinite and r = 0, which at alpha = 1 zeroes
        # Lam, and a nan L makes r and Lam nan: the batch step names those
        # rows, so the driver reports them as diverged
        models = [random_model(rng, 6, 4) for _ in range(3)]
        for j, bad in ((1, np.inf), (2, np.nan)):
            models[j] = dataclasses.replace(models[j])
            object.__setattr__(models[j], "gram_abs2", np.full((4, 4), bad))
        with pytest.raises(DivergenceError) as info:
            ic_iga_step(ModelBatch(models), initial_ic_state((3, 4)), 1.0)
        assert info.value.rows == [1, 2]

    @pytest.mark.parametrize("call", [
        lambda model, x: ic_beliefs(model, IcState(x, np.ones(x.size))),
        lambda model, x: ic_iga_step(model, IcState(x, np.ones(x.size)), 0.5),
        lambda model, x: ic_siga_step(model, x, 0.5),
        lambda model, x: mproj_belief_oracle(model, IcState(x, np.ones(x.size)), 0),
    ], ids=["ic_beliefs", "ic_iga_step", "ic_siga_step", "mproj_belief_oracle"])
    def test_an_input_of_the_wrong_length_is_refused(self, rng, call):
        # every public IC function names the shape it expected, where numpy
        # would raise its own ValueError or broadcast
        model = random_model(rng, 6, 4)
        with pytest.raises(DomainError, match=r"shape \(3,\), expected \(4,\)"):
            call(model, np.zeros(3, dtype=complex))

    def test_state_derives_variances_and_mean(self, rng):
        lam = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        Lam = rng.uniform(0.5, 2.0, 5)
        state = IcState(lam=lam, Lam=Lam)
        assert np.array_equal(state.v, 1.0 / Lam)
        assert np.array_equal(state.mu, lam / Lam)


class TestIcSigaStep:
    def test_identity_fixed_point(self):
        model = MeasurementModel(np.eye(2, dtype=complex), np.ones(2), 1.0, np.array([2.0, 4.0]))
        mu1 = ic_siga_step(model, np.zeros(2, dtype=complex), alpha=1.0)
        assert np.allclose(mu1, [1.0, 2.0])
        mu2 = ic_siga_step(model, mu1, alpha=1.0)
        assert np.abs(mu2 - mu1).max() <= 1e-14

    def test_mmse_mean_is_fixed_point(self, rng):
        model = random_model(rng, 20, 10)
        mu_mmse, _ = mmse_estimate(model)
        stepped = ic_siga_step(model, mu_mmse, alpha=1.0)
        assert np.linalg.norm(stepped - mu_mmse) / np.linalg.norm(mu_mmse) <= 1e-10

    def test_equals_damped_jacobi(self, rng):
        # independent Jacobi-splitting computation of the same update
        model = random_model(rng, 14, 9)
        mu_t = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        alpha = 0.3
        got = ic_siga_step(model, mu_t, alpha)
        s = 1.0 / model.sigma2
        B = s * (model.A.conj().T @ model.A) + np.diag(1.0 / model.d)
        rhs = s * (model.A.conj().T @ model.y)
        Dc = np.real(np.diag(B))
        jacobi = (rhs - (B - np.diag(Dc)) @ mu_t) / Dc
        expect = alpha * jacobi + (1 - alpha) * mu_t
        assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


class TestRunEstimator:
    def test_t_max_zero(self, rng):
        (rep,) = run_algorithm("ic_iga", [random_model(rng, 8, 5)], t_max=0)
        assert rep.iterations == 0 and not rep.converged
        assert np.all(rep.mu == 0)
        assert len(rep.residual_trace) == 1

    def test_orthogonal_pilot_scenario_converges_quickly(self, rng):
        # single-root scenario with fine factors 1: A has orthogonal columns,
        # so the damped recursion contracts geometrically at rate (1 - alpha);
        # at alpha = 0.45 that puts the 1e-8 residual mark near 31 iterations
        from igachan.bscm import (
            ArrayConfig, BscmScenario, OfdmConfig, PilotPlan, assemble_dense_A,
            full_extraction,
        )

        array = ArrayConfig(M_z=2, M_x=2, F_z=1, F_x=1)
        ofdm = OfdmConfig(N_c=64, delta_f_hz=30e3, M_p=8, M_g=8, F_p=1)
        plan = PilotPlan(K=1, P=1, M_p=8, N_p=ofdm.N_p, N_f=ofdm.N_f)
        scn = BscmScenario(array, ofdm, plan, full_extraction(array, ofdm, plan))
        A = assemble_dense_A(array, ofdm, plan, scn.extraction)
        d = rng.uniform(0.5, 2.0, A.shape[1])
        model = MeasurementModel(A, d, 1.0, random_y(rng, A.shape[0]))
        (rep,) = run_algorithm("ic_iga", [model], alpha=0.45, t_max=40, tol=1e-14)
        assert rep.residual_trace[35] <= 1e-8
        mu_mmse, _ = mmse_estimate(model)
        assert np.linalg.norm(rep.mu - mu_mmse) / np.linalg.norm(mu_mmse) <= 1e-8

    @pytest.mark.parametrize("kind,alpha", [("ic_iga", 0.45), ("ic_siga", 0.25)])
    def test_reaches_mmse_on_random_instances(self, rng, kind, alpha):
        model = random_model(rng, 32, 16)
        mu_mmse, _ = mmse_estimate(model)
        (rep,) = run_algorithm(kind, [model], alpha=alpha, t_max=2000, tol=1e-10)
        assert rep.converged
        assert np.linalg.norm(rep.mu - mu_mmse) / np.linalg.norm(mu_mmse) <= 1e-6
        assert rep.residual_trace[-1] <= 1e-8
        if kind == "ic_iga":
            assert rep.variances is not None and np.all(rep.variances > 0)
        else:
            assert rep.variances is None

    def test_equilibrium_is_damping_invariant(self, rng):
        # a fixed point for one damping stays fixed for any other
        model = random_model(rng, 24, 12)
        (rep,) = run_algorithm("ic_iga", [model], alpha=0.45, t_max=5000, tol=1e-13)
        state = IcState(lam=rep.mu * (1.0 / rep.variances), Lam=1.0 / rep.variances)
        for alpha in (1.0, 0.2):
            stepped = ic_iga_step(model, state, alpha=alpha)
            assert np.abs(stepped.mu - state.mu).max() <= 1e-9 * np.abs(state.mu).max()

    def test_scenario_model_run_reports_dense_variances(self, rng, monkeypatch):
        # sparse power-based extraction keeps the system Jacobi-friendly
        from igachan.bscm import BscmScenario, ScenarioConfig, geometry_from_config
        from igachan.scenario import (
            extraction_from_powers, gen_power_matrices,
        )

        cfg = ScenarioConfig(M_z=2, M_x=2, F_z=2, F_x=2, N_c=64, delta_f_hz=30e3,
                             M_p=8, M_g=8, F_p=2, K=4, P=2, seed=21)
        array, ofdm, plan = geometry_from_config(cfg)
        powers = gen_power_matrices(cfg, seed=21)
        extraction, d = extraction_from_powers(powers, array, ofdm, plan)
        scn = BscmScenario(array, ofdm, plan, extraction)
        y = random_y(rng, scn.shape[0])
        model = MeasurementModel(scn, d, 1.0, y)
        (rep,) = run_algorithm("ic_iga", [model], t_max=1000, tol=1e-10)
        assert rep.residual_trace[-1] <= 1e-8
        A = assemble_dense_A(array, ofdm, plan, extraction)
        (ref,) = run_algorithm("ic_iga", [MeasurementModel(A, d, 1.0, y)], t_max=1000,
                               tol=1e-10)
        assert rep.variances is not None
        assert np.abs(rep.variances - ref.variances).max() <= 1e-10 * ref.variances.max()
        # above the cap there is no L, and IC-IGA refuses instead of dropping
        # its variances; the cap is read by a fresh model's first product
        monkeypatch.setattr(bscm, "DENSE_ENTRY_CAP", extraction.n ** 2 - 1)
        with pytest.raises(DomainError, match="DENSE_ENTRY_CAP"):
            run_algorithm("ic_iga", [MeasurementModel(scn, d, 1.0, y)], t_max=1000, tol=1e-10)

    def test_one_gram_apply_per_iteration(self, tiny_scenario, rng, monkeypatch):
        # in both size regimes a run applies the Gram matrix once for the
        # starting residual and once per iteration, and matches a hand loop
        # of the public steps bit for bit; above the cap IC-IGA needs L, so
        # it refuses to run.  The cap is read by a fresh model for each
        scn = tiny_scenario
        d, y = rng.uniform(0.5, 2.0, scn.shape[1]), random_y(rng, scn.shape[0])
        t_max = 12
        for dense, cap in ((True, bscm.DENSE_ENTRY_CAP), (False, scn.shape[1] ** 2 - 1)):
            monkeypatch.setattr(bscm, "DENSE_ENTRY_CAP", cap)
            model = MeasurementModel(scn, d, 0.8, y)
            apply, calls = model.gram_apply, []
            object.__setattr__(model, "gram_apply", lambda x: calls.append(1) or apply(x))
            (rep,) = run_algorithm("ic_siga", [model], alpha=0.25, t_max=t_max, tol=0.0)
            assert rep.iterations == t_max
            assert len(calls) == t_max + 1
            assert ("_gram" in vars(model)) is dense  # A^H A formed at or below the cap

            theta = model.ahy / model.sigma2

            def residual(mu):
                lhs = apply(mu) / model.sigma2 + mu / model.d
                return float(np.linalg.norm(lhs - theta)) / float(np.linalg.norm(theta))

            mu = np.zeros(model.n, dtype=complex)
            trace = [residual(mu)]
            for _ in range(t_max):
                mu = ic_siga_step(model, mu, 0.25)
                trace.append(residual(mu))
            assert np.array_equal(rep.mu, mu)
            assert rep.residual_trace == trace
            if not dense:
                with pytest.raises(DomainError, match="DENSE_ENTRY_CAP"):
                    run_algorithm("ic_iga", [model], alpha=0.45, t_max=t_max, tol=0.0)
                continue

            calls.clear()
            (rep,) = run_algorithm("ic_iga", [model], alpha=0.45, t_max=t_max, tol=0.0)
            assert rep.iterations == t_max
            assert len(calls) == t_max + 1
            state = initial_ic_state(model.n)
            trace = [residual(state.mu)]
            for _ in range(t_max):
                r = ic_beliefs(model, state)[1]
                state = ic_iga_step(model, state, 0.45)
                trace.append(residual(state.mu))
            assert np.array_equal(rep.mu, state.mu)
            assert np.array_equal(rep.variances, 1.0 / r)
            assert rep.residual_trace == trace

    def test_divergence_detected(self):
        A = np.ones((4, 3), dtype=complex)
        model = MeasurementModel(A, np.full(3, 100.0), 0.01, np.ones(4, dtype=complex))
        (rep,) = run_algorithm("ic_siga", [model], alpha=1.0, t_max=200)
        assert rep.stop == "diverged"
        trace = rep.residual_trace
        assert trace[-1] > DIVERGENCE_FACTOR * min(trace[:-1])

    def test_non_finite_residual_is_divergence(self, rng):
        # the driver's rule, on a step that makes the mean NaN at once
        model = random_model(rng, 6, 4)
        (rep,) = run(probe(lambda _batch, mu, _gram_mu: mu + np.nan), [model], None, 10, 1e-8)
        assert rep.stop == "diverged"
        assert len(rep.residual_trace) == 2 and np.isnan(rep.residual_trace[-1])

    def test_a_mean_that_stays_zero_does_not_converge(self, rng):
        # a mean that is zero before and after a step has settled on nothing:
        # with A^H y nonzero the run goes on to t_max
        model = random_model(rng, 6, 4)
        assert np.abs(model.ahy).max() > 0
        (rep,) = run(probe(lambda _batch, mu, _gram_mu: np.zeros_like(mu)), [model], None, 10,
                     1e-8)
        assert (rep.stop, rep.converged, rep.iterations) == ("t_max", False, 10)

    def test_default_scenario_diverges_undamped(self):
        # IC-SIGA is damped Jacobi: at alpha = 1 the default scenario's
        # largest Jacobi-scaled eigenvalue (about 3.1 > 2) blows it up
        cfg = ScenarioConfig()
        model = build_trial(geometry_from_config(cfg), cfg, cfg.seed, 10.0, stream=(0, 0)).model
        (rep,) = run_algorithm("ic_siga", [model], alpha=1.0, t_max=100)
        assert rep.stop == "diverged"

    def test_unknown_kind(self, rng):
        # the registry names what it holds: no bare KeyError
        with pytest.raises(DomainError, match=re.escape(str(ALGORITHMS))):
            run_algorithm("amp", [random_model(rng, 4, 3)])


def test_readme_quickstart_runs(capsys):
    # the library quickstart in README.md runs as written: IC-IGA lands on
    # the exact MMSE mean
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md quickstart", "exec"), {})
    assert float(capsys.readouterr().out) <= 1e-6

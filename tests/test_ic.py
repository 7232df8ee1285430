import dataclasses

import numpy as np
import pytest

from igachan import bscm
from igachan.bscm import assemble_dense_A
from igachan.errors import DivergenceError, DomainError
from igachan.estimators import MeasurementModel, mmse_estimate
from igachan.ic import (
    IcState,
    ic_beliefs,
    ic_iga_step,
    ic_siga_step,
    initial_ic_state,
    mproj_belief_oracle,
    precompute_ic,
    run_estimator,
)

from conftest import random_model, random_y


def random_state(rng, n):
    lam = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    Lam = rng.uniform(0.5, 2.0, n)
    return IcState(lam=lam, Lam=Lam, t=0)


class TestPrecompute:
    def test_identity(self):
        model = MeasurementModel(np.eye(3, dtype=complex), np.ones(3), 1.0, np.zeros(3))
        pre = precompute_ic(model)
        assert np.allclose(pre.c, 2.0)
        assert np.allclose(pre.L, np.eye(3))

    def test_scalar(self):
        model = MeasurementModel(np.array([[2.0]]), np.array([1.0]), 1.0, np.array([1.0]))
        pre = precompute_ic(model)
        assert pre.aha_diag[0] == 4.0
        assert pre.c[0] == 5.0

    def test_squared_gram_oracle(self, rng):
        model = random_model(rng, 12, 8)
        pre = precompute_ic(model)
        aha = model.A.conj().T @ model.A
        for i in range(8):
            for j in range(8):
                expect = abs(aha[i, j]) ** 2
                assert abs(pre.L[i, j] - expect) <= 1e-13 * max(expect, 1.0)

    def test_scenario_model_stores_L_below_cap(self, tiny_scenario, rng, monkeypatch):
        scn = tiny_scenario
        d = rng.uniform(0.5, 2.0, scn.shape[1])
        y = random_y(rng, scn.shape[0])
        model = MeasurementModel(scn, d, 1.0, y)
        pre = precompute_ic(model)
        A = assemble_dense_A(scn.array, scn.ofdm, scn.plan, scn.extraction)
        L = np.abs(A.conj().T @ A) ** 2
        assert pre.mode == "dense"
        assert np.abs(pre.L - L).max() <= 1e-12 * L.max()
        # above the cap only the FFT operators run, and L is not stored
        monkeypatch.setattr(bscm, "DENSE_ENTRY_CAP", scn.shape[1] ** 2 - 1)
        pre = precompute_ic(model)
        assert pre.L is None and pre.mode == "operator"
        with pytest.raises(DomainError, match="DENSE_ENTRY_CAP"):
            precompute_ic(MeasurementModel(A, d, 1.0, y))


class TestIcIgaStep:
    def test_diagonal_gram_first_step(self):
        model = MeasurementModel(np.eye(2, dtype=complex), np.ones(2), 1.0, np.array([2.0, 4.0]))
        pre = precompute_ic(model)
        state = initial_ic_state(2)
        mu_new, r, e = ic_beliefs(pre, state)
        assert np.abs(e).max() == 0
        assert np.allclose(r, 2.0)
        assert np.allclose(mu_new, [1.0, 2.0])

    def test_orthogonal_columns_fixed_point_after_one_step(self, rng):
        q_mat, _ = np.linalg.qr(rng.standard_normal((24, 12))
                                + 1j * rng.standard_normal((24, 12)))
        model = MeasurementModel(q_mat, rng.uniform(0.5, 2.0, 12), 0.7, random_y(rng, 24))
        mu_mmse, _ = mmse_estimate(model)
        pre = precompute_ic(model)
        s1 = ic_iga_step(pre, initial_ic_state(12), alpha=1.0)
        assert np.abs(s1.mu - mu_mmse).max() <= 1e-12 * np.abs(mu_mmse).max()
        s2 = ic_iga_step(pre, s1, alpha=1.0)
        assert np.abs(s2.lam - s1.lam).max() <= 1e-12 * np.abs(s1.lam).max()
        assert np.abs(s2.Lam - s1.Lam).max() <= 1e-12 * np.abs(s1.Lam).max()

    def test_matches_dense_oracle(self, rng):
        model = random_model(rng, 12, 8)
        pre = precompute_ic(model)
        state = random_state(rng, 8)
        mu_vec, r_vec, e = ic_beliefs(pre, state)
        assert np.all(e >= 0)
        assert np.all(r_vec > 0) and np.all(r_vec <= pre.c + 1e-12)
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
        pre_d = precompute_ic(MeasurementModel(A, d, 0.8, y))
        pre_o = precompute_ic(MeasurementModel(scn, d, 0.8, y))
        state = random_state(rng, A.shape[1])
        s_d = ic_iga_step(pre_d, state, alpha=0.6)
        s_o = ic_iga_step(pre_o, state, alpha=0.6)
        scale = np.abs(s_d.lam).max()
        assert np.abs(s_d.lam - s_o.lam).max() <= 1e-12 * scale
        assert np.abs(s_d.Lam - s_o.Lam).max() <= 1e-12 * np.abs(s_d.Lam).max()

    def test_state_invariants_enforced(self):
        for Lam in (np.array([1.0, -1.0]), np.array([0.0, 1.0])):
            with pytest.raises(DomainError):
                IcState(lam=np.zeros(2), Lam=Lam)

    def test_state_derives_variances_and_mean(self, rng):
        lam = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        Lam = rng.uniform(0.5, 2.0, 5)
        state = IcState(lam=lam, Lam=Lam)
        assert np.array_equal(state.v, 1.0 / Lam)
        assert np.array_equal(state.mu, lam / Lam)


class TestIcSigaStep:
    def test_identity_fixed_point(self):
        model = MeasurementModel(np.eye(2, dtype=complex), np.ones(2), 1.0, np.array([2.0, 4.0]))
        pre = precompute_ic(model)
        mu1 = ic_siga_step(pre, np.zeros(2, dtype=complex), alpha=1.0)
        assert np.allclose(mu1, [1.0, 2.0])
        mu2 = ic_siga_step(pre, mu1, alpha=1.0)
        assert np.abs(mu2 - mu1).max() <= 1e-14

    def test_mmse_mean_is_fixed_point(self, rng):
        model = random_model(rng, 20, 10)
        mu_mmse, _ = mmse_estimate(model)
        pre = precompute_ic(model)
        stepped = ic_siga_step(pre, mu_mmse, alpha=1.0)
        assert np.linalg.norm(stepped - mu_mmse) / np.linalg.norm(mu_mmse) <= 1e-10

    def test_equals_damped_jacobi(self, rng):
        # independent Jacobi-splitting computation of the same update
        model = random_model(rng, 14, 9)
        pre = precompute_ic(model)
        mu_t = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        alpha = 0.3
        got = ic_siga_step(pre, mu_t, alpha)
        s = 1.0 / model.sigma2
        B = s * (model.A.conj().T @ model.A) + np.diag(1.0 / model.d)
        rhs = s * (model.A.conj().T @ model.y)
        Dc = np.real(np.diag(B))
        jacobi = (rhs - (B - np.diag(Dc)) @ mu_t) / Dc
        expect = alpha * jacobi + (1 - alpha) * mu_t
        assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


class TestRunEstimator:
    def test_t_max_zero(self, rng):
        pre = precompute_ic(random_model(rng, 8, 5))
        rep = run_estimator("ic_iga", pre, t_max=0)
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
        pre = precompute_ic(model)
        rep = run_estimator("ic_iga", pre, alpha=0.45, t_max=40, tol=1e-14)
        assert rep.residual_trace[35] <= 1e-8
        mu_mmse, _ = mmse_estimate(model)
        assert np.linalg.norm(rep.mu - mu_mmse) / np.linalg.norm(mu_mmse) <= 1e-8

    @pytest.mark.parametrize("kind,alpha", [("ic_iga", 0.45), ("ic_siga", 0.25)])
    def test_reaches_mmse_on_random_instances(self, rng, kind, alpha):
        model = random_model(rng, 32, 16)
        mu_mmse, _ = mmse_estimate(model)
        pre = precompute_ic(model)
        rep = run_estimator(kind, pre, alpha=alpha, t_max=2000, tol=1e-10)
        assert rep.converged
        assert np.linalg.norm(rep.mu - mu_mmse) / np.linalg.norm(mu_mmse) <= 1e-6
        assert rep.residual_trace[-1] <= 1e-8
        if kind == "ic_iga":
            assert rep.variances is not None and np.all(rep.variances > 0)
        else:
            assert rep.variances is None

    def test_equilibrium_is_damping_invariant(self, rng):
        # a fixed point for one damping stays fixed for any other
        pre = precompute_ic(random_model(rng, 24, 12))
        rep = run_estimator("ic_iga", pre, alpha=0.45, t_max=5000, tol=1e-13)
        state = IcState(lam=rep.mu * (1.0 / rep.variances), Lam=1.0 / rep.variances)
        for alpha in (1.0, 0.2):
            stepped = ic_iga_step(pre, state, alpha=alpha)
            assert np.abs(stepped.mu - state.mu).max() <= 1e-9 * np.abs(state.mu).max()

    def test_scenario_model_run_reports_dense_variances(self, rng, monkeypatch):
        # sparse power-based extraction keeps the system Jacobi-friendly
        from igachan.bscm import BscmScenario, ScenarioConfig, geometry_from_config
        from igachan.scenario import (
            build_prior, extraction_from_powers, gen_power_matrices,
        )

        cfg = ScenarioConfig(M_z=2, M_x=2, F_z=2, F_x=2, N_c=64, delta_f_hz=30e3,
                             M_p=8, M_g=8, F_p=2, K=4, P=2, seed=21)
        array, ofdm, plan = geometry_from_config(cfg)
        powers = gen_power_matrices(cfg, seed=21)
        extraction = extraction_from_powers(powers, array, ofdm, plan)
        d = build_prior(powers, extraction, array, ofdm, plan)
        scn = BscmScenario(array, ofdm, plan, extraction)
        y = random_y(rng, scn.shape[0])
        model = MeasurementModel(scn, d, 1.0, y)
        rep = run_estimator("ic_iga", precompute_ic(model), t_max=1000, tol=1e-10)
        assert rep.residual_trace[-1] <= 1e-8
        A = assemble_dense_A(array, ofdm, plan, extraction)
        ref = run_estimator("ic_iga", precompute_ic(MeasurementModel(A, d, 1.0, y)),
                            t_max=1000, tol=1e-10)
        assert rep.variances is not None
        assert np.abs(rep.variances - ref.variances).max() <= 1e-10 * ref.variances.max()
        # above the cap there is no L, and IC-IGA refuses instead of dropping
        # its variances
        monkeypatch.setattr(bscm, "DENSE_ENTRY_CAP", extraction.n ** 2 - 1)
        pre = precompute_ic(model)
        with pytest.raises(DomainError, match="DENSE_ENTRY_CAP"):
            run_estimator("ic_iga", pre, t_max=1000, tol=1e-10)

    def test_one_gram_apply_per_iteration(self, tiny_scenario, rng, monkeypatch):
        # both modes apply the Gram matrix once for the starting residual and
        # once per iteration, and match a hand loop of the public steps bit
        # for bit; IC-IGA needs L, so in operator mode it refuses to run
        scn = tiny_scenario
        model = MeasurementModel(scn, rng.uniform(0.5, 2.0, scn.shape[1]), 0.8,
                                 random_y(rng, scn.shape[0]))
        t_max = 12
        for mode, cap in (("dense", bscm.DENSE_ENTRY_CAP), ("operator", scn.shape[1] ** 2 - 1)):
            monkeypatch.setattr(bscm, "DENSE_ENTRY_CAP", cap)
            pre = precompute_ic(model)
            assert pre.mode == mode
            calls = []
            counted = dataclasses.replace(
                pre, gram=lambda x, _g=pre.gram: calls.append(1) or _g(x))
            rep = run_estimator("ic_siga", counted, alpha=0.25, t_max=t_max, tol=0.0)
            assert rep.iterations == t_max
            assert len(calls) == t_max + 1

            theta = pre.ahy / pre.sigma2

            def residual(mu):
                lhs = pre.gram(mu) / pre.sigma2 + mu / pre.d
                return float(np.linalg.norm(lhs - theta)) / float(np.linalg.norm(theta))

            mu = np.zeros(pre.n, dtype=complex)
            trace = [residual(mu)]
            for _ in range(t_max):
                mu = ic_siga_step(pre, mu, 0.25)
                trace.append(residual(mu))
            assert np.array_equal(rep.mu, mu)
            assert rep.residual_trace == trace
            if mode == "operator":
                with pytest.raises(DomainError, match="DENSE_ENTRY_CAP"):
                    run_estimator("ic_iga", counted, alpha=0.45, t_max=t_max, tol=0.0)
                continue

            calls.clear()
            rep = run_estimator("ic_iga", counted, alpha=0.45, t_max=t_max, tol=0.0)
            assert rep.iterations == t_max
            assert len(calls) == t_max + 1
            state = initial_ic_state(pre.n)
            trace = [residual(state.mu)]
            for _ in range(t_max):
                beliefs = ic_beliefs(pre, state)
                state = ic_iga_step(pre, state, 0.45, beliefs=beliefs)
                trace.append(residual(state.mu))
            assert np.array_equal(rep.mu, state.mu)
            assert np.array_equal(rep.variances, 1.0 / beliefs[1])
            assert rep.residual_trace == trace

    def test_divergence_detected(self):
        A = np.ones((4, 3), dtype=complex)
        model = MeasurementModel(A, np.full(3, 100.0), 0.01, np.ones(4, dtype=complex))
        pre = precompute_ic(model)
        with pytest.raises(DivergenceError) as info:
            run_estimator("ic_siga", pre, alpha=1.0, t_max=200)
        assert len(info.value.trace) >= 20

    def test_unknown_kind(self, rng):
        pre = precompute_ic(random_model(rng, 4, 3))
        with pytest.raises(DomainError):
            run_estimator("amp", pre)

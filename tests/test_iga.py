import tracemalloc

import numpy as np
import pytest

from igachan import bscm, iga
from igachan.bscm import ScenarioConfig, assemble_dense_A, geometry_from_config
from igachan.errors import DomainError
from igachan.estimators import MeasurementModel, ModelBatch, mmse_estimate
from igachan.gaussian import GaussianNatural, m_project_to_diag
from igachan.harness import build_trial, run_algorithm
from igachan.iga import (
    IGA,
    AuxiliaryState,
    SplitScheme,
    build_rank1_split,
    initial_state,
    project_all,
    update_points,
)
from igachan.report import DIVERGENCE_FACTOR
from igachan.scenario import synthesize_rx
from igachan.validate import _rand_model, _rand_y

from conftest import random_model, random_y


def orthogonal_disjoint_model(rng, blocks=8, sigma2=0.8):
    """Orthogonal columns with disjoint row supports: fully decoupled."""
    m, n = 2 * blocks, blocks
    A = np.zeros((m, n), dtype=complex)
    for j in range(n):
        A[2 * j, j] = rng.standard_normal() + 1j * rng.standard_normal()
        A[2 * j + 1, j] = rng.standard_normal() + 1j * rng.standard_normal()
    return MeasurementModel(A, rng.uniform(0.5, 2.0, n), sigma2, random_y(rng, m))


def unit_modulus_model(rng, m, n, sigma2=2.0):
    """Random phases of modulus 1: every row of |A|^2 is the same."""
    A = np.exp(2j * np.pi * rng.random((m, n)))
    return MeasurementModel(A, rng.uniform(0.2, 3.0, n), sigma2, random_y(rng, m))


@pytest.fixture(scope="module")
def desk_operator_case(desk_config, desk_geometry):
    """The operator model of one desk trial's truth, with y synthesized by
    FFT: a trial's own model holds A^H y only, and the dense split needs y."""
    trial = build_trial(desk_geometry, desk_config, desk_config.seed, 0.0, stream=(0, 0))
    model = trial.model
    y = synthesize_rx(model.A, trial.h, model.sigma2, desk_config.seed, stream=(0, 0))
    return MeasurementModel(model.A, model.d, model.sigma2, y)


@pytest.fixture(scope="module")
def desk_case(desk_operator_case):
    """The dense beam-domain model of the same y."""
    model, scn = desk_operator_case, desk_operator_case.A
    A = assemble_dense_A(scn.array, scn.ofdm, scn.plan, scn.extraction)
    return MeasurementModel(A, model.d, model.sigma2, model.y)


@pytest.fixture(params=["gaussian", "unit_modulus", "bscm"])
def split_case(request, rng, desk_case):
    """(model, shared): a rank-1 split whose precision row is shared or not."""
    if request.param == "gaussian":
        return random_model(rng, 12, 8), False
    if request.param == "unit_modulus":
        return unit_modulus_model(rng, 12, 8), True
    return desk_case, True


def parent_run_iga(scheme, alpha, t_max, tol):
    """Reference loop: one precision row per piece, |g|^2 recomputed in every
    projection, and the residual applied through the (Q, N) factors."""
    g, lc = scheme.factors, scheme.lambda_c
    q, n = g.shape
    lam_q, Lam_q = np.zeros((q, n), complex), np.zeros((q, n))
    lam0, Lam0 = np.zeros(n, complex), np.zeros(n)
    theta = scheme.b.sum(axis=0)
    mu = lam0 / (Lam0 + lc)
    for t in range(1, t_max + 1):
        w = Lam_q + lc[None, :]
        m = lam_q + scheme.b
        denom = 1.0 + np.sum((g.conj() * g).real / w, axis=1)
        gHm = np.sum(g.conj() * m / w, axis=1)
        mu_q = m / w - (g / w) * (gHm / denom)[:, None]
        var = 1.0 / w - (np.abs(g) ** 2 / w**2) / denom[:, None]
        xi = mu_q / var - lam_q
        Xi = 1.0 / var - lc[None, :] - Lam_q
        lam0_new, Lam0_new = xi.sum(axis=0), Xi.sum(axis=0)
        lam0 = alpha * lam0_new + (1 - alpha) * lam0
        Lam0 = alpha * Lam0_new + (1 - alpha) * Lam0
        lam_q = alpha * (lam0_new[None, :] - xi) + (1 - alpha) * lam_q
        Lam_q = alpha * (Lam0_new[None, :] - Xi) + (1 - alpha) * Lam_q
        mu_new = lam0 / (Lam0 + lc)
        change = np.abs(mu_new - mu).max() / max(np.abs(mu_new).max(), 1e-300)
        mu = mu_new
        if change < tol:
            break
    residual = g.T @ (g.conj() @ mu) + lc * mu - theta
    return mu, t, float(np.linalg.norm(residual) / np.linalg.norm(theta))


class TestSplit:
    def test_identity_columns(self):
        model = MeasurementModel(np.eye(2, dtype=complex), np.full(2, 0.5), 1.0,
                                 np.array([1.0, 2.0]))
        scheme = build_rank1_split(model)
        assert np.allclose(scheme.b[0], [1.0, 0.0])
        assert np.allclose(scheme.b[1], [0.0, 2.0])
        assert np.allclose(scheme.lambda_c, 2.0)
        dense = np.einsum("qi,qj->qij", scheme.factors, scheme.factors.conj())
        assert np.allclose(dense[0], np.diag([1.0, 0.0]))

    def test_mean_split_identity(self, rng):
        model = random_model(rng, 10, 6)
        scheme = build_rank1_split(model)
        theta = (model.A.conj().T @ model.y) / model.sigma2
        assert np.abs(scheme.beta @ scheme.factors - theta).max() <= 1e-12 * np.abs(theta).max()

    def test_refuses_a_model_without_y(self, rng):
        # the split has one piece per sample of y; A^H y alone does not give them
        model = random_model(rng, 10, 6)
        stat = MeasurementModel(model.A, model.d, model.sigma2, ahy=model.ahy)
        with pytest.raises(DomainError, match="needs a dense A and y"):
            build_rank1_split(stat)

    def test_precision_split_identity(self, rng):
        model = random_model(rng, 10, 6)
        scheme = build_rank1_split(model)
        dense = scheme.precision()
        target = (model.A.conj().T @ model.A) / model.sigma2 + np.diag(1.0 / model.d)
        assert np.abs(dense - target).max() <= 1e-12 * np.abs(target).max()

    def test_precision_pattern_shape(self, split_case):
        model, shared = split_case
        scheme = build_rank1_split(model)
        q, n = model.m, model.n
        assert scheme.abs2.shape == ((1, n) if shared else (q, n))
        assert initial_state(scheme).Lam_q.shape == scheme.abs2.shape
        full = np.abs(scheme.factors) ** 2
        assert np.abs(np.broadcast_to(scheme.abs2, (q, n)) - full).max() <= 1e-12 * full.max()

    def test_requires_exactly_one_quadratic_form(self):
        with pytest.raises(TypeError):
            SplitScheme(beta=np.zeros(2), lambda_c=np.ones(3))


class TestProjection:
    def test_zero_piece_projects_to_itself(self, rng):
        n = 5
        scheme = SplitScheme(beta=np.zeros(1), lambda_c=np.ones(n),
                             factors=np.zeros((1, n)))
        state = AuxiliaryState(
            lam_q=(rng.standard_normal((1, n)) + 1j * rng.standard_normal((1, n))),
            Lam_q=rng.uniform(0.5, 2.0, (1, n)),
            lam0=np.zeros((1, n)), Lam0=np.zeros((1, n)), lc=scheme.lambda_c[None])
        xi, Xi = project_all(scheme, state)
        assert np.abs(xi).max() <= 1e-13
        assert np.abs(Xi).max() <= 1e-13

    @staticmethod
    def check_against_dense_projection(rng, scheme):
        """Per-piece beliefs at a random state against the dense m-projection."""
        q_count, n = scheme.q_count, scheme.dim
        state = AuxiliaryState(
            lam_q=0.1 * (rng.standard_normal((q_count, n)) + 1j * rng.standard_normal((q_count, n))),
            Lam_q=rng.uniform(0.1, 1.0, scheme.abs2.shape),
            lam0=np.zeros((1, n)), Lam0=np.zeros((1, n)), lc=scheme.lambda_c[None])
        xi_all, Xi_all = project_all(scheme, state)
        assert Xi_all.shape == scheme.abs2.shape
        Lam_q = np.broadcast_to(state.Lam_q, (q_count, n))
        Xi_all = np.broadcast_to(Xi_all, (q_count, n))
        for q in (0, 5, q_count - 1):
            g = scheme.factors[q]
            P = np.outer(g, g.conj()) + np.diag((Lam_q[q] + scheme.lambda_c).astype(complex))
            proj = m_project_to_diag(GaussianNatural(state.lam_q[q] + scheme.b[q], -P))
            assert np.abs((proj.lam - state.lam_q[q]) - xi_all[q]).max() <= 1e-10
            assert np.abs((proj.Lam - scheme.lambda_c - Lam_q[q]) - Xi_all[q]).max() <= 1e-10

    def test_rank1_matches_dense_gaussian_projection(self, rng):
        scheme = build_rank1_split(random_model(rng, 12, 8))
        assert scheme.abs2.shape == (12, 8)
        self.check_against_dense_projection(rng, scheme)

    @pytest.mark.parametrize("split_case", ["unit_modulus", "bscm"], indirect=True)
    def test_shared_row_matches_dense_gaussian_projection(self, rng, split_case):
        model, _ = split_case
        self.check_against_dense_projection(rng, build_rank1_split(model))

    def test_positivity_guard(self):
        scheme = SplitScheme(beta=np.zeros(1), lambda_c=np.zeros(2),
                             factors=np.zeros((1, 2)))
        state = initial_state(scheme)
        with pytest.raises(DomainError):
            project_all(scheme, state)


class TestUpdate:
    def test_undamped_sums(self):
        state = AuxiliaryState(lam_q=np.zeros((2, 1), dtype=complex),
                               Lam_q=np.zeros((2, 1)),
                               lam0=np.zeros(1, dtype=complex), Lam0=np.zeros(1),
                               lc=np.ones(1))
        xi = np.array([[1.0], [2.0]], dtype=complex)
        Xi = np.array([[1.0], [1.0]])
        new = update_points(state, xi, Xi, alpha=1.0)
        assert new.lam0[0] == 3.0 and new.Lam0[0] == 2.0
        assert new.lam_q[0, 0] == 2.0 and new.lam_q[1, 0] == 1.0

    @pytest.mark.parametrize("alpha,tol", [(1.0, 1e-12), (0.5, 1e-10)])
    def test_e_condition_preserved(self, rng, alpha, tol):
        self.check_e_condition(rng, random_model(rng, 10, 6), alpha, tol)

    @pytest.mark.parametrize("alpha,tol", [(1.0, 1e-12), (0.5, 1e-10)])
    def test_e_condition_preserved_on_shared_row(self, rng, alpha, tol):
        self.check_e_condition(rng, unit_modulus_model(rng, 10, 6), alpha, tol)

    @staticmethod
    def check_e_condition(rng, model, alpha, tol):
        scheme = build_rank1_split(model)
        state = initial_state(scheme)
        for _ in range(5):
            xi, Xi = project_all(scheme, state)
            state = update_points(state, xi, Xi, alpha)
            assert state.Lam_q.shape == scheme.abs2.shape
            assert state.e_condition_residual() <= tol

    def test_alpha_out_of_range(self):
        state = AuxiliaryState(lam_q=np.zeros((1, 1), dtype=complex),
                               Lam_q=np.zeros((1, 1)),
                               lam0=np.zeros(1, dtype=complex), Lam0=np.zeros(1),
                               lc=np.ones(1))
        with pytest.raises(DomainError):
            update_points(state, np.zeros((1, 1)), np.zeros((1, 1)), alpha=0.0)


class TestGramStep:
    @pytest.mark.parametrize("case", ["desk", "desk_operator", "unit_modulus"])
    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_matches_project_and_update(self, request, rng, case, alpha):
        # the same states as the reference pair, step by step, with every
        # lambda_q rebuilt as u + g_q * (Psi_q X).  A dense model's step reads
        # the scheme's abs2 row, so the precisions take the same arithmetic
        # and agree exactly; the operator's row is 1 / sigma2, the dense row
        # to round-off
        if case == "unit_modulus":
            model = dense = unit_modulus_model(rng, 12, 8)
        else:
            model, dense = (request.getfixturevalue(f"{case}_case"),
                            request.getfixturevalue("desk_case"))
        scheme = build_rank1_split(dense)
        assert scheme.abs2.shape == (1, scheme.dim)
        exact = model.is_dense
        batch = ModelBatch([model])
        point, step = IGA.start(batch, alpha)
        psi = np.column_stack([scheme.beta, scheme.factors.conj()])
        ref = initial_state(scheme)
        for _ in range(5):
            xi, Xi = project_all(scheme, ref)
            ref = update_points(ref, xi, Xi, alpha)
            point = step(batch, point, None)
            assert point.X.shape == (1, scheme.dim + 1, scheme.dim)
            lam_q = point.u[0] + scheme.factors * (psi @ point.X[0])
            # the reference target is a (1, N) row, as the point's is
            for got, want in ((lam_q, ref.lam_q), (point.lam0, ref.lam0)):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            for got, want in ((point.Lam_q, ref.Lam_q), (point.Lam0, ref.Lam0)):
                if exact:
                    assert np.array_equal(got, want)
                else:
                    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_operator_row_is_unit_modulus(self, desk_operator_case):
        # IGA reads a BscmScenario's |A|^2 rows as 1 / sigma2 without
        # forming A: every assembled entry has modulus 1
        scn = desk_operator_case.A
        A = assemble_dense_A(scn.array, scn.ofdm, scn.plan, scn.extraction)
        assert np.abs(np.abs(A) ** 2 - 1.0).max() <= 1e-12
        dense = MeasurementModel(A, desk_operator_case.d, desk_operator_case.sigma2,
                                 desk_operator_case.y)
        abs2 = build_rank1_split(dense).abs2
        assert abs2.shape == (1, A.shape[1])
        assert np.abs(abs2 * dense.sigma2 - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("alpha,t_max,tol", [(0.5, 1000, 1e-8), (0.05, 500, 1e-10)])
    def test_operator_run_matches_dense_run(self, desk_case, desk_operator_case,
                                            alpha, t_max, tol):
        (rep,) = run_algorithm("iga", [desk_operator_case], alpha=alpha, t_max=t_max, tol=tol)
        (ref,) = run_algorithm("iga", [desk_case], alpha=alpha, t_max=t_max, tol=tol)
        assert rep.iterations == ref.iterations
        assert np.linalg.norm(rep.mu - ref.mu) <= 1e-12 * np.linalg.norm(ref.mu)
        assert np.abs(rep.variances - ref.variances).max() <= 1e-12 * ref.variances.max()

    def test_default_scenario_forms_no_dense_A(self, monkeypatch):
        # at the default scenario (Q = 15360, N = 144) a (Q, N) complex array
        # is 35 MB; the run reads only the model's A^H A and A^H y
        def refuse(*args, **kwargs):
            raise AssertionError("dense A assembled")

        monkeypatch.setattr(bscm, "assemble_dense_A", refuse)
        cfg = ScenarioConfig()
        model = build_trial(geometry_from_config(cfg), cfg, cfg.seed, 10.0, stream=(0, 0)).model
        assert not model.is_dense
        model.gram()
        tracemalloc.start()
        try:
            (rep,) = run_algorithm("iga", [model], t_max=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.iterations == 5
        assert peak < 10e6

    def test_refuses_operator_without_unit_modulus_entries(self, rng):
        # an operator's |A|^2 rows are read as 1 / sigma2, so one whose
        # columns are not of norm^2 M is refused
        dense = random_model(rng, 12, 8)

        class Operator:
            shape = dense.A.shape
            matvec, rmatvec = dense.A.__matmul__, dense.A.conj().T.__matmul__

            def gram_diag(self):
                return np.real(np.diag(self.gram()))

            def gram(self):
                return dense.A.conj().T @ dense.A

        model = MeasurementModel(Operator(), dense.d, dense.sigma2, dense.y)
        with pytest.raises(DomainError, match="unit-modulus"):
            run_algorithm("iga", [model], t_max=5)

    def test_refused_above_cap(self, tiny_scenario, rng, monkeypatch):
        scn = tiny_scenario
        monkeypatch.setattr(bscm, "DENSE_ENTRY_CAP", scn.shape[1] ** 2 - 1)
        model = MeasurementModel(scn, rng.uniform(0.5, 2.0, scn.shape[1]), 1.0,
                                 random_y(rng, scn.shape[0]))
        with pytest.raises(DomainError, match="DENSE_ENTRY_CAP"):
            run_algorithm("iga", [model], t_max=5)


class TestRun:
    def test_identity_model(self):
        model = MeasurementModel(np.eye(2, dtype=complex), np.ones(2), 1.0, np.array([2.0, 4.0]))
        (rep,) = run_algorithm("iga", [model], alpha=1.0)
        assert np.abs(rep.mu - np.array([1.0, 2.0])).max() <= 1e-12
        assert rep.converged

    def test_decoupled_orthogonal_columns_fast_convergence(self, rng):
        # disjoint column supports decouple the auxiliaries completely
        model = orthogonal_disjoint_model(rng)
        mu_mmse, _ = mmse_estimate(model)
        (rep,) = run_algorithm("iga", [model], alpha=1.0, t_max=10, tol=1e-12)
        assert rep.iterations <= 3
        assert rep.residual_trace[-1] <= 1e-10
        assert np.linalg.norm(rep.mu - mu_mmse) / np.linalg.norm(mu_mmse) <= 1e-10

    def test_random_instance_reaches_mmse(self, rng):
        model = random_model(rng, 16, 8)
        mu_mmse, _ = mmse_estimate(model)
        (rep,) = run_algorithm("iga", [model], alpha=0.05, t_max=5000, tol=1e-11)
        assert rep.converged
        assert np.linalg.norm(rep.mu - mu_mmse) / np.linalg.norm(mu_mmse) <= 1e-6
        assert len(rep.residual_trace) == rep.iterations + 1
        assert rep.variances is not None and np.all(rep.variances > 0)

    def test_m_condition_at_convergence(self, rng):
        # all projections coincide with the target point at the fixed point;
        # with damping alpha the distance to the fixed point is about
        # (per-iteration change) / alpha, so stop on the adjusted change
        model = random_model(rng, 12, 6)
        scheme = build_rank1_split(model)
        state = initial_state(scheme)
        alpha, tol = 0.05, 1e-11
        for _ in range(30000):
            xi, Xi = project_all(scheme, state)
            new = update_points(state, xi, Xi, alpha)
            mu_old = state.lam0 / (state.Lam0 + scheme.lambda_c)
            mu_new = new.lam0 / (new.Lam0 + scheme.lambda_c)
            state = new
            change = np.abs(mu_new - mu_old).max() / max(np.abs(mu_new).max(), 1e-300)
            if change <= alpha * tol:
                break
        xi, Xi = project_all(scheme, state)
        m_cond = max(
            np.abs(xi - (state.lam0[None, :] - state.lam_q)).max(),
            np.abs(Xi - (state.Lam0[None, :] - state.Lam_q)).max(),
        )
        assert m_cond <= 10 * tol * max(1.0, np.abs(state.lam0).max())

    @pytest.mark.parametrize("alpha,t_max,tol", [(0.5, 1000, 1e-8), (0.05, 500, 1e-10)])
    def test_desk_trial_matches_reference_loop(self, desk_case, alpha, t_max, tol):
        scheme = build_rank1_split(desk_case)
        assert scheme.abs2.shape == (1, scheme.dim)
        (rep,) = run_algorithm("iga", [desk_case], alpha=alpha, t_max=t_max, tol=tol)
        mu_ref, iterations, residual = parent_run_iga(scheme, alpha, t_max, tol)
        assert rep.iterations == iterations
        assert np.linalg.norm(rep.mu - mu_ref) <= 1e-12 * np.linalg.norm(mu_ref)
        assert rep.residual_trace[-1] == pytest.approx(residual, rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.3, 1.0])
    def test_gaussian_model_matches_project_and_update(self, rng, alpha):
        # a Gaussian A's |A|^2 rows differ: the registry runs the reference
        # steps on (Q, N) precisions, as a hand loop of the public pair does
        model = random_model(rng, 16, 8)
        scheme = build_rank1_split(model)
        assert scheme.abs2.shape == (16, 8)
        t_max, tol = 1000, 1e-10
        (rep,) = run_algorithm("iga", [model], alpha, t_max, tol)
        state, mu = initial_state(scheme), np.zeros(scheme.dim, dtype=complex)
        for t in range(1, t_max + 1):
            xi, Xi = project_all(scheme, state)
            state = update_points(state, xi, Xi, alpha)
            mu_new = state.lam0 / (state.Lam0 + scheme.lambda_c)
            change = np.abs(mu_new - mu).max() / np.abs(mu_new).max()
            mu = mu_new
            if change < tol:
                break
        assert rep.converged and rep.iterations == t
        assert np.abs(rep.mu - mu).max() <= 1e-12 * np.abs(mu).max()
        assert np.abs(rep.variances - 1.0 / (state.Lam0 + scheme.lambda_c)).max() <= 1e-12

    def test_gaussian_models_run_one_at_a_time(self, rng):
        # the reference steps hold one model's (Q, N) precisions
        models = [random_model(rng, 12, 8), random_model(rng, 12, 8)]
        with pytest.raises(DomainError, match="one model at a time"):
            run_algorithm("iga", models)

    @pytest.mark.parametrize("unit_modulus", [False, True], ids=["gaussian", "unit_modulus"])
    def test_a_dense_run_builds_its_split_once(self, rng, monkeypatch, unit_modulus):
        # one split gives a dense model's precision row and, where its rows
        # differ, the reference steps
        model = random_model(rng, 12, 8)
        if unit_modulus:
            phases = np.exp(2j * np.pi * rng.random((12, 8)))
            model = MeasurementModel(phases, model.d, model.sigma2, model.y)
        calls = []
        monkeypatch.setattr(iga, "build_rank1_split",
                            lambda m: calls.append(m) or build_rank1_split(m))
        (rep,) = run_algorithm("iga", [model], t_max=3)
        assert rep.iterations == 3
        assert len(calls) == 1

    def test_t_max_zero_returns_initialization(self, rng):
        (rep,) = run_algorithm("iga", [random_model(rng, 6, 4)], alpha=0.1, t_max=0)
        assert rep.iterations == 0 and not rep.converged
        assert np.all(rep.mu == 0)
        assert len(rep.residual_trace) == 1

    def test_divergence_detected(self):
        # three identical columns with a huge prior: undamped updates blow up
        A = np.ones((4, 3), dtype=complex)
        model = MeasurementModel(A, np.full(3, 100.0), 0.01, np.ones(4, dtype=complex))
        (rep,) = run_algorithm("iga", [model], alpha=1.0, t_max=300)
        assert rep.stop == "diverged"
        trace = rep.residual_trace
        assert trace[-1] > DIVERGENCE_FACTOR * min(trace[:-1])

    def test_plateau_is_not_divergence(self):
        # validate's unit-modulus case at sigma2 = 0.5: the residual stalls
        # and rises for dozens of consecutive steps, then converges
        rng = np.random.default_rng(107)
        _rand_model(rng, 24, 12)
        phases = np.exp(2j * np.pi * rng.random((24, 12)))
        model = MeasurementModel(phases, rng.uniform(0.2, 3.0, 12), 0.5, _rand_y(rng, 24))
        (rep,) = run_algorithm("iga", [model], alpha=0.05, t_max=5000, tol=1e-11)
        rises = longest = 0
        for before, after in zip(rep.residual_trace, rep.residual_trace[1:]):
            rises = rises + 1 if after > before else 0
            longest = max(longest, rises)
        assert longest >= 20
        assert rep.converged
        mu_mmse, _ = mmse_estimate(model)
        assert np.linalg.norm(rep.mu - mu_mmse) <= 1e-6 * np.linalg.norm(mu_mmse)

import dataclasses

import numpy as np
import pytest

from igachan.bscm import assemble_dense_A
from igachan.errors import DomainError
from igachan.estimators import (
    MeasurementModel,
    ModelBatch,
    build_modified_form,
    mmse_estimate,
    modified_mmse_estimate,
)

from conftest import random_model, random_y


class TestMmse:
    def test_identity_model(self):
        model = MeasurementModel(np.eye(2, dtype=complex), np.ones(2), 1.0, np.array([2.0, 4.0]))
        mu, Sigma = mmse_estimate(model)
        assert np.allclose(mu, [1.0, 2.0], atol=1e-14)
        assert np.allclose(Sigma, 0.5 * np.eye(2), atol=1e-14)

    def test_scalar(self):
        model = MeasurementModel(np.array([[1.0]]), np.array([2.0]), 1.0, np.array([3.0]))
        mu, _ = mmse_estimate(model)
        assert abs(mu[0] - 2.0) < 1e-14

    def test_normal_equation_residual(self, rng):
        model = random_model(rng, 12, 8)
        mu, _ = mmse_estimate(model)
        s = 1.0 / model.sigma2
        B = s * (model.A.conj().T @ model.A) + np.diag(1.0 / model.d)
        rhs = s * (model.A.conj().T @ model.y)
        assert np.linalg.norm(B @ mu - rhs) / np.linalg.norm(rhs) <= 1e-12

    def test_posterior_never_exceeds_prior_variance(self, rng):
        model = random_model(rng, 16, 10)
        _, Sigma = mmse_estimate(model)
        assert np.abs(Sigma - Sigma.conj().T).max() <= 1e-14
        assert np.all(np.linalg.eigvalsh(Sigma) > 0)
        assert np.all(np.real(np.diag(Sigma)) <= model.d + 1e-12)

    def test_scale_covariance(self, rng):
        model = random_model(rng, 10, 6)
        alpha = 0.7 - 1.3j
        mu1, _ = mmse_estimate(model)
        assert np.all(model.c > 0)  # builds A^H A, diag(A^H A) and c
        scaled = dataclasses.replace(model, y=alpha * model.y)
        # a replaced model starts with none of the products built
        assert not {"_gram", "gram_diag", "c"} & set(vars(scaled))
        mu2, _ = mmse_estimate(scaled)
        assert np.abs(mu2 - alpha * mu1).max() <= 1e-13 * np.abs(mu1).max()

    def test_dimension_mismatch(self, rng):
        model = random_model(rng, 10, 6)
        # a wrong-length y is refused when the model is built
        with pytest.raises(DomainError):
            dataclasses.replace(model, y=np.zeros(7))

    def test_model_validation(self):
        with pytest.raises(DomainError):
            MeasurementModel(np.eye(2), np.array([1.0, -1.0]), 1.0, np.zeros(2))
        with pytest.raises(DomainError):
            MeasurementModel(np.eye(2), np.ones(2), 0.0, np.zeros(2))
        with pytest.raises(DomainError):
            MeasurementModel(np.eye(2), np.ones(3), 1.0, np.zeros(2))

    def test_model_from_the_statistic(self, rng):
        # given A^H y alone, a model holds no y and estimates as the model of y
        model = random_model(rng, 10, 6)
        stat = MeasurementModel(model.A, model.d, model.sigma2, ahy=model.ahy)
        assert stat.y is None and np.array_equal(stat.ahy, model.ahy)
        assert np.array_equal(mmse_estimate(stat)[0], mmse_estimate(model)[0])
        assert np.array_equal(dataclasses.replace(stat, sigma2=0.3).ahy, model.ahy)
        # given y, a passed A^H y is formed anew from it
        doubled = dataclasses.replace(model, y=2.0 * model.y)
        assert np.array_equal(doubled.ahy, MeasurementModel(model.A, model.d, model.sigma2,
                                                            2.0 * model.y).ahy)
        with pytest.raises(DomainError, match="needs y or A\\^H y"):
            MeasurementModel(model.A, model.d, model.sigma2)
        with pytest.raises(DomainError, match="ahy has length"):
            MeasurementModel(model.A, model.d, model.sigma2, ahy=np.zeros(7))

    def test_exact_estimators_match_on_scenario_model(self, tiny_scenario, rng):
        # the scenario model supplies the closed-form Gram matrix and FFT A^H y;
        # both estimators must agree with the assembled dense A
        scn = tiny_scenario
        A = assemble_dense_A(scn.array, scn.ofdm, scn.plan, scn.extraction)
        d = rng.uniform(0.5, 2.0, A.shape[1])
        y = random_y(rng, A.shape[0])
        dense, op = MeasurementModel(A, d, 0.7, y), MeasurementModel(scn, d, 0.7, y)

        def rel(a, b):
            return np.abs(a - b).max() / np.abs(b).max()

        assert rel(op.ahy, dense.ahy) <= 1e-12
        mu_d, Sigma_d = mmse_estimate(dense)
        mu_o, Sigma_o = mmse_estimate(op)
        assert rel(mu_o, mu_d) <= 1e-12 and rel(Sigma_o, Sigma_d) <= 1e-12
        form_d, form_o = build_modified_form(dense), build_modified_form(op)
        assert rel(form_o.T, form_d.T) <= 1e-12
        assert rel(form_o.Upsilon, form_d.Upsilon) <= 1e-12
        assert rel(form_o.theta_mod, form_d.theta_mod) <= 1e-12
        for t_o, t_d in zip(form_o.terms, form_d.terms):
            assert rel(t_o, t_d) <= 1e-12


class TestModifiedForm:
    def test_orthogonal_columns_give_zero_T(self, rng):
        q_mat, _ = np.linalg.qr(rng.standard_normal((12, 6))
                                + 1j * rng.standard_normal((12, 6)))
        model = MeasurementModel(q_mat, np.ones(6), 1.0, np.zeros(12))
        form = build_modified_form(model)
        assert np.abs(form.T).max() <= 1e-14
        # modified system collapses to the plain normal-equation matrix
        B = form.system_matrix
        plain = model.A.conj().T @ model.A + np.eye(6)
        assert np.abs(B - plain).max() <= 1e-13

    def test_scalar_has_no_off_diagonal(self):
        model = MeasurementModel(np.array([[2.0]]), np.array([1.0]), 1.0, np.ones(1))
        form = build_modified_form(model)
        assert form.T.shape == (1, 1) and form.T[0, 0] == 0

    def test_element_wise_recomputation(self, rng):
        model = random_model(rng, 12, 8)
        form = build_modified_form(model)
        K = (model.A.conj().T @ model.A) / model.sigma2
        assert np.all(np.diag(form.T) == 0)
        for i in range(8):
            for j in range(8):
                if i != j:
                    assert abs(form.T[i, j] - K[i, j]) <= 1e-14 * abs(K[i, j])
            ups = 1.0 / (np.real(K[i, i]) + 1.0 / model.d[i])
            assert abs(form.Upsilon[i] - ups) <= 1e-14 * ups

    def test_theta_mod_requires_y(self, rng):
        # the modified right-hand side is always built, from the model's y
        model = random_model(rng, 6, 4)
        form = build_modified_form(model)
        theta = (model.A.conj().T @ model.y) / model.sigma2
        expect = theta + form.T @ (form.Upsilon * theta)
        assert np.abs(form.theta_mod - expect).max() <= 1e-13


class TestModifiedEquivalence:
    def test_identity_matches_mmse(self):
        model = MeasurementModel(np.eye(2, dtype=complex), np.ones(2), 1.0, np.array([2.0, 4.0]))
        h = modified_mmse_estimate(model)
        assert np.allclose(h, [1.0, 2.0], atol=1e-13)

    def test_scalar(self):
        model = MeasurementModel(np.array([[1.0]]), np.array([2.0]), 1.0, np.array([3.0]))
        assert abs(modified_mmse_estimate(model)[0] - 2.0) < 1e-13

    def test_exactly_singular_system_raises(self):
        # the prior precisions 1e-20 vanish next to the Gram entries, so the
        # modified system is exactly [[4, 4], [4, 4]]
        model = MeasurementModel(np.ones((2, 2)), np.array([1e20, 1e20]), 1.0,
                                 np.array([1.0, 2.0]))
        with pytest.raises(DomainError, match="numerically singular"):
            modified_mmse_estimate(model)

    def test_equivalence_on_random_instances(self, rng):
        # the rewrite must reproduce the plain posterior mean
        worst = 0.0
        for _ in range(50):
            m = int(rng.integers(2, 65))
            n = int(rng.integers(1, m + 1))
            model = random_model(rng, m, n, sigma2=float(rng.uniform(0.05, 2.0)))
            mu, _ = mmse_estimate(model)
            h = modified_mmse_estimate(model)
            worst = max(worst, np.linalg.norm(h - mu) / np.linalg.norm(mu))
        assert worst <= 1e-10


class TestResidual:
    def test_scaled_residual_equals_the_plain_formula(self, rng):
        # the residual's terms are scaled by a power of two, which is exact:
        # wherever the plain formula is finite, the two agree bit for bit
        models = [random_model(rng, 12, n, sigma2=sigma2)
                  for n, sigma2 in ((8, 1e-3), (5, 0.7), (8, 40.0), (3, 1e-9))]
        models.append(dataclasses.replace(models[0], y=1e-150 * models[0].y))
        batch = ModelBatch(models)
        mu = np.zeros((len(models), batch.width), dtype=complex)
        gram_mu = np.zeros_like(mu)
        for j, model in enumerate(models):
            mu[j, :model.n] = rng.standard_normal(model.n) + 1j * rng.standard_normal(model.n)
            gram_mu[j, :model.n] = model.gram_apply(mu[j, :model.n])
        for j, (model, res) in enumerate(zip(models, batch.residuals(mu, gram_mu))):
            n = model.n
            theta = model.ahy / model.sigma2
            plain = gram_mu[j, :n] / model.sigma2 + mu[j, :n] / model.d - theta
            assert res == np.linalg.norm(plain) / np.linalg.norm(theta)
            assert res == model.residual(mu[j, :n], gram_mu[j, :n])

    def test_zero_statistic_reads_the_plain_norm(self, rng):
        model = random_model(rng, 6, 4)
        zero = dataclasses.replace(model, y=np.zeros(6))
        mu = np.ones(4, dtype=complex)
        gram_mu = zero.gram_apply(mu)
        assert zero.residual(mu, gram_mu) == np.linalg.norm(gram_mu / zero.sigma2 + mu / zero.d)

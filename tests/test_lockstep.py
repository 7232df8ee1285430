"""Lockstep runs: every report of a batch equals the model's run alone."""

import dataclasses
import functools

import numpy as np
import pytest

from igachan import ic, iga
from igachan.harness import ESTIMATORS, build_trial, run_algorithm
from igachan.ic import IC_IGA, IC_SIGA
from igachan.report import Iterative, run

from conftest import random_model

# trial seed of the desk scenario whose extractions differ in size (n 20-24)
SEED = 7
ITERATIVE = [estimator for estimator in ESTIMATORS.values() if isinstance(estimator, Iterative)]
# each iterative estimator's one step, as its module exports it
STEPS = {"ic_iga": (ic, "ic_iga_step"), "ic_siga": (ic, "ic_siga_step"),
         "iga": (iga, "update_points")}
K = 7


@pytest.fixture(scope="module")
def desk_models(desk_config, desk_geometry):
    """Four desk trials at each of two SNRs, of mixed n."""
    models = [build_trial(desk_geometry, desk_config, SEED, snr, stream=(si, t)).model
              for si, snr in enumerate((0.0, 30.0)) for t in range(4)]
    assert len({model.n for model in models}) >= 2
    return models


def assert_same_run(rep, ref):
    assert np.array_equal(rep.mu, ref.mu)
    assert (rep.iterations, rep.converged, rep.stop) == (ref.iterations, ref.converged, ref.stop)
    np.testing.assert_allclose(rep.residual_trace, ref.residual_trace, rtol=1e-15, atol=0)
    if ref.variances is None:
        assert rep.variances is None
    else:
        assert np.array_equal(rep.variances, ref.variances)
    assert rep.divergence == ref.divergence


@pytest.mark.parametrize("alpha", [None, 0.5, 1.0])
@pytest.mark.parametrize("estimator", ITERATIVE, ids=lambda estimator: estimator.name)
def test_lockstep_equals_single_runs(desk_models, estimator, alpha):
    # rows stop at different steps, converged, at t_max or diverged, so the
    # batch is compressed several times while the others run on; the cap
    # lets IGA's slow default damping converge on some rows
    run_all = functools.partial(run, estimator, alpha=alpha, t_max=2000, tol=1e-10)
    reports = run_all(desk_models)
    assert len({rep.iterations for rep in reports}) >= 3
    for model, rep in zip(desk_models, reports):
        (ref,) = run_all([model])
        assert rep.mu.shape == (model.n,)
        assert_same_run(rep, ref)


def test_a_diverging_step_leaves_the_other_rows_unchanged(desk_models):
    # a negative L makes 1 + e <= 0 at IC-IGA's first step on that row only;
    # the step runs again on the others
    broken = dataclasses.replace(desk_models[1])
    object.__setattr__(broken, "gram_abs2", -np.ones((broken.n, broken.n)))
    models = [desk_models[0], broken, *desk_models[2:]]
    run_all = functools.partial(run, IC_IGA, t_max=300, tol=1e-10)
    reports = run_all(models)
    rep = reports[1]
    assert (rep.stop, rep.converged, rep.iterations) == ("diverged", False, 0)
    assert "1 + e_n <= 0" in rep.divergence
    assert len(rep.residual_trace) == 1
    for model, rep in zip(models, reports):
        if model is not broken:
            assert rep.stop != "diverged"
            assert_same_run(rep, run_all([model])[0])
    # alone, the run reports the same message and trace
    (alone,) = run_algorithm("ic_iga", [broken], t_max=300, tol=1e-10)
    assert alone.stop == "diverged" and alone.divergence == reports[1].divergence
    assert alone.residual_trace == reports[1].residual_trace


def test_stop_reasons_are_reported(desk_models):
    reports = run(IC_SIGA, desk_models, alpha=1.0, t_max=300, tol=1e-10)
    stops = {rep.stop for rep in reports}
    assert stops == {"converged", "diverged"}
    for rep in reports:
        assert rep.converged == (rep.stop == "converged")
        assert (rep.divergence is not None) == (rep.stop == "diverged")
        assert rep.to_dict()["stop"] == rep.stop
    short = run(IC_SIGA, desk_models, t_max=3)
    assert {rep.stop for rep in short} == {"t_max"}
    assert all(rep.iterations == 3 for rep in short)


def public_steps(name, model, k):
    """The mean and variances (or None) after ``k`` public steps of ``name``
    from its start, on one model alone; IGA takes the reference steps."""
    alpha = ESTIMATORS[name].alpha
    if name == "ic_iga":
        state = ic.initial_ic_state(model.n)
        for _ in range(k):
            state = ic.ic_iga_step(model, state, alpha)
        return state.mu, 1.0 / state.r
    if name == "ic_siga":
        mu = np.zeros(model.n, dtype=complex)
        for _ in range(k):
            mu = ic.ic_siga_step(model, mu, alpha)
        return mu, None
    scheme = iga.build_rank1_split(model)
    state = iga.initial_state(scheme)
    for _ in range(k):
        state = iga.update_points(state, *iga.project_all(scheme, state), alpha)
    return (state.lam0 / (state.Lam0 + state.lc))[0], (1.0 / (state.Lam0 + state.lc))[0]


def assert_same_point(rep, mu, variances):
    assert np.array_equal(rep.mu, mu)
    if variances is None:
        assert rep.variances is None
    else:
        assert np.array_equal(rep.variances, variances)


@pytest.mark.parametrize("name", sorted(STEPS))
def test_a_run_steps_through_the_public_step(rng, desk_models, monkeypatch, name):
    # a run of k steps calls its estimator's public step k times, once per
    # step for the whole batch: no other copy of the iteration runs.  A
    # Gaussian A's IGA runs alone, on the reference steps
    owner, attr = STEPS[name]
    step, calls = getattr(owner, attr), []
    monkeypatch.setattr(owner, attr, lambda *args: calls.append(1) or step(*args))
    models = [random_model(rng, 16, 8)] if name == "iga" else desk_models
    reports = run_algorithm(name, models, t_max=K, tol=0)
    assert [rep.iterations for rep in reports] == [K] * len(models)
    assert len(calls) == K


@pytest.mark.parametrize("name", sorted(STEPS))
def test_public_steps_equal_a_run_on_a_gaussian_model(rng, name):
    model = random_model(rng, 16, 8)
    (rep,) = run_algorithm(name, [model], t_max=K, tol=0)
    assert rep.iterations == K
    assert_same_point(rep, *public_steps(name, model, K))


@pytest.mark.parametrize("name", ["ic_iga", "ic_siga"])
def test_public_steps_equal_each_row_of_a_padded_batch(desk_models, name):
    # the batch's rows are zero-padded to the widest trial; each equals the
    # public steps on its model alone, bit for bit
    reports = run_algorithm(name, desk_models, t_max=K, tol=0)
    for model, rep in zip(desk_models, reports):
        assert rep.iterations == K
        assert_same_point(rep, *public_steps(name, model, K))

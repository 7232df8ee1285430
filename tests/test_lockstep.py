"""Lockstep runs: every report of a batch equals the model's run alone."""

import dataclasses
import functools

import numpy as np
import pytest

from igachan.harness import ESTIMATORS, build_trial, run_algorithm
from igachan.ic import IC_IGA, IC_SIGA
from igachan.report import Iterative, run

# trial seed of the desk scenario whose extractions differ in size (n 20-24)
SEED = 7
ITERATIVE = [estimator for estimator in ESTIMATORS.values() if isinstance(estimator, Iterative)]


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

"""Property tests of the beam-domain model over random small geometries:
the closed-form Gram matrix, the adjoint identity of the FFT operators, the
stack/reconstruct round trip of the users' channels, and the Gram-block
score of a trial against its space-frequency reference."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from igachan.bscm import (  # noqa: E402
    BscmScenario,
    ExtractionMap,
    ScenarioConfig,
    assemble_dense_A,
    full_extraction,
    geometry_from_config,
    largest_prime_below,
)
from igachan.harness import build_trial, nmse, reconstruct_G  # noqa: E402
from igachan.scenario import gen_power_matrices, sample_channels, stack_channels  # noqa: E402


@st.composite
def configs(draw):
    """A valid ScenarioConfig with Q up to 3 roots and fine factors 1 or 2."""
    m_p = draw(st.integers(4, 8))
    f_p = draw(st.integers(1, 2))
    m_g = draw(st.integers(1, 16))
    n_p = f_p * m_p
    n_f = -(-n_p * m_g // 64)
    p = draw(st.integers(1, n_p // n_f))
    q = draw(st.integers(1, min(3, largest_prime_below(m_p) - 1)))
    k = draw(st.integers((q - 1) * p + 1, q * p))
    return ScenarioConfig(M_z=draw(st.integers(1, 3)), M_x=draw(st.integers(1, 3)),
                          F_z=draw(st.integers(1, 2)), F_x=draw(st.integers(1, 2)),
                          N_c=64, M_p=m_p, M_g=m_g, F_p=f_p, K=k, P=p)


@st.composite
def scenarios(draw):
    """A random config's scenario with a full, half or sparse extraction map."""
    array, ofdm, plan = geometry_from_config(draw(configs()))
    n_tilde = plan.Q * ofdm.N_p * array.N_r
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keep = np.flatnonzero(rng.random(n_tilde) < draw(st.sampled_from([1.0, 0.5, 0.1])))
    if keep.size == 0:
        keep = np.array([int(rng.integers(n_tilde))])
    scn = BscmScenario(array, ofdm, plan, ExtractionMap(keep, n_tilde))
    return scn, rng


def _dense(scn):
    return assemble_dense_A(scn.array, scn.ofdm, scn.plan, scn.extraction)


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_closed_form_gram_equals_dense(case):
    scn, _ = case
    A = _dense(scn)
    G = A.conj().T @ A
    assert np.abs(scn.gram() - G).max() <= 1e-12 * np.abs(G).max()


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_adjoint_identity(case):
    scn, rng = case
    m, n = scn.shape
    s = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    lhs = np.vdot(b, scn.matvec(s))  # <A s, b>
    rhs = np.vdot(scn.rmatvec(b), s)  # <s, A^H b>
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(scn.matvec(s)) * np.linalg.norm(b)


@settings(max_examples=40, deadline=None)
@given(configs(), st.integers(0, 2**32 - 1))
def test_stack_reconstruct_round_trip(cfg, seed):
    geometry = geometry_from_config(cfg)
    scn = BscmScenario(*geometry, full_extraction(*geometry))
    channels = sample_channels(gen_power_matrices(cfg, seed), seed)
    stacked = stack_channels(channels, *geometry)
    rebuilt = reconstruct_G(stacked[scn.extraction.indices], scn)
    assert len(rebuilt) == len(channels)
    for G, ch in zip(rebuilt, channels):
        truth = scn.beam_to_space_freq(ch.H)
        assert np.abs(G - truth).max() <= 1e-12 * max(np.abs(truth).max(), 1e-300)


@settings(max_examples=40, deadline=None)
@given(configs(), st.integers(0, 2**32 - 1))
def test_gram_block_score_equals_space_frequency_nmse(cfg, seed):
    geometry = geometry_from_config(cfg)
    trial = build_trial(geometry, cfg, seed, 10.0, stream=(0, 0))
    scn = trial.model.A
    # the truth is drawn on the extraction, so its space-frequency matrices
    # are those of trial.h scattered back to the grid
    truths = reconstruct_G(trial.h, scn)
    rng = np.random.default_rng(seed)
    n = trial.model.n
    noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for mu in (np.zeros(n), trial.h + 0.1 * np.abs(trial.h).max() * noise, noise):
        ref = [nmse([gb], [g]) for gb, g in zip(reconstruct_G(mu, scn), truths)]
        assert np.allclose(trial.score(mu), ref, rtol=1e-12, atol=0.0)


@settings(max_examples=40, deadline=None)
@given(configs(), st.integers(0, 2**32 - 1))
def test_user_blocks_are_diagonal_blocks_of_the_gram(cfg, seed):
    trial = build_trial(geometry_from_config(cfg), cfg, seed, 10.0, stream=(0, 0))
    G = trial.model.A.gram()
    for s, W, _ in trial.users:
        assert W.shape == G[s, s].shape and W.tobytes() == G[s, s].tobytes()

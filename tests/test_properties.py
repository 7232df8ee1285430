"""Property tests of the beam-domain model over random small geometries:
the closed-form Gram matrix, the adjoint identity of the FFT operators, and
the stack/reconstruct round trip of the users' channels."""

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
from igachan.harness import reconstruct_G  # noqa: E402
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

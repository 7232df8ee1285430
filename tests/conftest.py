import numpy as np
import pytest

from igachan.bscm import (
    ArrayConfig,
    BscmScenario,
    OfdmConfig,
    PilotPlan,
    ScenarioConfig,
    full_extraction,
    geometry_from_config,
)
from igachan.estimators import MeasurementModel


def random_model(rng, m, n, sigma2=0.5, d_range=(0.2, 3.0)):
    """Random dense measurement model with O(1) column norms; y is drawn last."""
    A = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2 * m)
    d = rng.uniform(*d_range, n)
    return MeasurementModel(A, d, sigma2, random_y(rng, m))


def random_y(rng, m):
    return rng.standard_normal(m) + 1j * rng.standard_normal(m)


def random_spd_natural(rng, n, shift=None):
    """Random valid natural parameters (theta, Theta) with -Theta HPD."""
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    prec = B @ B.conj().T + (shift if shift is not None else n) * np.eye(n)
    theta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return theta, -prec


@pytest.fixture
def corrupt_e_diagonal(monkeypatch):
    """Drop the diagonal-exclusion term of e_n (models at or below the cap),
    to show that the belief-oracle comparison is sensitive to it."""
    from igachan import ic

    monkeypatch.setattr(ic, "_interference_energy",
                        lambda model, v: model.abs2_apply(v) / (model.sigma2**2 * model.c))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture(scope="session")
def tiny_scenario():
    """M_z = M_x = 2, M_p = 8, F = 2, two roots, full extraction."""
    array = ArrayConfig(M_z=2, M_x=2, F_z=2, F_x=2)
    ofdm = OfdmConfig(N_c=64, delta_f_hz=30e3, M_p=8, M_g=8, F_p=2)
    plan = PilotPlan(K=4, P=2, M_p=ofdm.M_p, N_p=ofdm.N_p, N_f=ofdm.N_f)
    extraction = full_extraction(array, ofdm, plan)
    return BscmScenario(array, ofdm, plan, extraction)


@pytest.fixture(scope="session")
def desk_config():
    """The small end-to-end benchmark scenario."""
    return ScenarioConfig(M_z=4, M_x=4, F_z=2, F_x=2, N_c=2048, delta_f_hz=30e3,
                          M_p=24, M_g=144, F_p=2, K=4, P=4, seed=20260810)


@pytest.fixture(scope="session")
def desk_geometry(desk_config):
    return geometry_from_config(desk_config)

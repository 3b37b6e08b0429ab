import numpy as np
import pytest

from preforge.mespec import load_catalog
from preforge.model import MasterEquation, vectorize


@pytest.fixture(scope="session")
def rf_me():
    return load_catalog("resonance_fluorescence", {"gamma": 1.0, "Omega": 0.18})


@pytest.fixture(scope="session")
def rf_bm(rf_me):
    return vectorize(rf_me)


@pytest.fixture(scope="session")
def rf_me_fast():
    """Complex-eigenvalue regime (gamma^2 < 16 Omega^2)."""
    return load_catalog("resonance_fluorescence", {"gamma": 1.0, "Omega": 0.5})


@pytest.fixture(scope="session")
def rf_bm_fast(rf_me_fast):
    return vectorize(rf_me_fast)


@pytest.fixture(scope="session")
def ae_me():
    return load_catalog("absorption_emission", {"gamma_minus": 1.0, "gamma_plus": 0.3})


@pytest.fixture(scope="session")
def ae_bm(ae_me):
    return vectorize(ae_me)


@pytest.fixture(scope="session")
def cascade_d3_me():
    """Driven three-level cascade: decay 0 -> 1 -> 2 -> 0, drive between levels 1 and 2."""
    h = np.zeros((3, 3))
    h[1, 2] = h[2, 1] = 0.2
    jumps = np.zeros((3, 3, 3))
    jumps[0, 1, 0], jumps[1, 2, 1], jumps[2, 0, 2] = 1.0, 0.6, 0.3
    return MasterEquation(3, h, list(jumps))


@pytest.fixture(scope="session")
def cascade_d3_bm(cascade_d3_me):
    return vectorize(cascade_d3_me)


@pytest.fixture(scope="session")
def pump_d3_me():
    """Three-level cyclic pumping: c1 = |0><1|, c2 = |1><2|, c3 = |2><0| at rates
    1, 0.6, 0.3 and H = diag(0, 0.3, 0.7); the basis kets form a PRE."""
    jumps = np.zeros((3, 3, 3))
    jumps[0, 0, 1], jumps[1, 1, 2], jumps[2, 2, 0] = 1.0, np.sqrt(0.6), np.sqrt(0.3)
    return MasterEquation(3, np.diag([0.0, 0.3, 0.7]), list(jumps))


@pytest.fixture(scope="session")
def cascade_d4_me():
    """Driven four-level cascade: decay 0 -> 1 -> 2 -> 3 -> 0, drives on 1-2 and 2-3."""
    h = np.zeros((4, 4))
    h[1, 2] = h[2, 1] = 0.2
    h[2, 3] = h[3, 2] = 0.15
    jumps = np.zeros((4, 4, 4))
    jumps[0, 1, 0], jumps[1, 2, 1], jumps[2, 3, 2], jumps[3, 0, 3] = 1.0, 0.6, 0.45, 0.3
    return MasterEquation(4, h, list(jumps))


@pytest.fixture(scope="session")
def cascade_d4_bm(cascade_d4_me):
    return vectorize(cascade_d4_me)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)

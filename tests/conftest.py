import numpy as np
import pytest

from grainflow import GridSpec

from grainflow_testkit import model_for


@pytest.fixture(scope="session")
def g1_model():
    return model_for("g1")


@pytest.fixture(scope="session")
def g2_model():
    return model_for("g2")


@pytest.fixture(scope="session")
def g3_model():
    return model_for("g3")


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)


@pytest.fixture(scope="session")
def grid_1d():
    return GridSpec(1, (64,), 1.0)


@pytest.fixture(scope="session")
def grid_2d():
    return GridSpec(2, (16, 16), 1.0)

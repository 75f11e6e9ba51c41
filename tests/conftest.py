import numpy as np
import pytest

from grainflow import (
    GridSpec,
    MobilityKind,
    MobilitySpec,
    ModelSpec,
    Potential,
    PotentialSpec,
)


def model_for(setting: str, mobility: str = None) -> ModelSpec:
    """Benchmark models: g1/g3 pair with safeguarded Kobayashi mobilities,
    g2 with constant mobilities (the Kobayashi pairing violates the corner
    sign conditions once o* > 0, which g2 forces)."""
    if setting == "g1":
        pot = PotentialSpec(Potential.POLYNOMIAL)
    elif setting == "g2":
        pot = PotentialSpec(Potential.LOGARITHMIC, o_star=0.05, iota_star=0.95)
    elif setting == "g3":
        pot = PotentialSpec(Potential.INDICATOR)
    else:
        raise ValueError(setting)
    if mobility is None:
        mobility = "constant" if setting == "g2" else "kobayashi"
    if mobility == "kobayashi":
        mob = MobilitySpec(MobilityKind.KOBAYASHI, kappa=1e-2)
    else:
        mob = MobilitySpec(MobilityKind.CONSTANT, a0=1.0, a=1.0, b=1.0)
    return ModelSpec(pot, mob)


class RecordingSink:
    """A scheme.run sink that keeps the step of every on_step call and a copy
    of every (step, state) that on_snapshot receives, in call order."""

    def __init__(self):
        self.steps = []
        self.snapshots = []

    def on_step(self, report, energy):
        self.steps.append(report.step)

    def on_snapshot(self, step, state):
        self.snapshots.append((step, state.copy()))


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

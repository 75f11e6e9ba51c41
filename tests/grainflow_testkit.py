"""Models, mobility gradients and a recording sink shared by the test modules.

A module of its own, not conftest.py: perfbench/tests has a conftest.py
too, and in a pytest run that collects both directories ``import conftest``
can find that one.
"""

import numpy as np

from grainflow import MobilityKind, MobilitySpec, ModelSpec, Potential, PotentialSpec


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


def mobility_gradients(spec: MobilitySpec, w, eta):
    """(grad alpha, grad beta) at (w, eta), each a (d/dw, d/deta) pair of
    arrays, from MobilitySpec.add_gradient_terms: q1 = 1 adds grad alpha
    and q2 = 1 adds grad beta."""
    shape = np.broadcast(w, eta).shape
    grads = []
    for q1, q2 in ((1.0, None), (0.0, 1.0)):
        gw, ge = np.zeros(shape), np.zeros(shape)
        spec.add_gradient_terms(q1, q2, w, eta, gw, ge, np.empty(shape))
        grads.append((gw, ge))
    return tuple(grads)


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

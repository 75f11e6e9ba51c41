"""Discrete free energy of the coupled system and its itemized breakdown.

The total is

    F_nu(w, eta, theta) = (1/2)|grad w|^2 + (1/2)|grad eta|^2
                        + int gamma(w) + int g(w, eta; u)
                        + int alpha(w, eta) |grad theta|
                        + nu int beta(w, eta) |grad theta|^2

with every integral a cell sum times dx**dim.  The gamma term is +inf when
any cell leaves the effective domain (the breakdown stores the infinity
rather than raising; the scheme may probe infeasible trial states).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import PhaseState, ScalarField, dirichlet_energy, stencil
from .model import ModelSpec, gamma_eval

__all__ = ["EnergyBreakdown", "free_energy", "phi_nu"]


@dataclass(frozen=True)
class EnergyBreakdown:
    """Itemized free energy; total is the sum of the five terms."""

    dirichlet_v: float
    gamma_term: float
    g_term: float
    wtv_term: float
    nu_dirichlet_term: float

    @property
    def total(self) -> float:
        return (
            self.dirichlet_v
            + self.gamma_term
            + self.g_term
            + self.wtv_term
            + self.nu_dirichlet_term
        )

    @property
    def finite(self) -> bool:
        return np.isfinite(self.total)


def _phi_terms(w: np.ndarray, eta: np.ndarray, theta: np.ndarray, model: ModelSpec,
               nu: float, dx: float, dim: int):
    _, a, b = model.mobilities(w, eta)
    sq = stencil(theta.shape, dx).sq_grad(theta)
    vol = dx**dim
    wtv = float(np.sum(a * np.sqrt(sq))) * vol
    nu_dir = nu * float(np.sum(b * sq)) * vol if nu != 0.0 else 0.0
    return wtv, nu_dir


def free_energy(state: PhaseState, model: ModelSpec, nu: float) -> EnergyBreakdown:
    """Full breakdown of F_nu at a state; +inf propagates through gamma_term."""
    grid = state.grid
    vol = grid.cell_volume
    w, eta, theta = state.w.values, state.eta.values, state.theta.values

    dir_v = dirichlet_energy(state.w) + dirichlet_energy(state.eta)
    gam = gamma_eval(model.potential, w)
    gamma_term = float(np.sum(gam)) * vol if np.all(np.isfinite(gam)) else np.inf
    g_term = float(np.sum(model.g(w, eta))) * vol
    wtv, nu_dir = _phi_terms(w, eta, theta, model, nu, grid.dx, grid.dim)
    return EnergyBreakdown(dir_v, gamma_term, g_term, wtv, nu_dir)


def phi_nu(v, theta: ScalarField, model: ModelSpec, nu: float) -> float:
    """The theta-coupling energy Phi_nu(v; theta) =
    int alpha(v)|grad theta| + nu int beta(v)|grad theta|^2.

    At nu = 0 this is the pure weighted total variation.
    """
    w, eta = v
    wtv, nu_dir = _phi_terms(
        w.values, eta.values, theta.values, model, nu, theta.grid.dx, theta.grid.dim
    )
    return wtv + nu_dir

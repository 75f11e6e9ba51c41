import math

import numpy as np
import pytest

from grainflow import (
    GridSpec,
    MobilityKind,
    MobilitySpec,
    ModelSpec,
    PhaseState,
    Potential,
    PotentialSpec,
    ScalarField,
    free_energy,
    phi_nu,
)
from grainflow.verify import random_admissible_v, random_smooth_field

from slice_reference import grad_slices, tv_slices


def constant_state(grid, w, e, th):
    return PhaseState(
        ScalarField(grid, np.full(grid.shape, w)),
        ScalarField(grid, np.full(grid.shape, e)),
        ScalarField(grid, np.full(grid.shape, th)),
    )


def test_free_energy_vanishes_at_well_bottom(g1_model):
    grid = GridSpec(2, (8, 8), 0.5)
    bd = free_energy(constant_state(grid, 1.0, 1.0, 0.0), g1_model, nu=0.25)
    assert bd.total == 0.0
    assert bd.dirichlet_v == bd.gamma_term == bd.g_term == 0.0
    assert bd.wtv_term == bd.nu_dirichlet_term == 0.0


def test_free_energy_original_mobility_values():
    # constant (w, eta) = (1, 1), theta = [0, 1] on two cells: the quadratic
    # mobilities give alpha = beta = 1/2, so wtv = 1/2 and the nu term 1/20
    grid = GridSpec(1, (2,), 1.0)
    model = ModelSpec(
        PotentialSpec(Potential.POLYNOMIAL),
        MobilitySpec(MobilityKind.KOBAYASHI, kappa=0.0),
    )
    state = PhaseState(
        ScalarField(grid, np.ones(2)),
        ScalarField(grid, np.ones(2)),
        ScalarField(grid, np.array([0.0, 1.0])),
    )
    bd = free_energy(state, model, nu=0.1)
    assert bd.wtv_term == pytest.approx(0.5, abs=1e-15)
    assert bd.nu_dirichlet_term == pytest.approx(0.05, abs=1e-15)


def test_free_energy_indicator_infeasible_cell(g3_model):
    grid = GridSpec(1, (4,), 1.0)
    state = PhaseState(
        ScalarField(grid, np.array([0.5, 0.5, 1.5, 0.5])),
        ScalarField(grid, np.full(4, 0.5)),
        ScalarField(grid, np.zeros(4)),
    )
    bd = free_energy(state, g3_model, nu=0.1)
    assert bd.gamma_term == math.inf
    assert bd.total == math.inf
    assert not bd.finite


def test_phi_nu_reduces_to_weighted_tv():
    grid = GridSpec(1, (8,), 0.5)
    model = ModelSpec(
        PotentialSpec(Potential.POLYNOMIAL),
        MobilitySpec(MobilityKind.CONSTANT, a0=1.0, a=1.0, b=1.0),
    )
    rng = np.random.default_rng(0)
    theta = ScalarField(grid, rng.normal(size=8))
    v = (ScalarField(grid, np.full(8, 0.3)), ScalarField(grid, np.full(8, 0.7)))
    tv = tv_slices(theta.values, grid.dx)
    assert phi_nu(v, theta, model, 0.0) == pytest.approx(tv, rel=1e-14)


def test_phi_nu_difference_identity(g1_model, rng):
    grid = GridSpec(2, (8, 8), 0.5)
    for nu in (0.05, 0.3):
        v = random_admissible_v(grid, g1_model, rng)
        theta = random_smooth_field(grid, rng, 1.0)
        p0 = phi_nu(v, theta, g1_model, 0.0)
        pn = phi_nu(v, theta, g1_model, nu)
        _, _, b, _, _ = g1_model.mobilities(v[0].values, v[1].values)
        comps = grad_slices(theta.values, grid.dx)
        quad = nu * float(np.sum(b * sum(c**2 for c in comps))) * grid.cell_volume
        assert pn - p0 == pytest.approx(quad, rel=1e-12)


def test_phi_nu_sandwich(g1_model, rng):
    grid = GridSpec(2, (12, 12), 1.0)
    nu = 0.1
    d1 = g1_model.mobility.delta1
    d_up = g1_model.mobility.delta_star(1.0)
    for _ in range(30):
        v = random_admissible_v(grid, g1_model, rng, full_unit_box=True)
        theta = random_smooth_field(grid, rng, 1.0)
        comps = grad_slices(theta.values, grid.dx)
        dir_sum = float(np.sum(sum(c**2 for c in comps))) * grid.cell_volume
        p0 = phi_nu(v, theta, g1_model, 0.0)
        pn = phi_nu(v, theta, g1_model, nu)
        assert p0 + nu * d1 * dir_sum <= pn + 1e-12 * (1.0 + pn)
        assert pn <= p0 + nu * d_up * dir_sum + 1e-12 * (1.0 + pn)


def test_phi_nu_convex_in_theta(g1_model, rng):
    grid = GridSpec(1, (16,), 1.0)
    v = random_admissible_v(grid, g1_model, rng)
    for _ in range(50):
        t1 = random_smooth_field(grid, rng, 1.0)
        t2 = random_smooth_field(grid, rng, 1.0)
        mid = ScalarField(grid, 0.5 * (t1.values + t2.values))
        lhs = phi_nu(v, mid, g1_model, 0.1)
        rhs = 0.5 * (phi_nu(v, t1, g1_model, 0.1) + phi_nu(v, t2, g1_model, 0.1))
        assert lhs <= rhs + 1e-12 * (1.0 + abs(rhs))


def test_free_energy_transposition_invariant(g1_model, rng):
    grid = GridSpec(2, (10, 10), 0.5)
    v = random_admissible_v(grid, g1_model, rng)
    theta = random_smooth_field(grid, rng, 1.0)
    state = PhaseState(v[0], v[1], theta)
    state_t = PhaseState(
        ScalarField(grid, v[0].values.T.copy()),
        ScalarField(grid, v[1].values.T.copy()),
        ScalarField(grid, theta.values.T.copy()),
    )
    a = free_energy(state, g1_model, nu=0.1)
    b = free_energy(state_t, g1_model, nu=0.1)
    assert a.total == pytest.approx(b.total, rel=1e-13)
    assert a.wtv_term == pytest.approx(b.wtv_term, rel=1e-13)


def test_phi_nu_zero_weighted_tv_floor(rng):
    # with nu = 0 and alpha bounded below by delta0 the coupling energy
    # dominates delta0 times the plain total variation
    model = ModelSpec(
        PotentialSpec(Potential.POLYNOMIAL),
        MobilitySpec(MobilityKind.KOBAYASHI, kappa=0.05),
    )
    grid = GridSpec(1, (32,), 1.0)
    d0 = model.mobility.delta0
    for _ in range(20):
        v = random_admissible_v(grid, model, rng)
        theta = random_smooth_field(grid, rng, 1.0)
        assert phi_nu(v, theta, model, 0.0) >= d0 * tv_slices(theta.values, grid.dx) - 1e-12

import numpy as np
import pytest

from grainflow import (
    GridSpec,
    ScalarField,
    VStepParams,
    h_star,
    v_step,
    v_step_perturbation_bound,
)
from grainflow.energy import phi_nu
from grainflow.grid import dirichlet_energy
from grainflow.model import gamma_eval
from grainflow.verify import random_admissible_v, random_smooth_field
from grainflow import vstep
from grainflow.grid import Stencil, grad_operator_norm_bound, stencil
from grainflow.model import SolverError

from grainflow_testkit import mobility_gradients, model_for
from slice_reference import laplacian_slices


def bench_h(model):
    return 0.5 * h_star(model)


def test_stationary_well_bottom(g1_model):
    grid = GridSpec(1, (16,), 1.0)
    one = ScalarField(grid, np.ones(16))
    zero = ScalarField(grid, np.zeros(16))
    params = VStepParams(h=bench_h(g1_model))
    v_new, rep = v_step((one, one), zero, g1_model, 0.1, params)
    assert np.array_equal(v_new[0].values, np.ones(16))
    assert np.array_equal(v_new[1].values, np.ones(16))
    assert rep.outer_iters == 1
    assert rep.box_violation == 0.0


def full_objective_gradient(w, e, w_prev, e_prev, model, h, dx):
    """Gradient of the unfrozen semi-implicit objective (constant mobilities,
    polynomial gamma): (1/2h)|v - v_prev|^2 + V_D(v) + G(v)."""
    gw, ge = model.grad_g(w, e)
    return (
        (w - w_prev) / h - laplacian_slices(w, dx) + gw,
        (e - e_prev) / h - laplacian_slices(e, dx) + ge,
    )


def test_matches_unfrozen_allen_cahn_oracle(rng):
    # with constant mobilities the coupling terms are constants and the step
    # is the semi-implicit double-well step; gradient descent on the full
    # (unfrozen) objective is an independent route to the same point
    model = model_for("g1", mobility="constant")
    grid = GridSpec(1, (32,), 1.0)
    h = bench_h(model)
    w0, e0 = random_admissible_v(grid, model, rng)
    theta = random_smooth_field(grid, rng, 0.5)
    v_new, _ = v_step((w0, e0), theta, model, 0.1, VStepParams(h=h))

    w = w0.values.copy()
    e = e0.values.copy()
    lip = 1.0 / h + 4.0 / grid.dx**2 + model.c2_norm
    step = 1.0 / lip
    for _ in range(200_000):
        gw, ge = full_objective_gradient(w, e, w0.values, e0.values, model, h, grid.dx)
        w -= step * gw
        e -= step * ge
        gn = np.sqrt((np.sum(gw**2) + np.sum(ge**2)) * grid.cell_volume)
        if gn <= 1e-10:
            break
    err = np.sqrt(
        (np.sum((w - v_new[0].values) ** 2) + np.sum((e - v_new[1].values) ** 2))
        * grid.cell_volume
    )
    assert err <= 1e-7


@pytest.mark.parametrize("setting", ["g1", "g2", "g3"])
def test_contraction_ratio_bound(setting, rng):
    model = model_for(setting)
    grid = GridSpec(1, (64,), 1.0)
    h = bench_h(model)
    bound = h * model.c2_norm * (1.0 + 1e-6)
    params = VStepParams(h=h, inner_tol=1e-13 * np.sqrt(grid.volume))
    for _ in range(5):
        v0 = random_admissible_v(grid, model, rng)
        theta = random_smooth_field(grid, rng, 0.8)
        _, rep = v_step(v0, theta, model, 0.1, params)
        assert rep.final_contraction_ratio <= bound


def test_probe_beyond_gate_still_contracts_at_its_own_rate(rng):
    # h = 2 h* is outside the admissible gate; the bound for that h applies
    model = model_for("g1")
    grid = GridSpec(1, (64,), 1.0)
    h2 = 2.0 * h_star(model)
    v0 = random_admissible_v(grid, model, rng)
    theta = random_smooth_field(grid, rng, 0.8)
    params = VStepParams(h=h2, inner_tol=1e-13 * np.sqrt(grid.volume), max_outer=2000)
    _, rep = v_step(v0, theta, model, 0.1, params)
    assert rep.final_contraction_ratio <= h2 * model.c2_norm * (1.0 + 1e-6)


def test_perturbation_identical_inputs_is_zero(g1_model, rng):
    grid = GridSpec(1, (16,), 1.0)
    v0 = random_admissible_v(grid, g1_model, rng)
    theta = random_smooth_field(grid, rng, 0.5)
    params = VStepParams(h=bench_h(g1_model))
    assert v_step_perturbation_bound(v0, v0, theta, g1_model, 0.1, params) == 0.0


def test_perturbation_factor_two_bound(g1_model, rng):
    grid = GridSpec(2, (16, 16), 1.0)
    params = VStepParams(h=bench_h(g1_model))
    for _ in range(3):
        w1, e1 = random_admissible_v(grid, g1_model, rng)
        d = 1e-3 * random_smooth_field(grid, rng, 1.0).values
        w2 = ScalarField(grid, np.clip(w1.values + d, 0.0, 1.0))
        e2 = ScalarField(grid, np.clip(e1.values - d, 0.0, 1.0))
        theta = random_smooth_field(grid, rng, 0.8)
        ratio = v_step_perturbation_bound((w1, e1), (w2, e2), theta, g1_model, 0.1, params)
        assert ratio <= 2.0 + 1e-6


def test_ordered_inputs_stay_ordered(g1_model, rng):
    grid = GridSpec(1, (32,), 1.0)
    params = VStepParams(h=bench_h(g1_model))
    theta = random_smooth_field(grid, rng, 0.8)
    w_hi, e_hi = random_admissible_v(grid, g1_model, rng)
    w_lo = ScalarField(grid, np.clip(w_hi.values - 0.05, 0.0, 1.0))
    e_lo = ScalarField(grid, np.clip(e_hi.values - 0.05, 0.0, 1.0))
    va, _ = v_step((w_lo, e_lo), theta, g1_model, 0.1, params)
    vb, _ = v_step((w_hi, e_hi), theta, g1_model, 0.1, params)
    excess = max(
        float(np.maximum(va[0].values - vb[0].values, 0.0).max()),
        float(np.maximum(va[1].values - vb[1].values, 0.0).max()),
    )
    assert excess <= 1e-8


@pytest.mark.parametrize("setting", ["g1", "g2", "g3"])
def test_box_invariance(setting, rng):
    model = model_for(setting)
    grid = GridSpec(2, (12, 12), 1.0)
    params = VStepParams(h=bench_h(model))
    for nu in (0.0, 0.1):
        v0 = random_admissible_v(grid, model, rng)
        theta = random_smooth_field(grid, rng, 0.8)
        _, rep = v_step(v0, theta, model, nu, params)
        assert rep.box_violation <= 1e-9


@pytest.mark.parametrize("setting", ["g1", "g2", "g3"])
def test_per_step_energy_inequality(setting, rng):
    # the v-half of the per-step dissipation: the bracket evaluated at the
    # new state plus the increment penalty cannot exceed the old bracket
    model = model_for(setting)
    grid = GridSpec(1, (48,), 1.0)
    h = bench_h(model)
    nu = 0.1
    v0 = random_admissible_v(grid, model, rng)
    theta = random_smooth_field(grid, rng, 0.8)

    def bracket(w, e):
        gam = float(np.sum(gamma_eval(model.potential, w.values))) * grid.cell_volume
        gt = float(np.sum(model.g(w.values, e.values))) * grid.cell_volume
        dir_v = dirichlet_energy(w) + dirichlet_energy(e)
        return dir_v + gam + gt + phi_nu((w, e), theta, model, nu)

    v_new, _ = v_step(v0, theta, model, nu, VStepParams(h=h))
    dw = v_new[0].values - v0[0].values
    de = v_new[1].values - v0[1].values
    incr = 0.5 / h * float(np.sum(dw**2) + np.sum(de**2)) * grid.cell_volume
    b_prev = bracket(*v0)
    b_new = bracket(*v_new)
    assert incr + b_new <= b_prev + 1e-8 * (1.0 + abs(b_prev))


def test_deterministic_bitwise(g1_model, rng):
    grid = GridSpec(1, (32,), 1.0)
    v0 = random_admissible_v(grid, g1_model, rng)
    theta = random_smooth_field(grid, rng, 0.8)
    params = VStepParams(h=bench_h(g1_model))
    a, ra = v_step(v0, theta, g1_model, 0.1, params)
    b, rb = v_step(v0, theta, g1_model, 0.1, params)
    assert np.array_equal(a[0].values, b[0].values)
    assert np.array_equal(a[1].values, b[1].values)
    assert ra == rb


def test_solver_failure_modes(g1_model, rng, monkeypatch):
    grid = GridSpec(1, (16,), 1.0)
    v0 = random_admissible_v(grid, g1_model, rng)
    theta = random_smooth_field(grid, rng, 0.8)
    with pytest.raises(SolverError, match="^fixed-point loop did not reach .* in 1 iterations"):
        v_step(v0, theta, g1_model, 0.1, VStepParams(h=bench_h(g1_model), max_outer=1))
    where = r"^outer iteration 1: .* in 3 iterations \(last diff \d\.\d\de[-+]\d+\)$"
    monkeypatch.setattr(vstep, "_MAX_INNER", 3)
    with pytest.raises(SolverError, match=where):
        v_step(v0, theta, g1_model, 0.1, VStepParams(h=bench_h(g1_model), inner_tol=1e-300))


def test_params_validation():
    with pytest.raises(ValueError):
        VStepParams(h=0.0)
    with pytest.raises(ValueError, match="^inner_tol must be positive"):
        VStepParams(h=0.1, inner_tol=-1.0)
    # an infinite tolerance would stop every loop after one iteration
    for bad in ({"h": np.inf}, {"inner_tol": np.inf}, {"inner_tol": np.nan}):
        name = next(iter(bad))
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            VStepParams(**{"h": 0.1, **bad})
    for max_outer in (0, -3):
        with pytest.raises(ValueError, match="^max_outer must be at least 1"):
            VStepParams(h=0.1, max_outer=max_outer)


def reference_inner_prox_gradient(w, e, w_prev, e_prev, gw_frozen, ge_frozen, q1, q2,
                                  model, h, tau, stencil, vol, inner_tol, max_inner):
    """The inner loop written per field, with fresh temporaries and the
    gradients of alpha and beta taken apart in every iteration, in the float
    operations and order of the solver's."""
    inv_h = 1.0 / h
    lap = np.empty(w.shape)
    for j in range(max_inner):
        grad_a, grad_b = mobility_gradients(model.mobility, w, e)
        gw = inv_h * (w - w_prev) - stencil.laplacian(w, lap) + gw_frozen + q1 * grad_a[0]
        ge = inv_h * (e - e_prev) - stencil.laplacian(e, lap) + ge_frozen + q1 * grad_a[1]
        if q2 is not None:
            gw += q2 * grad_b[0]
            ge += q2 * grad_b[1]
        w_new = model.gamma_prox(tau, w - tau * gw)
        e_new = e - tau * ge
        dw, de = w_new - w, e_new - e
        diff = float(np.sqrt((np.vdot(dw, dw) + np.vdot(de, de)).real * vol))
        w, e = w_new, e_new
        if diff <= inner_tol:
            return w, e, j + 1
    raise AssertionError("reference inner loop did not converge")


@pytest.mark.parametrize("shape", [(64,), (16, 16)])
@pytest.mark.parametrize("nu", [0.0, 0.1])
@pytest.mark.parametrize("mobility", ["kobayashi", "constant"])
@pytest.mark.parametrize("setting", ["g1", "g2", "g3"])
def test_inner_loop_matches_allocating_reference(setting, mobility, nu, shape, rng, monkeypatch):
    # the buffered loop must reproduce every iterate bit for bit: compare
    # with the reference on the inputs of the first two outer iterations
    model = model_for(setting, mobility)
    grid = GridSpec(len(shape), shape, 1.0)
    inner = vstep._inner_prox_gradient
    single = Stencil(grid.shape, grid.dx)
    compared = []

    def both(v, v_prev, g_frozen, q1, q2, model, h, tau, stencil, *rest):
        args = (v, v_prev, g_frozen, q1, q2, model, h, tau, stencil, *rest)
        if len(compared) == 2:
            return inner(*args)
        v_in = v.copy()
        ref = reference_inner_prox_gradient(*v_in.copy(), *v_prev, *g_frozen, q1, q2,
                                            model, h, tau, single, *rest)
        got = inner(*args)
        assert np.array_equal(got[0][0], ref[0]) and np.array_equal(got[0][1], ref[1])
        assert got[1] == ref[2]
        assert np.array_equal(v, v_in)  # input untouched
        compared.append(got[1])
        return got

    monkeypatch.setattr(vstep, "_inner_prox_gradient", both)
    v0 = random_admissible_v(grid, model, rng)
    theta = random_smooth_field(grid, rng, 0.8)
    v_step(v0, theta, model, nu, VStepParams(h=bench_h(model)))
    assert len(compared) == 2 and min(compared) >= 2


def pair_distance(a, b, grid):
    return np.sqrt(sum(float(np.sum((x.values - y.values) ** 2)) for x, y in zip(a, b))
                   * grid.cell_volume)


def rho_star(theta, model, nu, h, grid):
    """1 - tau (1/h - L), with the step tau computed as v_step computes it."""
    q1 = np.sqrt(stencil(grid.shape, grid.dx).sq_grad(theta.values))
    lip = 1.0 / h + grad_operator_norm_bound(grid)
    lip += float(q1.max()) * model.mobility.curvature_bound
    if nu != 0.0:
        lip += float((nu * q1**2).max()) * model.mobility.curvature_bound
    return 1.0 - (1.0 / h - model.c2_norm) / lip


@pytest.mark.parametrize("shape", [(64,), (16, 16)])
@pytest.mark.parametrize("nu", [0.0, 0.1])
@pytest.mark.parametrize("setting", ["g1", "g2", "g3"])
def test_fused_loop_matches_picard(setting, nu, shape, rng):
    # both policies stop at the same fixed point, the fused one contracting
    # at its own rate rho*
    model = model_for(setting)
    grid = GridSpec(len(shape), shape, 1.0)
    h = bench_h(model)
    params = VStepParams(h=h)
    v0 = random_admissible_v(grid, model, rng)
    theta = random_smooth_field(grid, rng, 0.8)
    picard, rp = v_step(v0, theta, model, nu, params)
    fused, rf = v_step(v0, theta, model, nu, params, fused=True)
    assert pair_distance(picard, fused, grid) <= 1e-9 * np.sqrt(grid.volume)
    # one coupling evaluation per iteration, and far fewer iterations
    assert rf.outer_iters == rf.inner_iters_total < rp.inner_iters_total
    assert 0.0 < rf.final_contraction_ratio < rho_star(theta, model, nu, h, grid)
    assert rf.box_violation <= 1e-9


def test_fused_loop_never_returns_unconverged(g2_model, rng, monkeypatch):
    grid = GridSpec(1, (64,), 1.0)
    v0 = random_admissible_v(grid, g2_model, rng)
    theta = random_smooth_field(grid, rng, 0.8)
    params = VStepParams(h=bench_h(g2_model))
    _, rep = v_step(v0, theta, g2_model, 0.1, params, fused=True)
    n = rep.inner_iters_total
    monkeypatch.setattr(vstep, "_MAX_INNER", n)
    _, exact = v_step(v0, theta, g2_model, 0.1, params, fused=True)
    assert exact == rep
    where = rf"^inner proximal gradient did not reach .* in {n - 1} iterations"
    monkeypatch.setattr(vstep, "_MAX_INNER", n - 1)
    with pytest.raises(SolverError, match=where):
        v_step(v0, theta, g2_model, 0.1, params, fused=True)

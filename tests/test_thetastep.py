import numpy as np
import pytest

from grainflow import (
    GridSpec,
    MobilityKind,
    MobilitySpec,
    ModelSpec,
    Potential,
    PotentialSpec,
    ScalarField,
    h_star,
    oracle_theta_min,
    theta_step,
)
from grainflow.energy import phi_nu
from grainflow.grid import grad_operator_norm_bound
from grainflow import thetastep
from grainflow.model import SolverError
from grainflow.thetastep import _dual_newton, _PdhgLoop, _thomas
from grainflow.verify import _theta_objective, random_admissible_v, random_smooth_field

from grainflow_testkit import model_for
from slice_reference import div_slices, grad_slices, laplacian_slices


def bench_h(model):
    return 0.5 * h_star(model)


def weighted_norm(a0, d, vol):
    return float(np.sqrt(np.sum(np.broadcast_to(a0, d.shape) * d * d) * vol))


def test_constant_theta_is_stationary(g1_model, rng):
    grid = GridSpec(1, (24,), 1.0)
    v = random_admissible_v(grid, g1_model, rng)
    theta0 = ScalarField(grid, np.full(24, 0.37))
    out, rep = theta_step(theta0, v, g1_model, 0.1, bench_h(g1_model))
    assert np.allclose(out.values, 0.37, atol=1e-13)
    assert rep.linf_out <= rep.linf_in
    assert rep.duality_gap >= -1e-12


def test_linear_system_oracle_with_zero_tv_weight(rng):
    # alpha = 0 turns the step into (I/h - 2 nu b Lap) theta = theta_prev / h;
    # compare against a dense direct solve
    model = ModelSpec(
        PotentialSpec(Potential.POLYNOMIAL),
        MobilitySpec(MobilityKind.CONSTANT, a0=1.0, a=0.0, b=0.7),
    )
    grid = GridSpec(1, (64,), 1.0)
    h, nu = 0.1, 0.2
    theta0 = random_smooth_field(grid, rng, 1.0)
    v = (ScalarField(grid, np.full(64, 0.5)), ScalarField(grid, np.full(64, 0.5)))
    out, rep = theta_step(theta0, v, model, nu, h, gap_tol=1e-12)
    n = 64
    A = np.eye(n) / h
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        A[:, j] -= 2.0 * nu * 0.7 * laplacian_slices(e, 1.0)
    direct = np.linalg.solve(A, theta0.values / h)
    assert np.sqrt(np.sum((direct - out.values) ** 2)) <= 1e-9


@pytest.mark.parametrize("nu", [0.0, 0.1])
def test_maximum_principle_exact(g1_model, rng, nu):
    grid = GridSpec(2, (16, 16), 1.0)
    v = random_admissible_v(grid, g1_model, rng)
    theta0 = random_smooth_field(grid, rng, 0.8)
    out, rep = theta_step(theta0, v, g1_model, nu, bench_h(g1_model))
    assert rep.linf_in == pytest.approx(0.8, abs=1e-12)
    assert float(np.abs(out.values).max()) <= rep.linf_in  # zero slack
    assert rep.linf_out <= rep.linf_in + 1e-8


def test_energy_decrease_reported_nonnegative_up_to_gap(g1_model, rng):
    # theta-half dissipation margin Phi(prev) - Phi(new) - (1/h)|sqrt(a0) dtheta|^2,
    # evaluated from the returned theta
    grid = GridSpec(1, (48,), 1.0)
    v = random_admissible_v(grid, g1_model, rng)
    theta0 = random_smooth_field(grid, rng, 0.8)
    h = bench_h(g1_model)
    out, rep = theta_step(theta0, v, g1_model, 0.1, h, gap_tol=1e-11)
    a0, _, _ = g1_model.mobilities(v[0].values, v[1].values)
    d = out.values - theta0.values
    margin = (phi_nu(v, theta0, g1_model, 0.1) - phi_nu(v, out, g1_model, 0.1)
              - float(np.sum(a0 * d * d)) * grid.cell_volume / h)
    assert margin >= -rep.duality_gap - 1e-14


# ---------------------------------------------------------------------------
# primal-dual sweep against a plain reference
# ---------------------------------------------------------------------------

def reference_sweeps(t0, a0, aw, nb, h, dx, tau, sigma, p, n_sweeps):
    """The over-relaxed PDHG sweep, primal first at the module's rho, written
    out with the slice reference; returns the last (theta, dual)."""
    rho, t, coef = thetastep._RHO, t0.copy(), tau * a0 / h
    for _ in range(n_sweeps):
        t_prox = (t + tau * div_slices(p, dx) + coef * t0) / (1.0 + coef)
        z = [pc + sigma * gc for pc, gc in zip(p, grad_slices(2.0 * t_prox - t, dx))]
        mag = np.sqrt(sum(c**2 for c in z))
        target = np.minimum(mag, aw if nb is None else (nb * mag + sigma * aw) / (nb + sigma))
        scale = np.where(mag > 0, target / np.where(mag > 0, mag, 1.0), 0.0)
        t = t + rho * (t_prox - t)
        p = [pc + rho * (c * scale - pc) for pc, c in zip(p, z)]
    return t, np.array(p)


@pytest.mark.parametrize("shape, dx", [((48,), 1.0), ((12, 9), 0.5)])
@pytest.mark.parametrize("nu", [0.0, 0.1])
def test_pdhg_loop_matches_reference_sweeps(g1_model, rng, shape, dx, nu):
    grid = GridSpec(len(shape), shape, dx)
    h = bench_h(g1_model)
    v = random_admissible_v(grid, g1_model, rng)
    a0, aw, bw = g1_model.mobilities(v[0].values, v[1].values)
    nb = 2.0 * nu * bw if nu != 0.0 else None
    t0 = random_smooth_field(grid, rng, 0.8).values
    # a dual inside the ball whose far-boundary entries are 0, as in a run
    p0 = [0.5 * aw * np.tanh(c) for c in grad_slices(rng.normal(size=shape), dx)]
    ratio = 0.125 if grid.dim == 1 else 0.0625
    tau = ratio / np.sqrt(grad_operator_norm_bound(grid))
    sigma = 1.0 / (ratio * np.sqrt(grad_operator_norm_bound(grid)))
    loop = _PdhgLoop(t0, a0, aw, nb, h, dx, p0)
    loop.set_steps(tau, sigma)
    loop.advance(300)
    want_t, want_p = reference_sweeps(t0, a0, aw, nb, h, dx, tau, sigma, p0, 300)
    got_t, got_p = loop.iterate()
    assert np.max(np.abs(got_t - want_t)) <= 1e-13
    assert np.max(np.abs(got_p - want_p)) <= 1e-13
    assert np.max(np.abs(want_t - t0)) > 1e-3  # the sweeps did move theta


@pytest.mark.parametrize("shape, dx", [((48,), 1.0), ((48,), 0.3), ((12, 9), 1.0),
                                       ((12, 9), 0.3)])
@pytest.mark.parametrize("nu", [0.0, 0.1])
def test_certificate_matches_reference_gap(g1_model, rng, shape, dx, nu):
    # the loop's gap against one written out with the slice reference, the
    # Fenchel dual D(p) = -sum[y t0 + h y^2/(2 a0)] - F*(p), y = div p, and
    # the energy's objective
    grid = GridSpec(len(shape), shape, dx)
    h, vol = bench_h(g1_model), grid.cell_volume
    v = random_admissible_v(grid, g1_model, rng)
    a0, aw, bw = g1_model.mobilities(v[0].values, v[1].values)
    nb = 2.0 * nu * bw if nu != 0.0 else None
    theta0 = ScalarField(grid, 0.8 * np.tanh(rng.normal(size=shape)))  # rough, slow to solve
    t0 = theta0.values
    loop = _PdhgLoop(t0, a0, aw, nb, h, dx)
    gn = np.sqrt(grad_operator_norm_bound(grid))
    ratio = 0.125 if grid.dim == 1 else 0.0625
    loop.set_steps(ratio / gn, 1.0 / (ratio * gn))
    loop.advance(75)  # relaxed sweeps: the 48-cell gaps are 2e-8 and 1.4e-7 here
    t_hat, gap, j_hat = loop.certify()

    p = loop.iterate()[1]
    y = div_slices(list(p), dx)
    excess = np.maximum(np.sqrt(np.sum(p**2, axis=0)) - aw, 0.0)
    if nb is None:
        assert excess.max() <= 1e-12  # inside the ball, where F* is 0
        conj = 0.0
    else:
        conj = float(np.sum(excess**2 / (2.0 * nb))) * vol
    dual = -float(np.sum(y * t0 + 0.5 * h * y**2 / a0)) * vol - conj
    t_rec = t0 + h * y / a0
    m = float(np.abs(t0).max())
    want_hat = np.clip(t_rec, -m, m)

    def objective(t):
        return _theta_objective(ScalarField(grid, t), theta0, v, g1_model, nu, h)

    tol = 1e-12 * (1.0 + abs(objective(want_hat)))
    assert np.max(np.abs(t_hat - want_hat)) <= 1e-12 * m
    assert abs(j_hat - objective(want_hat)) <= tol
    assert abs(gap - (objective(want_hat) - dual)) <= tol
    assert gap > 1e-10  # not yet converged


@pytest.mark.parametrize("nu", [0.0, 0.1])
def test_dual_is_projected_onto_the_ball(g1_model, rng, nu):
    # relaxed sweeps can carry the dual out of |p| <= a on the cells where
    # F* is the ball's indicator: every cell at nu = 0, the cells with nb = 0
    # (here every other one) at nu > 0.  certify projects it back in place,
    # which keeps the gap finite, and the report's dual lies in the ball too
    shape = (12, 9)
    grid = GridSpec(2, shape, 1.0)
    h = bench_h(g1_model)
    v = random_admissible_v(grid, g1_model, rng)
    a0, aw, bw = g1_model.mobilities(v[0].values, v[1].values)
    nb = np.where(np.arange(bw.size).reshape(shape) % 2 == 0, 0.0, 2.0 * nu * bw) if nu else None
    ball = np.ones(shape, bool) if nb is None else nb == 0.0
    theta0 = ScalarField(grid, 0.8 * np.tanh(rng.normal(size=shape)))
    loop = _PdhgLoop(theta0.values, a0, aw, nb, h, grid.dx)
    gn = np.sqrt(grad_operator_norm_bound(grid))
    loop.set_steps(0.0625 / gn, 1.0 / (0.0625 * gn))

    def magnitude(p):
        return np.sqrt(sum(c**2 for c in p))

    for _ in range(20):
        loop.advance(1)
        if np.any((magnitude(loop.iterate()[1]) > aw * (1.0 + 1e-6))[ball]):
            break
    else:
        pytest.fail("20 relaxed sweeps stayed inside the ball")
    assert np.isfinite(loop.certify()[1])
    assert np.all((magnitude(loop.iterate()[1]) <= aw * (1.0 + 1e-14))[ball])
    if nb is None:
        _, rep = theta_step(theta0, v, g1_model, 0.0, h)
        assert np.all(magnitude(rep.dual) <= aw * (1.0 + 1e-14))


# ---------------------------------------------------------------------------
# comparison principle
# ---------------------------------------------------------------------------

def test_weighted_l2_nonexpansive(g1_model, rng):
    grid = GridSpec(2, (16, 16), 1.0)
    h = bench_h(g1_model)
    vol = grid.cell_volume
    for nu in (0.0, 0.1):
        v = random_admissible_v(grid, g1_model, rng)
        a0, _, _ = g1_model.mobilities(v[0].values, v[1].values)
        t01 = random_smooth_field(grid, rng, 0.6)
        t02 = ScalarField(grid, t01.values + 0.1
                          + np.abs(random_smooth_field(grid, rng, 0.3).values))
        o1, r1 = theta_step(t01, v, g1_model, nu, h, gap_tol=1e-11)
        o2, r2 = theta_step(t02, v, g1_model, nu, h, gap_tol=1e-11, warm_dual=r1.dual)
        lhs = weighted_norm(a0, o1.values - o2.values, vol)
        rhs = weighted_norm(a0, t01.values - t02.values, vol)
        assert lhs <= rhs + 1e-8


def test_unique_minimizer_from_two_initializations(g1_model, rng):
    grid = GridSpec(1, (16,), 1.0)
    v = random_admissible_v(grid, g1_model, rng)
    theta0 = random_smooth_field(grid, rng, 0.8)
    h = bench_h(g1_model)
    out1, rep1 = theta_step(theta0, v, g1_model, 0.1, h, gap_tol=1e-13)
    other = tuple(np.full(grid.shape, 0.3) for _ in range(grid.dim))
    out2, _ = theta_step(theta0, v, g1_model, 0.1, h, gap_tol=1e-13, warm_dual=other)
    assert float(np.abs(out1.values - out2.values).max()) <= 1e-8


# ---------------------------------------------------------------------------
# exact 1D dual Newton solve
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 5, 64])
def test_thomas_matches_dense_solve(rng, n):
    for _ in range(5):
        off = rng.normal(size=n - 1)
        pad = np.abs(np.concatenate([[0.0], off, [0.0]]))
        diag = pad[:-1] + pad[1:] + rng.uniform(0.01, 2.0, size=n)
        rhs = rng.normal(size=n)
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        assert np.allclose(_thomas(diag, off, rhs), np.linalg.solve(dense, rhs),
                           rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("dx", [1.0, 0.5])
@pytest.mark.parametrize("nu", [0.0, 1.0 / 256.0, 0.1, 0.5])
def test_newton_solves_1d_steps_without_pdhg(g1_model, rng, monkeypatch, nu, dx):
    # kappa > 0: the dual Newton solve alone must meet the certificate, cold
    # and warm-started from the previous solve as in the time loop
    sweeps = []
    monkeypatch.setattr(_PdhgLoop, "advance", lambda self, n: sweeps.append(n))
    grid = GridSpec(1, (64,), dx)
    h = bench_h(g1_model)
    theta, dual = random_smooth_field(grid, rng, 0.8), None
    for _ in range(4):
        v = random_admissible_v(grid, g1_model, rng)
        out, rep = theta_step(theta, v, g1_model, nu, h, warm_dual=dual)
        assert rep.duality_gap <= 1e-10  # the default gap_tol
        assert rep.linf_out <= rep.linf_in
        theta, dual = out, rep.dual
    assert sweeps == []


@pytest.mark.parametrize("dx", [1.0, 0.5])
@pytest.mark.parametrize("setting", ["g1", "g2"])
def test_newton_restart_from_converged_nu0_dual_takes_no_step(rng, monkeypatch, setting, dx):
    # a dual optimal to rounding gets a rounding-level projected step, which
    # cannot strictly decrease Q: the solve must return before any search
    model = model_for(setting)
    grid = GridSpec(1, (64,), dx)
    calls = []
    value = thetastep._dual_value
    monkeypatch.setattr(thetastep, "_dual_value", lambda *a: calls.append(1) or value(*a))
    for _ in range(3):
        theta = random_smooth_field(grid, rng, 0.8)
        v = random_admissible_v(grid, model, rng)
        a0, aw, _ = model.mobilities(v[0].values, v[1].values)
        loop = _PdhgLoop(theta.values, a0, aw, None, bench_h(model), dx)
        _dual_newton(loop)
        _, gap, j_hat = loop.certify()
        assert gap <= 1e-12 * (1.0 + abs(j_hat))
        dual = loop.p.copy()
        calls.clear()
        assert _dual_newton(loop) == 0
        assert len(calls) == 1  # Q at the start only, no line-search trial
        assert np.array_equal(loop.p, dual)


# ---------------------------------------------------------------------------
# reference oracle
# ---------------------------------------------------------------------------

def test_oracle_constant_instance(g1_model):
    grid = GridSpec(1, (8,), 1.0)
    v = (ScalarField(grid, np.full(8, 0.6)), ScalarField(grid, np.full(8, 0.7)))
    theta0 = ScalarField(grid, np.full(8, -0.4))
    t, obj = oracle_theta_min(theta0, v, g1_model, 0.1, h=0.05)
    assert obj == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(t.values, -0.4, atol=1e-9)


def test_oracle_two_cell_grid_search():
    # 1D n=2, alpha0 = alpha = 1, nu = 0, h = 1, theta_prev = [0, 2]:
    # J(x, y) = ((x-0)^2 + (y-2)^2)/2 + |y - x| is minimized at (1, 1) with
    # J* = 1, where s = 1 in the subdifferential of |y - x| gives
    # x - s = 0 and (y - 2) + s = 0
    model = ModelSpec(
        PotentialSpec(Potential.POLYNOMIAL),
        MobilitySpec(MobilityKind.CONSTANT, a0=1.0, a=1.0, b=1.0),
    )
    grid = GridSpec(1, (2,), 1.0)
    theta0 = ScalarField(grid, np.array([0.0, 2.0]))
    v = (ScalarField(grid, np.ones(2)), ScalarField(grid, np.ones(2)))

    theta, obj = oracle_theta_min(theta0, v, model, 0.0, h=1.0)
    assert abs(obj - 1.0) <= 1e-9
    assert np.abs(theta.values - 1.0).max() <= 1e-6


@pytest.mark.parametrize("nu", [0.0, 0.1])
def test_oracle_agrees_with_primal_dual(nu, rng):
    for j, setting in enumerate(["g1", "g2", "g3"]):
        model = model_for(setting)
        grid = GridSpec(1, (16,), 1.0) if j % 2 == 0 else GridSpec(2, (4, 4), 1.0)
        h = bench_h(model)
        v = random_admissible_v(grid, model, rng)
        theta0 = random_smooth_field(grid, rng, 0.8)
        out, rep = theta_step(theta0, v, model, nu, h, gap_tol=1e-11)
        j_pdhg = _theta_objective(out, theta0, v, model, nu, h)
        _, j_oracle = oracle_theta_min(theta0, v, model, nu, h)
        assert abs(j_pdhg - j_oracle) <= 1e-6 * (1.0 + abs(j_oracle))
        assert rep.duality_gap <= 1e-8


def test_oracle_rejects_large_instances(g1_model):
    grid = GridSpec(2, (16, 16), 1.0)
    v = (ScalarField(grid, np.full((16, 16), 0.5)),
         ScalarField(grid, np.full((16, 16), 0.5)))
    theta0 = ScalarField(grid, np.zeros((16, 16)))
    with pytest.raises(ValueError):
        oracle_theta_min(theta0, v, g1_model, 0.1, h=0.05)


# ---------------------------------------------------------------------------
# the start ratio
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape, dim_ratio", [((12, 9), 0.0625), ((48,), 0.125)])
def test_default_start_ratio_is_r0(g1_model, rng, shape, dim_ratio):
    grid = GridSpec(len(shape), shape, 1.0)
    v = random_admissible_v(grid, g1_model, rng)
    theta0 = ScalarField(grid, 0.8 * np.tanh(rng.normal(size=shape)))
    h = bench_h(g1_model)
    got, rep = theta_step(theta0, v, g1_model, 0.0, h)
    want, rep_r0 = theta_step(theta0, v, g1_model, 0.0, h, start_ratio=dim_ratio)
    assert np.array_equal(got.values, want.values)
    assert (rep.iters, rep.sweeps) == (rep_r0.iters, rep_r0.sweeps)
    if len(shape) == 2:  # in 1D Newton certifies the step, and no ratio is used
        _, other = theta_step(theta0, v, g1_model, 0.0, h, start_ratio=4.0 * dim_ratio)
        assert rep.sweeps > 0 and other.iters != rep.iters


def drive(learner, sweeps_at, n):
    """Runs n solves of a learner whose solve at ratio r takes sweeps_at(r)
    sweeps; returns the ratios proposed."""
    ratios = []
    for _ in range(n):
        ratios.append(learner.propose())
        learner.learn(sweeps_at(ratios[-1]))
    return ratios


def test_start_ratio_backs_off_failed_trials():
    # a problem whose best ratio is r0: every trial fails, and each failure
    # doubles the wait of its direction up to 64 solves
    learner = thetastep.StartRatio(2)
    r0 = learner.ratio
    ratios = drive(learner, lambda r: 1000 if r == r0 else 1500, 1000)
    assert learner.ratio == r0 and learner.wait == {2.0: 64, 0.5: 64}
    trials = [r for r in ratios if r != r0]
    assert sorted(set(trials)) == [r0 / 2.0, 2.0 * r0]
    assert len(trials) <= 2 * (4 + 1000 // 64)


def test_start_ratio_adopts_a_better_ratio():
    # sweeps grow with the distance of log2 r from its best value r0/4
    learner = thetastep.StartRatio(2)
    r0 = learner.ratio
    ratios = drive(learner, lambda r: 1000 + 1000 * abs(int(np.log2(4.0 * r / r0))), 200)
    assert learner.ratio == r0 / 4.0 and ratios[-1] in (r0 / 8.0, r0 / 4.0, r0 / 2.0)
    # no learning from a solve without PDHG sweeps
    state = dict(vars(learner))
    learner.propose()
    learner.learn(0)
    assert vars(learner) == dict(state, trial=learner.trial)


# ---------------------------------------------------------------------------
# parameters and failure modes
# ---------------------------------------------------------------------------

def test_no_convergence_raised(g1_model, rng, monkeypatch):
    grid = GridSpec(1, (32,), 1.0)
    v = random_admissible_v(grid, g1_model, rng)
    theta0 = random_smooth_field(grid, rng, 0.8)
    monkeypatch.setattr(thetastep, "_MAX_ITERS", 10)
    with pytest.raises(SolverError, match=r"^gap .* above tolerance after 10 iterations$"):
        theta_step(theta0, v, g1_model, 0.1, 0.05, gap_tol=1e-300)


def test_unsafeguarded_mobility_still_respects_maximum_principle(rng):
    # kappa = 0 with an exact zero of alpha0: outside the theorem hypotheses,
    # but the step still runs and the clipped output keeps the Linf bound
    model = ModelSpec(
        PotentialSpec(Potential.POLYNOMIAL),
        MobilitySpec(MobilityKind.KOBAYASHI, kappa=0.0),
    )
    grid = GridSpec(1, (24,), 1.0)
    e = np.abs(random_smooth_field(grid, rng, 1.0).values)
    e[5] = 0.0
    v = (ScalarField(grid, np.clip(0.5 + 0.3 * random_smooth_field(grid, rng, 1.0).values,
                                   0.0, 1.0)),
         ScalarField(grid, np.clip(e, 0.0, 1.0)))
    theta0 = random_smooth_field(grid, rng, 0.8)
    out, rep = theta_step(theta0, v, model, 0.1, 0.02, gap_tol=1e-8)
    assert rep.linf_out <= rep.linf_in
    assert rep.duality_gap >= -1e-12


def test_params_validation(g1_model, rng):
    grid = GridSpec(1, (16,), 1.0)
    v = random_admissible_v(grid, g1_model, rng)
    theta0 = random_smooth_field(grid, rng, 0.8)
    with pytest.raises(ValueError):
        theta_step(theta0, v, g1_model, 0.1, -1.0)
    with pytest.raises(ValueError):
        theta_step(theta0, v, g1_model, 0.1, 0.1, gap_tol=0.0)
    # an infinite gap tolerance would accept the first certificate
    for bad in ({"h": np.inf}, {"gap_tol": np.inf}, {"gap_tol": np.nan}):
        name = next(iter(bad))
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            theta_step(theta0, v, g1_model, 0.1, **{"h": 0.1, **bad})

"""Acceptance suite: every release criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  The benchmark grid is 3 potential settings x nu in {0, 0.1}
x {1D n=64, 2D 32x32}, h = half the admissible step, 100 steps from a seeded
random initial state.
"""

import filecmp
import os
import time

import numpy as np
import pytest

from grainflow import (
    GridSpec,
    ScalarField,
    SchemeParams,
    check_box,
    check_dissipation,
    check_gamma_sandwich,
    check_linfty,
    check_theta_oracle,
    h_star,
    nu_limit_study,
    run,
    theta_step,
    v_step,
    v_step_perturbation_bound,
)
from grainflow import vstep
from grainflow.cli import main as cli_main, make_initial
from grainflow.grid import Stencil
from grainflow.model import grad_g, g_eval, mobility_eval
from grainflow.verify import random_admissible_v, random_smooth_field

from grainflow_testkit import mobility_gradients, model_for

SEED = 20240801
SETTINGS = ("g1", "g2", "g3")
GRIDS = {"1d64": GridSpec(1, (64,), 1.0), "2d32": GridSpec(2, (32, 32), 1.0)}
NUS = (0.0, 0.1)


def report(criterion, passed, detail):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] criterion {criterion}: {detail}")


def config_matrix():
    out = []
    for setting in SETTINGS:
        model = model_for(setting)
        for gname, grid in GRIDS.items():
            for nu in NUS:
                out.append((f"{setting}-{gname}-nu{nu}", model, grid, nu))
    return out


@pytest.fixture(scope="module")
def benchmark_runs():
    """The 12 benchmark trajectories (shared by criteria 1 and 2)."""
    runs = {}
    for name, model, grid, nu in config_matrix():
        init = make_initial("random", grid, model, seed=SEED)
        params = SchemeParams(h=0.5 * h_star(model), nu=nu, n_steps=100,
                              record_every=100)
        t0 = time.time()
        traj = run(init, model, params)
        runs[name] = (traj, model, grid, time.time() - t0)
    return runs


def test_criterion_1_per_step_dissipation(benchmark_runs):
    worst = -np.inf
    slowest = 0.0
    ok = True
    for name, (traj, model, grid, elapsed) in benchmark_runs.items():
        res = check_dissipation(traj)
        worst = max(worst, res.worst_violation)
        slowest = max(slowest, elapsed)
        ok = ok and res.passed and elapsed <= 60.0
        if not res.passed or elapsed > 60.0:
            print(f"  offending config {name}: {res} elapsed={elapsed:.1f}s")
    report(1, ok, f"per-step dissipation over 12 configs x 100 steps: worst "
                  f"normalized slack {worst:.3e} (tol 1e-08), slowest config "
                  f"{slowest:.1f}s (budget 60s)")
    assert ok


def test_criterion_2_box_and_maximum_principle(benchmark_runs):
    worst_box = -np.inf
    worst_linf = -np.inf
    for name, (traj, model, grid, _) in benchmark_runs.items():
        worst_box = max(worst_box, check_box(traj).worst_violation)
        worst_linf = max(worst_linf, check_linfty(traj).worst_violation)
    ok = worst_box <= 1e-8 and worst_linf <= 1e-8
    report(2, ok, f"box invariance worst {worst_box:.3e}, maximum principle "
                  f"worst {worst_linf:.3e} (tol 1e-08)")
    assert ok


def test_criterion_3_contraction():
    grid = GridSpec(1, (64,), 1.0)
    ok = True
    details = []
    inner_tol = 1e-13 * np.sqrt(grid.volume)
    probe_outer = 0
    for setting in SETTINGS:
        model = model_for(setting)
        h = 0.5 * h_star(model)
        bound = h * model.c2_norm * (1.0 + 1e-6)
        worst = 0.0
        rng = np.random.default_rng(SEED)
        for _ in range(20):
            v0 = random_admissible_v(grid, model, rng)
            theta = random_smooth_field(grid, rng, 0.8)
            _, rep = v_step(v0, theta, model, 0.1, h, inner_tol=inner_tol)
            worst = max(worst, rep.final_contraction_ratio)
        ok = ok and worst <= bound
        details.append(f"{setting}: max ratio {worst:.4f} <= {bound:.4f}")
        # negative control: h = 2 h* is outside the gate; its ratio is
        # permitted to exceed the benchmark guarantee and is recorded here
        h2 = 2.0 * h_star(model)
        v0 = random_admissible_v(grid, model, np.random.default_rng(SEED + 1))
        theta = random_smooth_field(grid, rng, 0.8)
        _, rep2 = v_step(v0, theta, model, 0.1, h2, inner_tol=inner_tol)
        probe_outer = max(probe_outer, rep2.outer_iters)
        details.append(f"{setting} probe@2h*: ratio {rep2.final_contraction_ratio:.4f} "
                       f"(benchmark guarantee {bound:.4f})")
    report(3, ok, "outer-loop contraction, 20 random steps per setting; " +
           "; ".join(details))
    assert ok
    assert probe_outer <= vstep._MAX_OUTER // 4  # the outer-loop cap has headroom at 2h*


def test_criterion_4_theta_oracle_equivalence():
    res = check_theta_oracle(n_instances=20, seed=SEED)
    report(4, res.passed, f"theta-step vs oracle on 20 instances x nu in "
                          f"{{0, 0.1}}: worst {res.worst_violation:.3e} "
                          f"(tol 1e-06, gap budget 1e-08)")
    assert res.passed


def test_criterion_5_comparison_and_nonexpansiveness():
    worst_excess = 0.0
    worst_slack = -np.inf
    for name, model, grid, nu in config_matrix():
        rng = np.random.default_rng(SEED)
        v = random_admissible_v(grid, model, rng)
        a0, _, _ = model.mobilities(v[0].values, v[1].values)
        vol = grid.cell_volume
        h = 0.5 * h_star(model)
        dual = None
        for _ in range(50):
            lo = random_smooth_field(grid, rng, 0.6)
            bump = np.abs(random_smooth_field(grid, rng, 0.3).values)
            hi = ScalarField(grid, lo.values + 0.08 + bump)
            lo_t, lo_r = theta_step(lo, v, model, nu, h, warm_dual=dual)
            hi_t, hi_r = theta_step(hi, v, model, nu, h, warm_dual=lo_r.dual)
            dual = hi_r.dual
            worst_excess = max(
                worst_excess, float(np.maximum(lo_t.values - hi_t.values, 0.0).max())
            )
            w = np.broadcast_to(a0, lo.values.shape)
            lhs = float(np.sqrt(np.sum(w * (lo_t.values - hi_t.values) ** 2) * vol))
            rhs = float(np.sqrt(np.sum(w * (lo.values - hi.values) ** 2) * vol))
            worst_slack = max(worst_slack, lhs - rhs)
    ok = worst_excess <= 1e-8 and worst_slack <= 1e-8
    report(5, ok, f"order preservation over 50 ordered pairs x 12 configs: "
                  f"worst excess {worst_excess:.3e}; weighted-L2 "
                  f"nonexpansiveness worst slack {worst_slack:.3e} (tol 1e-08)")
    assert ok


def test_criterion_6_perturbation_stability():
    model = model_for("g1")
    grid = GridSpec(2, (16, 16), 1.0)
    h = 0.5 * h_star(model)
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(20):
        w1, e1 = random_admissible_v(grid, model, rng)
        d = 1e-3 * random_smooth_field(grid, rng, 1.0).values
        w2 = ScalarField(grid, np.clip(w1.values + d, 0.0, 1.0))
        e2 = ScalarField(grid, np.clip(e1.values - d, 0.0, 1.0))
        theta = random_smooth_field(grid, rng, 0.8)
        worst = max(worst, v_step_perturbation_bound((w1, e1), (w2, e2), theta,
                                                     model, 0.1, h))
    ok = worst <= 2.0 + 1e-6
    report(6, ok, f"perturbation ratio over 20 pairs: worst {worst:.6f} "
                  f"(bound 2 + 1e-06)")
    assert ok


def test_criterion_7_gamma_sandwich():
    worst = -np.inf
    for mobility, setting in (("kobayashi", "g1"), ("constant", "g2")):
        model = model_for(setting, mobility=mobility)
        assert model.mobility.delta1 > 0
        for nu in (0.1, 0.5):
            res = check_gamma_sandwich(model, nu, n_samples=100, seed=SEED)
            worst = max(worst, res.worst_violation)
    ok = worst <= 1e-12
    report(7, ok, f"Phi_nu sandwich on 100 random fields per mobility spec: "
                  f"worst relative violation {worst:.3e} (tol 1e-12)")
    assert ok


def test_criterion_8_nu_limit_trend():
    model = model_for("g1")
    grid = GridSpec(1, (64,), 1.0)
    init = make_initial("random", grid, model, seed=SEED)
    params = SchemeParams(h=0.5 * h_star(model), nu=0.5, n_steps=100)
    schedule = [2.0**-k for k in range(1, 9)]
    t0 = time.time()
    study = nu_limit_study(init, model, schedule, params)
    elapsed = time.time() - t0
    first, last = study.nu_dirichlet_aggregates[0], study.nu_dirichlet_aggregates[-1]
    ok = study.passed and elapsed <= 600.0
    report(8, ok, f"nu-Dirichlet aggregate decayed {first:.4e} -> {last:.4e} "
                  f"(ratio {last / first:.4f} < 0.1) in {elapsed:.0f}s "
                  f"(budget 600s)")
    assert ok


def test_criterion_9_derivative_and_adjoint_consistency():
    rng = np.random.default_rng(SEED)
    worst_fd = 0.0
    step = 1e-6
    for setting in SETTINGS:
        model = model_for(setting)
        pot, mob = model.potential, model.mobility
        pts = rng.uniform(0.0, 1.0, size=(1000, 2))
        for w, e in pts:
            gw, ge = grad_g(pot, w, e)
            fd_w = (g_eval(pot, w + step, e) - g_eval(pot, w - step, e)) / (2 * step)
            fd_e = (g_eval(pot, w, e + step) - g_eval(pot, w, e - step)) / (2 * step)
            worst_fd = max(worst_fd, abs(fd_w - gw) / (1.0 + abs(gw)),
                           abs(fd_e - ge) / (1.0 + abs(ge)))
            ga, gb = mobility_gradients(mob, w, e)
            fd_aw = (mobility_eval(mob, w + step, e)[1]
                     - mobility_eval(mob, w - step, e)[1]) / (2 * step)
            fd_bw = (mobility_eval(mob, w + step, e)[2]
                     - mobility_eval(mob, w - step, e)[2]) / (2 * step)
            worst_fd = max(worst_fd,
                           abs(fd_aw - float(ga[0])) / (1.0 + abs(float(ga[0]))),
                           abs(fd_bw - float(gb[0])) / (1.0 + abs(float(gb[0]))))
    stencil = Stencil((8, 8), 1.0)
    grad, buf = np.zeros((2, 64)), stencil.flux()
    worst_adj = 0.0
    for _ in range(50):
        f = rng.normal(size=64)
        g2 = rng.normal(size=64)
        buf[:, stencil.lead:] = rng.normal(size=(2, 64)) * stencil.mask
        lhs = float(np.vdot(stencil.grad(f, grad), buf[:, stencil.lead:]))
        rhs = -float(np.vdot(f, stencil.div(buf, np.empty(64))))
        worst_adj = max(worst_adj, abs(lhs - rhs) / (1.0 + abs(lhs)))
        lap_f_g2 = float(np.vdot(stencil.laplacian(f, np.empty(64)), g2))
        sym = abs(lap_f_g2 - float(np.vdot(f, stencil.laplacian(g2, np.empty(64)))))
        worst_adj = max(worst_adj, sym / (1.0 + abs(lap_f_g2)))
    ok = worst_fd <= 1e-6 and worst_adj <= 1e-13
    report(9, ok, f"derivative FD consistency worst {worst_fd:.3e} (tol 1e-06); "
                  f"adjointness/symmetry worst {worst_adj:.3e} (tol 1e-13)")
    assert ok


BENCH_CFG = """
[model]
potential = g1
c = 1.0
u = 0.0
mobility = kobayashi
kappa = 0.01

[grid]
dim = 1
shape = 64
dx = 1.0

[scheme]
h_frac = 0.5
nu = 0.1
n_steps = 100
record_every = 25

[init]
kind = random
seed = 20240801
amplitude = 0.8

[output]
directory = unused
formats = csv,raw
"""


def test_criterion_10_determinism(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(BENCH_CFG)
    assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    names = sorted(os.listdir(tmp_path / "a"))
    diffs = [n for n in names
             if not filecmp.cmp(tmp_path / "a" / n, tmp_path / "b" / n, shallow=False)]
    ok = not diffs and len(names) > 10
    report(10, ok, f"two runs with identical config+seed: {len(names)} output "
                   f"files bitwise identical" + (f"; DIFFER: {diffs}" if diffs else ""))
    assert ok

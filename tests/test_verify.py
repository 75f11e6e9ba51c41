import dataclasses

import numpy as np
import pytest

from grainflow import (
    GridSpec,
    MobilityKind,
    MobilitySpec,
    ModelSpec,
    Potential,
    PotentialSpec,
    SchemeParams,
    check_box,
    check_dissipation,
    check_gamma_sandwich,
    check_linfty,
    check_theta_oracle,
    h_star,
    nu_limit_study,
    random_grains_field,
    random_smooth_field,
    run,
)
from grainflow import verify
from grainflow.cli import make_initial
from grainflow.scheme import validate_initial
from grainflow.verify import check_energy_bound

from grainflow_testkit import model_for


@pytest.fixture(scope="module")
def bench_traj():
    model = model_for("g1")
    grid = GridSpec(1, (32,), 1.0)
    init = make_initial("random", grid, model, seed=42)
    params = SchemeParams(h=0.5 * h_star(model), nu=0.1, n_steps=25, record_every=25)
    return run(init, model, params), model, grid


def test_equilibrium_checks_trivially_pass(g1_model):
    grid = GridSpec(1, (16,), 1.0)
    init = make_initial("wells", grid, g1_model, seed=0)
    traj = run(init, g1_model, SchemeParams(h=0.5 * h_star(g1_model), nu=0.1, n_steps=5))
    assert check_dissipation(traj).worst_violation <= 0.0
    assert check_box(traj).worst_violation == 0.0
    assert check_linfty(traj).worst_violation == 0.0


def test_benchmark_checks_pass(bench_traj):
    traj, model, grid = bench_traj
    for result in (
        check_dissipation(traj),
        check_box(traj),
        check_linfty(traj),
        check_energy_bound(traj, model, grid),
    ):
        assert result.passed, str(result)
        assert result.passed == (result.worst_violation <= result.tolerance)


def test_corrupted_trajectory_fails_dissipation(bench_traj):
    # negative control: inflating one recorded energy must break the check
    traj, _, _ = bench_traj
    corrupted = dataclasses.replace(traj)
    energies = list(traj.energies)
    mid = len(energies) // 2
    energies[mid] = dataclasses.replace(energies[mid], g_term=energies[mid].g_term + 1.0)
    corrupted.energies = energies
    assert not check_dissipation(corrupted).passed


def test_check_results_reproducible(g1_model):
    a = check_gamma_sandwich(g1_model, nu=0.1, n_samples=20, seed=7)
    b = check_gamma_sandwich(g1_model, nu=0.1, n_samples=20, seed=7)
    assert a == b


def test_gamma_sandwich_details(g1_model):
    res = check_gamma_sandwich(g1_model, nu=0.1, n_samples=50, seed=3)
    assert res.passed
    assert res.worst_violation <= 1e-12
    const = ModelSpec(
        PotentialSpec(Potential.POLYNOMIAL),
        MobilitySpec(MobilityKind.CONSTANT, a0=1.0, a=1.0, b=1.0),
    )
    # constant mobilities: delta1 = sup beta = b, the sandwich collapses
    res2 = check_gamma_sandwich(const, nu=0.1, n_samples=20, seed=3)
    assert res2.passed
    zero_floor = ModelSpec(
        PotentialSpec(Potential.POLYNOMIAL),
        MobilitySpec(MobilityKind.KOBAYASHI, kappa=0.0),
    )
    with pytest.raises(ValueError):
        check_gamma_sandwich(zero_floor, nu=0.1)


def test_checks_that_examine_nothing_raise(g1_model):
    with pytest.raises(ValueError, match="no instance was checked"):
        check_theta_oracle(n_instances=0)
    with pytest.raises(ValueError, match="no instance was checked"):
        check_gamma_sandwich(g1_model, nu=0.1, n_samples=0)


def test_theta_oracle_check_small():
    res = check_theta_oracle(n_instances=3, seed=5)
    assert res.passed, str(res)


def test_nu_limit_study_single_entry(g1_model):
    grid = GridSpec(1, (16,), 1.0)
    init = make_initial("random", grid, g1_model, seed=1)
    params = SchemeParams(h=0.5 * h_star(g1_model), nu=0.5, n_steps=5)
    report = nu_limit_study(init, g1_model, [0.5], params)
    assert report.passed
    assert len(report.nu_dirichlet_aggregates) == 1


def test_nu_limit_study_decreasing_schedule(g1_model):
    grid = GridSpec(1, (16,), 1.0)
    init = make_initial("random", grid, g1_model, seed=1)
    params = SchemeParams(h=0.5 * h_star(g1_model), nu=0.5, n_steps=10)
    report = nu_limit_study(init, g1_model, [0.5, 0.05, 0.005], params)
    aggs = report.nu_dirichlet_aggregates
    assert aggs[0] > aggs[-1]
    assert report.passed


def test_nu_limit_study_validates_schedule(g1_model):
    grid = GridSpec(1, (8,), 1.0)
    init = make_initial("random", grid, g1_model, seed=1)
    params = SchemeParams(h=0.01, nu=0.5, n_steps=1)
    with pytest.raises(ValueError):
        nu_limit_study(init, g1_model, [0.1, 0.2], params)
    with pytest.raises(ValueError):
        nu_limit_study(init, g1_model, [], params)
    for bad in ([0.5, float("nan")], [float("inf"), 0.5], [0.5, -0.1]):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            nu_limit_study(init, g1_model, bad, params)


def test_nu_limit_study_passes_h_and_n_steps(g1_model, monkeypatch):
    grid = GridSpec(1, (16,), 1.0)
    init = make_initial("random", grid, g1_model, seed=1)
    h = 0.5 * h_star(g1_model)
    params = SchemeParams(h=h, nu=0.5, n_steps=2)
    seen = []

    def spy(init_state, model, p):
        seen.append(p)
        return run(init_state, model, p)

    monkeypatch.setattr(verify, "run", spy)
    nu_limit_study(init, g1_model, [0.5, 0.05], params)
    assert [p.nu for p in seen] == [0.5, 0.05]
    for p in seen:
        assert (p.h, p.n_steps) == (h, 2)


def test_nu_zero_included_as_last_entry(g1_model):
    grid = GridSpec(1, (16,), 1.0)
    init = make_initial("grains", grid, g1_model, seed=4)
    params = SchemeParams(h=0.5 * h_star(g1_model), nu=0.25, n_steps=5)
    report = nu_limit_study(init, g1_model, [0.25, 0.0], params)
    assert report.nu_dirichlet_aggregates[-1] == 0.0
    assert report.passed


# ---------------------------------------------------------------------------
# field generators
# ---------------------------------------------------------------------------

def test_random_fields_seeded_deterministic(grid_2d):
    a = random_smooth_field(grid_2d, np.random.default_rng(9), amplitude=0.7)
    b = random_smooth_field(grid_2d, np.random.default_rng(9), amplitude=0.7)
    assert np.array_equal(a.values, b.values)
    assert np.abs(a.values).max() <= 0.7 + 1e-12


def test_grains_field_distinct_values(grid_2d):
    f = random_grains_field(grid_2d, np.random.default_rng(3), n_grains=4,
                            amplitude=1.0)
    assert len(np.unique(f.values)) == 4
    assert np.abs(f.values).max() <= 1.0
    for n in (0, -2):
        with pytest.raises(ValueError, match="n_grains must be at least 1"):
            random_grains_field(grid_2d, np.random.default_rng(3), n_grains=n)


def test_grains_initial_state_admissible(g1_model):
    grid = GridSpec(2, (32, 32), 1.0)
    state = make_initial("grains", grid, g1_model, seed=6, n_grains=4)
    assert len(np.unique(state.theta.values)) == 4
    assert validate_initial(state, g1_model).passed

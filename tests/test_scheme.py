import collections
import os

import numpy as np
import pytest

from grainflow import (
    GridSpec,
    HGateError,
    MobilityKind,
    MobilitySpec,
    ModelSpec,
    PhaseState,
    Potential,
    PotentialSpec,
    ScalarField,
    SchemeParams,
    SolverError,
    h_star,
    run,
    validate_initial,
)
from grainflow.cli import (_initial_state, build_grid, build_model, build_scheme_params,
                           make_initial, parse_config)
from grainflow import scheme, thetastep, vstep
from grainflow.grid import Stencil, stencil
from grainflow.verify import check_dissipation
from grainflow.vstep import v_step
from grainflow_testkit import RecordingSink, model_for


def with_c2(value):
    return ModelSpec(
        PotentialSpec(Potential.POLYNOMIAL),
        MobilitySpec(MobilityKind.KOBAYASHI, kappa=1e-2),
        c2_norm=value,
    )


def test_h_star_formula():
    assert h_star(with_c2(0.25)) == pytest.approx(0.45)
    assert h_star(with_c2(10.0)) == pytest.approx(0.0225)
    values = [h_star(with_c2(L)) for L in (0.1, 0.5, 1.0, 2.0, 8.0)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_validate_initial(g1_model, g2_model, rng):
    grid = GridSpec(1, (16,), 1.0)
    good = PhaseState(
        ScalarField(grid, np.full(16, 0.5)),
        ScalarField(grid, np.full(16, 0.5)),
        ScalarField(grid, rng.uniform(-1.0, 1.0, size=16)),
    )
    assert validate_initial(good, g1_model).passed

    bad_w = PhaseState(
        ScalarField(grid, np.where(np.arange(16) == 3, 1.2, 0.5)),
        ScalarField(grid, np.full(16, 0.5)),
        ScalarField(grid, np.zeros(16)),
    )
    report = validate_initial(bad_w, g1_model)
    assert not report.passed
    assert any("o* <= w" in c.name for c in report.conditions if not c.passed)

    below = PhaseState(
        ScalarField(grid, np.full(16, 0.01)),  # below o* = 0.05
        ScalarField(grid, np.full(16, 0.5)),
        ScalarField(grid, np.zeros(16)),
    )
    assert not validate_initial(below, g2_model).passed


def test_equilibrium_run_is_constant(g1_model):
    grid = GridSpec(1, (24,), 1.0)
    init = make_initial("wells", grid, g1_model, seed=0)
    params = SchemeParams(h=0.5 * h_star(g1_model), nu=0.1, n_steps=8)
    sink = RecordingSink()
    traj = run(init, g1_model, params, sink=sink)
    for e in traj.energies:
        assert e.total == 0.0
    assert [step for step, _ in sink.snapshots] == list(range(1, 9))
    for _, st in sink.snapshots:
        assert np.array_equal(st.w.values, init.w.values)
        assert np.array_equal(st.theta.values, init.theta.values)


def test_run_rejects_bad_initial(g1_model):
    grid = GridSpec(1, (8,), 1.0)
    bad = PhaseState(
        ScalarField(grid, np.full(8, 1.5)),
        ScalarField(grid, np.full(8, 0.5)),
        ScalarField(grid, np.zeros(8)),
    )
    with pytest.raises(ValueError):
        run(bad, g1_model, SchemeParams(h=0.01, nu=0.1, n_steps=1))


def test_h_gate(g1_model, rng):
    grid = GridSpec(1, (16,), 1.0)
    init = make_initial("random", grid, g1_model, seed=3)
    hs = h_star(g1_model)
    with pytest.raises(HGateError):
        run(init, g1_model, SchemeParams(h=1.05 * hs, nu=0.1, n_steps=1))
    params = SchemeParams(h=1.05 * hs, nu=0.1, n_steps=2, override_h_gate=True)
    traj = run(init, g1_model, params)
    assert traj.outside_hypotheses


def test_validate_initial_examines_the_state_only():
    # a zero mobility floor belongs to the model: run flags it, the state passes
    model = ModelSpec(
        PotentialSpec(Potential.POLYNOMIAL),
        MobilitySpec(MobilityKind.KOBAYASHI, kappa=0.0),
    )
    state = make_initial("wells", GridSpec(1, (8,), 1.0), model, seed=0)
    report = validate_initial(state, model)
    assert report.passed and len(report.conditions) == 3


def test_unsafeguarded_mobility_flagged():
    model = ModelSpec(
        PotentialSpec(Potential.POLYNOMIAL),
        MobilitySpec(MobilityKind.KOBAYASHI, kappa=0.0),
    )
    grid = GridSpec(1, (12,), 1.0)
    init = make_initial("wells", grid, model, seed=0)
    traj = run(init, model, SchemeParams(h=0.5 * h_star(model), nu=0.1, n_steps=1))
    assert traj.outside_hypotheses


def test_a4_failure_flagged():
    # g2 (o* > 0) with Kobayashi mobilities breaks the corner sign table of
    # (A4); g1 with the same mobilities satisfies it
    grid = GridSpec(1, (12,), 1.0)
    for setting, flagged in (("g2", True), ("g1", False)):
        model = model_for(setting, "kobayashi")
        init = make_initial("random", grid, model, seed=0)
        traj = run(init, model, SchemeParams(h=0.5 * h_star(model), nu=0.1, n_steps=1))
        assert traj.outside_hypotheses is flagged


def test_benchmark_run_invariants(g1_model):
    from grainflow.verify import (
        check_box,
        check_dissipation,
        check_energy_bound,
        check_linfty,
    )

    grid = GridSpec(1, (32,), 1.0)
    init = make_initial("random", grid, g1_model, seed=11)
    params = SchemeParams(h=0.5 * h_star(g1_model), nu=0.1, n_steps=30,
                          record_every=10)
    traj = run(init, g1_model, params)
    assert check_dissipation(traj).passed
    assert check_box(traj).passed
    assert check_linfty(traj).passed
    assert check_energy_bound(traj, g1_model, grid).passed


def test_telescoped_energy_estimate(g1_model):
    # summing the per-step dissipation identity over the run: the total
    # increment penalties plus the final energy stay below the initial energy
    grid = GridSpec(1, (32,), 1.0)
    init = make_initial("random", grid, g1_model, seed=13)
    params = SchemeParams(h=0.5 * h_star(g1_model), nu=0.1, n_steps=40,
                          record_every=40)
    traj = run(init, g1_model, params)
    total_diss = sum(r.diss_v + r.diss_theta for r in traj.reports)
    f0 = traj.energies[0].total
    f_end = traj.energies[-1].total
    slack = traj.n_steps * 1e-8 * (1.0 + abs(f0))
    assert total_diss + f_end <= f0 + slack
    assert total_diss >= 0.0


def test_run_deterministic_bitwise(g1_model):
    grid = GridSpec(1, (24,), 1.0)
    params = SchemeParams(h=0.5 * h_star(g1_model), nu=0.1, n_steps=6)
    s1, s2 = RecordingSink(), RecordingSink()
    t1 = run(make_initial("random", grid, g1_model, seed=5), g1_model, params, sink=s1)
    t2 = run(make_initial("random", grid, g1_model, seed=5), g1_model, params, sink=s2)
    assert [step for step, _ in s1.snapshots] == [step for step, _ in s2.snapshots]
    for (_, a), (_, b) in zip(s1.snapshots, s2.snapshots):
        assert np.array_equal(a.w.values, b.w.values)
        assert np.array_equal(a.eta.values, b.eta.values)
        assert np.array_equal(a.theta.values, b.theta.values)
    assert [e.total for e in t1.energies] == [e.total for e in t2.energies]


def test_step_errors_carry_index(g1_model, monkeypatch):
    # 2D, where PDHG runs: five sweeps cannot meet the run's gap budget,
    # while in 1D the exact dual Newton solve meets it without a sweep
    grid = GridSpec(2, (4, 4), 1.0)
    init = make_initial("random", grid, g1_model, seed=7)
    params = SchemeParams(h=0.5 * h_star(g1_model), nu=0.1, n_steps=3)
    monkeypatch.setattr(thetastep, "_MAX_ITERS", 5)
    with pytest.raises(SolverError, match=r"^step 1: gap .* above tolerance after 5 "):
        run(init, g1_model, params)


def test_fused_v_step_failure_names_the_step(g1_model, monkeypatch):
    grid = GridSpec(1, (16,), 1.0)
    init = make_initial("random", grid, g1_model, seed=7)
    params = SchemeParams(h=0.5 * h_star(g1_model), nu=0.1, n_steps=3)
    monkeypatch.setattr(vstep, "_MAX_INNER", 3)
    with pytest.raises(SolverError, match=r"^step 1: inner proximal gradient .* in 3 "):
        run(init, g1_model, params)


def test_run_calls_the_fused_v_step_by_its_module_name(g1_model, monkeypatch):
    # the traced benchmark times the v-step by replacing scheme.v_step
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return v_step(*args, **kwargs)

    monkeypatch.setattr(scheme, "v_step", counted)
    grid = GridSpec(1, (16,), 1.0)
    params = SchemeParams(h=0.5 * h_star(g1_model), nu=0.1, n_steps=4)
    traj = run(make_initial("random", grid, g1_model, seed=7), g1_model, params)
    assert calls == [{"fused": True}] * 4
    assert all(r.v_outer_iters == r.v_inner_iters >= 1 for r in traj.reports)


def test_run_builds_each_stencil_once(g1_model, monkeypatch):
    # the v-step and the theta-step share grid.stencil's cached instances
    # instead of building a stencil per step
    built = collections.Counter()
    init = Stencil.__init__

    def counted(self, shape, dx, fields=1):
        built[tuple(shape), dx, fields] += 1
        init(self, shape, dx, fields)

    monkeypatch.setattr(Stencil, "__init__", counted)
    stencil.cache_clear()
    g = GridSpec(2, (8, 8), 1.0)
    params = SchemeParams(h=0.5 * h_star(g1_model), nu=0.0, n_steps=100, record_every=100)
    run(make_initial("grains", g, g1_model, seed=3), g1_model, params)
    assert built == {((8, 8), 1.0, 1): 1, ((8, 8), 1.0, 2): 1}


# ---------------------------------------------------------------------------
# the PDHG start ratio the time loop learns
# ---------------------------------------------------------------------------

def test_learned_start_ratio_run_is_deterministic(g1_model):
    grid = GridSpec(2, (16, 16), 1.0)
    params = SchemeParams(h=0.5 * h_star(g1_model), nu=0.0, n_steps=24, record_every=24)
    runs = []
    for _ in range(2):
        sink = RecordingSink()
        traj = run(make_initial("random", grid, g1_model, seed=5), g1_model, params, sink=sink)
        runs.append((traj, sink.snapshots[-1][1]))
    (t1, s1), (t2, s2) = runs
    assert len({r.theta_start_ratio for r in t1.reports}) > 1  # the ratio moved
    assert [r.theta_iters for r in t1.reports] == [r.theta_iters for r in t2.reports]
    assert [r.theta_start_ratio for r in t1.reports] == [r.theta_start_ratio for r in t2.reports]
    for name in ("w", "eta", "theta"):
        assert np.array_equal(getattr(s1, name).values, getattr(s2, name).values)


@pytest.mark.parametrize("power, bound", [(1.0, 1.0 / 64.0), (-1.0, 8.0)])
def test_learned_start_ratio_stays_in_bounds(g1_model, monkeypatch, power, bound):
    # solves rigged so that a smaller (power 1) or larger (power -1) start
    # ratio always takes fewer sweeps: the ratio runs to its bound and stops
    r0 = 0.0625

    class Rigged(scheme.WarmStart):
        def propose(self):
            self.proposed = super().propose()
            return self.proposed

        def learn(self, sweeps):
            super().learn(round(1000 * (self.proposed / r0) ** power))

    monkeypatch.setattr(scheme, "WarmStart", Rigged)
    grid = GridSpec(2, (4, 4), 1.0)
    params = SchemeParams(h=0.5 * h_star(g1_model), nu=0.1, n_steps=100, record_every=100)
    traj = run(make_initial("random", grid, g1_model, seed=7), g1_model, params)
    ratios = [r.theta_start_ratio for r in traj.reports]
    assert all(r0 / 64.0 <= r <= 8.0 * r0 for r in ratios)
    assert ratios[-1] == bound * r0


def test_newton_certified_run_never_teaches_the_start_ratio(g1_model, monkeypatch):
    seen = []

    class Watched(scheme.WarmStart):
        def learn(self, sweeps):
            before = dict(vars(self), due=dict(self.due), wait=dict(self.wait))
            super().learn(sweeps)
            seen.append((sweeps, before == vars(self)))

    monkeypatch.setattr(scheme, "WarmStart", Watched)
    grid = GridSpec(1, (32,), 1.0)
    params = SchemeParams(h=0.5 * h_star(g1_model), nu=0.1, n_steps=30, record_every=30)
    traj = run(make_initial("random", grid, g1_model, seed=11), g1_model, params)
    assert seen == [(0, True)] * 30
    assert {r.theta_start_ratio for r in traj.reports} == {0.0625}


# ---------------------------------------------------------------------------
# theta-steps that once cycled through the stall rule without converging
# ---------------------------------------------------------------------------

def run_shipped_config(name, overrides):
    """scheme.run on configs/<name> with [section] key overrides and its own
    initial data.  The theta sweep cap of 100,000 makes a return of the
    start-ratio/floor cycle fail in seconds; the worst of these steps needs
    26,875 sweeps."""
    cfg = parse_config(os.path.join(os.path.dirname(__file__), os.pardir, "configs", name))
    for (section, key), value in overrides.items():
        cfg.sections[section][key] = value
    model, grid = build_model(cfg), build_grid(cfg)
    params = build_scheme_params(cfg, model)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(thetastep, "_MAX_ITERS", 100_000)
        return run(_initial_state(cfg, grid, model), model, params)


def test_logarithmic_seed_3_passes_step_71():
    traj = run_shipped_config("logarithmic.cfg", {("init", "seed"): "3",
                                                  ("scheme", "n_steps"): "71"})
    assert traj.n_steps == 71
    assert check_dissipation(traj).passed


def test_grains_96x96_first_step():
    traj = run_shipped_config("benchmark-2d.cfg", {("grid", "shape"): "96x96",
                                                   ("scheme", "n_steps"): "1"})
    assert traj.nu == 0.1
    assert check_dissipation(traj).passed


# ---------------------------------------------------------------------------
# the h -> 0 limit of the time-discrete scheme
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nu", [0.0, 0.1])
@pytest.mark.parametrize("setting", ["g1", "g2", "g3"])
def test_final_state_converges_at_first_order_in_h(setting, nu):
    # runs to one final time T = 20 h*/2 at h = h*/2, h*/4, h*/8 and h*/16:
    # the RMS differences of successive final (w, eta, theta) halve with h
    # (ratios 1.97-2.03); a v-step data term scaled as 1/sqrt(h) instead of
    # 1/h gives ratios of 0.78-3.84
    model, grid = model_for(setting), GridSpec(1, (64,), 1.0)
    init = make_initial("random", grid, model, seed=20240801)
    finals = []
    for k in range(1, 5):
        sink, n_steps = RecordingSink(), 10 * 2**k
        run(init, model, SchemeParams(h=h_star(model) / 2**k, nu=nu, n_steps=n_steps,
                                      record_every=n_steps), sink=sink)
        state = sink.snapshots[-1][1]
        finals.append(np.concatenate([state.w.values, state.eta.values, state.theta.values]))
    rms = [float(np.sqrt(np.mean((a - b) ** 2))) for a, b in zip(finals, finals[1:])]
    ratios = [a / b for a, b in zip(rms, rms[1:])]
    assert all(abs(r - 2.0) <= 0.1 for r in ratios), ratios


# ---------------------------------------------------------------------------
# the sink: the one way run hands out states
# ---------------------------------------------------------------------------

def short_run(record_every):
    """A 5-step g1 run and the sink that recorded it."""
    model = model_for("g1")
    grid = GridSpec(1, (24,), 1.0)
    init = make_initial("random", grid, model, seed=2)
    params = SchemeParams(h=0.5 * h_star(model), nu=0.1, n_steps=5,
                          record_every=record_every)
    sink = RecordingSink()
    traj = run(init, model, params, sink=sink)
    return init, traj, sink


@pytest.fixture(scope="module")
def every_step():
    return short_run(record_every=1)


def test_sink_receives_every_step_and_the_record_steps(every_step):
    _, _, dense = every_step
    _, _, sparse = short_run(record_every=2)
    assert sparse.steps == [1, 2, 3, 4, 5]
    assert [step for step, _ in sparse.snapshots] == [2, 4, 5]
    states = dict(dense.snapshots)
    for step, st in sparse.snapshots:
        assert np.array_equal(st.w.values, states[step].w.values)
        assert np.array_equal(st.eta.values, states[step].eta.values)
        assert np.array_equal(st.theta.values, states[step].theta.values)


def test_interpolation_gap_bound(every_step):
    # sup_t |vbar - vhat| = max_i |dv_i| <= sqrt(h) * ||(vhat)_t||_{L2 L2}
    init, traj, sink = every_step
    h = traj.h
    vol = init.grid.cell_volume
    states = [init] + [st for _, st in sink.snapshots]
    assert len(states) == traj.n_steps + 1
    incr = []
    for i in range(1, traj.n_steps + 1):
        a, b = states[i - 1], states[i]
        dw = b.w.values - a.w.values
        de = b.eta.values - a.eta.values
        incr.append(np.sqrt((np.sum(dw**2) + np.sum(de**2)) * vol))
    lhs = max(incr)
    rhs = np.sqrt(h) * np.sqrt(sum((d / h) ** 2 * h for d in incr))
    assert lhs <= rhs + 1e-14


def test_scheme_params_validation(g1_model):
    with pytest.raises(ValueError):
        SchemeParams(h=0.0)
    with pytest.raises(ValueError):
        SchemeParams(h=0.1, nu=-0.1)
    with pytest.raises(ValueError):
        SchemeParams(h=0.1, n_steps=0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^nu must be finite"):
            SchemeParams(h=0.1, nu=bad)
        with pytest.raises(ValueError, match="^h must be finite"):
            SchemeParams(h=bad)

"""Each output check rejects a corrupted copy of real outputs, and the
traced run counts what the program reports and leaves the program as it was.

Run from the root of the checkout:  python3 -m pytest perfbench/tests -q
"""

import os
import shutil

import numpy as np
import pytest

import checks
from grainflow import scheme, verify
from trace_layers import Tracer
from workloads import WORKLOADS, run_workload


def with_steps(spec, n_steps):
    """A copy of a workload with a shorter trajectory."""
    scheme = dict(spec["scheme"], n_steps=n_steps,
                  record_every=min(spec["scheme"]["record_every"], n_steps))
    return dict(spec, scheme=scheme)


RUN_SPEC = with_steps(WORKLOADS["logwell1d"], 4)
GRAINS_SPEC = with_steps(WORKLOADS["grains2d"], 32)
SWEEP_SPEC = dict(with_steps(WORKLOADS["nusweep1d"], 4), nus=(0.5, 2.0**-8))


@pytest.fixture(scope="module")
def run_outputs(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("run"))
    run_workload(RUN_SPEC, 7, workdir)
    return os.path.join(workdir, "out")


@pytest.fixture(scope="module")
def grains_outputs(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("grains"))
    run_workload(GRAINS_SPEC, 7, workdir)
    return os.path.join(workdir, "out")


@pytest.fixture(scope="module")
def sweep_outputs(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("sweep"))
    run_workload(SWEEP_SPEC, 7, workdir)
    return (os.path.join(workdir, "out"),
            checks.load_initial(os.path.join(workdir, "initial.npz")))


@pytest.fixture
def run_copy(run_outputs, tmp_path):
    return shutil.copytree(run_outputs, tmp_path / "out")


def failed(results):
    return {c.name for c in results if not c.passed}


def rewrite_values(path, edit):
    """Replaces the non-comment lines of an output file by edit(lines)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    head = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    with open(path, "w") as fh:
        fh.write("\n".join(head + edit(body)) + "\n")


def edit_snapshot(outdir, step, field, fn):
    def edit(body):
        values = fn(np.array([float(x) for x in body]))
        return [repr(float(v)) for v in values]
    rewrite_values(os.path.join(outdir, f"step_{step:06d}_{field}.csv"), edit)


def test_real_outputs_pass(run_outputs, grains_outputs, sweep_outputs):
    assert failed(checks.check_run(RUN_SPEC, run_outputs)) == set()
    assert failed(checks.check_run(GRAINS_SPEC, grains_outputs)) == set()
    outdir, initial = sweep_outputs
    assert failed(checks.check_sweep(SWEEP_SPEC, outdir, initial)) == set()


def test_energy_row_above_dissipation_bound_is_rejected(run_copy):
    def edit(body):
        header, rows = body[0], [row.split(",") for row in body[1:]]
        col = header.split(",").index("total")
        rows[2][col] = repr(float(rows[1][col]) + 1e-6)  # F_2 above F_1
        return [header] + [",".join(row) for row in rows]
    rewrite_values(os.path.join(run_copy, "energy.csv"), edit)
    assert {"dissipation", "energy recomputed"} <= failed(checks.check_run(RUN_SPEC, run_copy))


def test_w_past_iota_star_is_rejected(run_copy):
    iota = RUN_SPEC["model"]["iota_star"]

    def push(w):
        w[10] = iota + 1e-6
        return w
    edit_snapshot(run_copy, 3, "w", push)
    assert "box" in failed(checks.check_run(RUN_SPEC, run_copy))


def test_theta_scaled_is_rejected(grains_outputs, tmp_path):
    # after about 30 steps on grains the largest |theta| drops by less than
    # 1% a step, so the scaling breaks the maximum principle as well as the
    # logged energy
    copy = shutil.copytree(grains_outputs, tmp_path / "out")
    edit_snapshot(copy, 31, "theta", lambda t: 1.01 * t)
    assert {"maximum principle", "energy recomputed"} <= failed(
        checks.check_run(GRAINS_SPEC, copy))


def test_missing_snapshot_is_rejected(run_copy):
    os.remove(os.path.join(run_copy, "step_000004_eta.csv"))
    assert failed(checks.check_run(RUN_SPEC, run_copy)) == {"all steps written"}


def test_aggregate_above_bound_is_rejected(sweep_outputs, tmp_path):
    outdir, initial = sweep_outputs
    copy = shutil.copytree(outdir, tmp_path / "out")
    spec = SWEEP_SPEC
    grid = spec["grid"]
    volume = float(np.prod(grid["shape"])) * grid["dx"] ** grid["dim"]
    horizon = spec["scheme"]["n_steps"] * checks.step_size(spec)
    nu = spec["nus"][1]
    bound = horizon * (checks.free_energy(spec, nu, initial["w"], initial["eta"],
                                          initial["theta"])
                       - checks.energy_floor(spec["model"]) * volume)

    def edit(body):
        rows = [row.split(",") for row in body[1:]]
        rows[1][2] = repr(1.01 * bound)  # wtv aggregate of the second nu
        return body[:1] + [",".join(row) for row in rows]
    rewrite_values(os.path.join(copy, "sweep.csv"), edit)
    assert failed(checks.check_sweep(spec, copy, initial)) == {"aggregate bound"}


def test_traced_round_counts_every_step_and_restores_the_program(tmp_path):
    originals = (scheme.run, scheme.v_step, scheme.theta_step, verify.run)
    tracer = Tracer()
    run_workload(RUN_SPEC, 7, str(tmp_path), tracer)
    layers = tracer.metrics(1.0, str(tmp_path / "out"))
    assert (scheme.run, scheme.v_step, scheme.theta_step, verify.run) == originals
    assert layers["scheme.steps"][0] == RUN_SPEC["scheme"]["n_steps"]
    assert layers["model.gamma_prox.calls"][0] == layers["vstep.inner_iters"][0] > 0
    assert layers["thetastep.pdhg_sweeps"][0] > 0
    assert 0.0 < layers["vstep.self_s"][0] < layers["vstep.s"][0]
    assert layers["cli.output_bytes"][0] == sum(
        f.stat().st_size for f in (tmp_path / "out").iterdir())

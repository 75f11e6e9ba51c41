"""The benchmark's workloads, and the process that runs one of them.

Each workload is one problem for the grainflow time loop, fixed here in full;
the benchmark seed only draws a small uniform perturbation of its initial
state (see README.md for why).  Run as a script, this module is the child
process the benchmark starts once per round:

    python3 perfbench/workloads.py --workload grains2d --seed 1 \
        --dir .perfbench_out/grains2d/round --trace 0 --t0 <CLOCK_MONOTONIC>

It writes the config it runs, the program's outputs under ``<dir>/out``,
the perturbed initial state and ``<dir>/result.json`` with the clock
readings, the peak resident memory and, with ``--trace 1``, the per-layer
figures.  Importing it does nothing but define the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

# the initial data of every workload is the program's own generator at this
# seed, plus the seeded perturbation below
BASE_SEED = 20240801
PERTURBATION = 1e-3

_G1_KOBAYASHI = {"potential": "g1", "c": 1.0, "u": 0.0, "o_star": 0.0,
                 "iota_star": 1.0, "mobility": "kobayashi", "kappa": 0.01}

WORKLOADS = {
    "grains2d": {
        "command": "run",
        "model": _G1_KOBAYASHI,
        "grid": {"dim": 2, "shape": (32, 32), "dx": 1.0},
        "scheme": {"h_frac": 0.5, "nu": 0.0, "n_steps": 100, "record_every": 1},
        "init": {"kind": "grains", "amplitude": 0.8, "n_grains": 4},
    },
    "logwell1d": {
        "command": "run",
        "model": {"potential": "g2", "c": 1.0, "u": 0.0, "o_star": 0.05,
                  "iota_star": 0.95, "mobility": "constant", "a0": 1.0, "a": 1.0,
                  "b": 1.0},
        "grid": {"dim": 1, "shape": (64,), "dx": 1.0},
        "scheme": {"h_frac": 0.5, "nu": 0.1, "n_steps": 100, "record_every": 1},
        "init": {"kind": "random", "amplitude": 0.8, "n_grains": 4},
    },
    "nusweep1d": {
        "command": "sweep-nu",
        "model": _G1_KOBAYASHI,
        "grid": {"dim": 1, "shape": (64,), "dx": 1.0},
        "scheme": {"h_frac": 0.5, "nu": 0.0, "n_steps": 100, "record_every": 100},
        "init": {"kind": "random", "amplitude": 0.8, "n_grains": 4},
        "nus": tuple(2.0**-k for k in range(1, 9)),
    },
}


def operations(spec: dict) -> int:
    """Time steps one round attempts: the operations counted in a result."""
    return spec["scheme"]["n_steps"] * len(spec.get("nus", (None,)))


def config_text(spec: dict, seed: int) -> str:
    """The workload as a grainflow config file."""
    sections = {
        "model": spec["model"],
        "grid": dict(spec["grid"], shape="x".join(str(n) for n in spec["grid"]["shape"])),
        "scheme": spec["scheme"],
        "init": dict(spec["init"], seed=BASE_SEED),
        "output": {"directory": "out", "formats": "csv"},
    }
    if "nus" in spec:
        sections["sweep"] = {"nus": ",".join(repr(nu) for nu in spec["nus"])}
    lines = [f"# perfbench workload, perturbation seed {seed}"]
    for name, entries in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in entries.items())
    return "\n".join(lines) + "\n"


def perturb(state, model, seed: int):
    """The initial state plus seeded uniform noise of size PERTURBATION,
    kept inside the admissible box."""
    import numpy as np
    from grainflow import PhaseState, ScalarField

    rng = np.random.default_rng(abs(seed))

    def shifted(field, lo=-np.inf, hi=np.inf):
        noise = rng.uniform(-PERTURBATION, PERTURBATION, size=field.values.shape)
        return ScalarField(field.grid, np.clip(field.values + noise, lo, hi))

    return PhaseState(shifted(state.w, model.o_star, model.iota_star),
                      shifted(state.eta, 0.0, 1.0), shifted(state.theta))


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_workload(spec: dict, seed: int, workdir: str, tracer=None) -> dict:
    """Runs one round the way ``grainflow run`` / ``grainflow sweep-nu`` do
    and returns the clock readings and counts of interest.  With a tracer,
    every layer boundary is timed (see trace_layers.py)."""
    import numpy as np
    from grainflow import cli, energy, scheme, verify

    outdir = os.path.join(workdir, "out")
    cfg_path = os.path.join(workdir, "workload.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(config_text(spec, seed))

    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.instrument())
        cfg = cli.parse_config(cfg_path)
        with _span(tracer, "model.constants"):
            model = cli.build_model(cfg)
        if tracer is not None:
            model = tracer.timed_model(model)
        grid = cli.build_grid(cfg)
        params = cli.build_scheme_params(cfg, model)
        init = spec["init"]
        state = cli.make_initial(init["kind"], grid, model, seed=BASE_SEED,
                                 amplitude=init["amplitude"], n_grains=init["n_grains"])
        state = perturb(state, model, seed)

        if spec["command"] == "run":
            sink = cli.OutputSink(outdir, cfg.digest, seed, ("csv",))
            if tracer is not None:
                sink = tracer.timed_sink(sink)
            try:
                sink.write_initial(state, energy.free_energy(state, model, params.nu))
                t_loop = _now()
                traj = scheme.run(state, model, params, sink=sink)
            finally:
                sink.close()
            steps = traj.n_steps
        else:
            t_loop = _now()
            report = verify.nu_limit_study(state, model, spec["nus"], params)
            os.makedirs(outdir, exist_ok=True)
            with _span(tracer, "cli.output"), \
                    open(os.path.join(outdir, "sweep.csv"), "w") as fh:
                fh.write(f"# config {cfg.digest} seed {seed}\n")
                fh.write("nu,nu_dirichlet_aggregate,wtv_aggregate\n")
                for nu, agg, wtv in zip(report.nus, report.nu_dirichlet_aggregates,
                                        report.wtv_aggregates):
                    fh.write(f"{nu!r},{agg!r},{wtv!r}\n")
            steps = len(report.nus) * params.n_steps
        t_end = _now()

    np.savez(os.path.join(workdir, "initial.npz"), w=state.w.values,
             eta=state.eta.values, theta=state.theta.values)
    return {"t_loop": t_loop, "t_end": t_end, "steps": steps, "peak_rss_kb": _peak_rss_kb()}


def _peak_rss_kb() -> int:
    """High-water resident set of this process's own address space.
    (getrusage's ru_maxrss would also count the parent's resident set, which
    Linux carries over at exec.)"""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken just before this process started")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from trace_layers import Tracer
        tracer = Tracer()
    result = run_workload(WORKLOADS[args.workload], args.seed, args.dir, tracer)
    result["t0"] = args.t0
    if tracer is not None:
        result["layers"] = tracer.metrics(result["t_end"] - args.t0,
                                          os.path.join(args.dir, "out"))
    with open(os.path.join(args.dir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

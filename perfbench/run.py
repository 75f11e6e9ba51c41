"""grainflow benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload grains2d --seed 20240801 --seconds 15 --trace 0

Run from the root of a grainflow checkout.  Each round starts a fresh
process (perfbench/workloads.py) that runs the workload once, single
threaded; rounds repeat until ``--seconds`` have passed.  After every round
the outputs are checked against the benchmark's own computations
(perfbench/checks.py).  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": <time steps>, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
rounds: ``wall_s`` (process start to the command's return), ``setup_s``
(process start to the first time step) and ``peak_rss_mb``.  With
``--trace 1`` they are the per-layer figures of perfbench/trace_layers.py,
medians over the rounds.  Outputs and the per-round trace go to
``.perfbench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import checks
from workloads import BASE_SEED, WORKLOADS, operations

HERE = os.path.dirname(os.path.abspath(__file__))
BUDGET_S = 170.0  # a run ends well inside 180 s, whatever --seconds says


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_round(name: str, seed: int, trace: int, workdir: str, root: str,
              timeout: float) -> dict:
    """One fresh process running the workload once; returns its result with
    the checks of its outputs.  Raises RuntimeError if the process fails."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    t0 = _now()
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", name,
           "--seed", str(seed), "--dir", workdir, "--trace", str(trace), "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, env=_child_env(root), cwd=root, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{name}: round did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{name}: round exited with {proc.returncode}:\n{proc.stderr}")
    with open(os.path.join(workdir, "result.json")) as fh:
        result = json.load(fh)
    spec = WORKLOADS[name]
    outdir = os.path.join(workdir, "out")
    if spec["command"] == "run":
        result["checks"] = checks.check_run(spec, outdir)
    else:
        initial = checks.load_initial(os.path.join(workdir, "initial.npz"))
        result["checks"] = checks.check_sweep(spec, outdir, initial)
    return result


def _metrics(rounds: list, trace: int) -> dict:
    if trace:
        names = rounds[0]["layers"]
        return {key: {"value": statistics.median(r["layers"][key][0] for r in rounds),
                      "unit": names[key][1]} for key in names}
    return {
        "wall_s": {"value": statistics.median(r["t_end"] - r["t0"] for r in rounds),
                   "unit": "s"},
        "setup_s": {"value": statistics.median(r["t_loop"] - r["t0"] for r in rounds),
                    "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_kb"] / 1024.0 for r in rounds),
                        "unit": "MB"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=BASE_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps the
    # round's process before this one exits
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    start = _now()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "grainflow", "__init__.py")):
        return _fail(f"no grainflow sources under {os.path.join(root, 'src')}; "
                     "run from the root of a checkout")
    base = os.path.join(root, ".perfbench_out", args.workload)
    workdir = os.path.join(base, "round")
    spec = WORKLOADS[args.workload]

    rounds = []
    while True:
        elapsed = _now() - start
        try:
            result = run_round(args.workload, args.seed, args.trace, workdir, root,
                               timeout=BUDGET_S - elapsed)
        except RuntimeError as err:
            return _fail(str(err))
        if result["steps"] != operations(spec):
            return _fail(f"round ran {result['steps']} of {operations(spec)} steps")
        rounds.append(result)
        for c in result["checks"]:
            if not c.passed:
                print(f"perfbench: check failed in round {len(rounds)}: {c.name}: "
                      f"{c.detail}", file=sys.stderr)
        elapsed = _now() - start
        last = _now() - result["t0"]
        if elapsed >= args.seconds or elapsed + 1.5 * last > BUDGET_S:
            break
    shutil.rmtree(workdir, ignore_errors=True)

    record = [{k: v for k, v in r.items() if k != "checks"} for r in rounds]
    with open(os.path.join(base, f"rounds-trace{args.trace}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "rounds": record}, fh,
                  indent=1)
    correct = all(c.passed for r in rounds for c in r["checks"])
    print(json.dumps({
        "correct": correct,
        "attempted": operations(spec) * len(rounds),
        "failed": 0,
        "metrics": _metrics(rounds, args.trace),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

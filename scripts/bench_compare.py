"""Before/after record of the benchmark: the unchanged perfbench/run.py run
alternately on two commits, for every workload.

    python3 scripts/bench_compare.py --parent HEAD~1 --change HEAD \
        --pairs 10 --out BENCH.json

Run from the root of a grainflow git checkout.  Each side is a fresh copy of
the commit's tracked files (``git archive``) in a temporary directory, so
neither side runs from the working tree, and both copies hold the same
files.  For every workload of perfbench/workloads.py, every pair runs
``python3 perfbench/run.py --workload W --trace 0`` on both sides, at the
benchmark's own seed and run length, the parent first in even pairs and the
change first in odd ones; then one pair runs with ``--trace 1``.  A run that
exits non-zero, or reports ``correct: false`` or a failed operation, stops
the script.

The record holds every run's metrics, each side's median and quartiles
(``statistics.quantiles(n=4, method='inclusive')``), the number of pairs
in which the change read lower, and the machine: CPU count, Python and
numpy versions.  Each end-to-end summary also says whether the change
clears the bar BENCHMARK.json sets for that metric:

- ``median_change``: (change median - parent median) / parent median;
- ``claim_met``: the change is better in at least 9 of 10 pairs, and its
  median is better than the parent's by more than the parent's IQR;
- ``worse_than_bound``: the change's median is worse than the parent's by
  more than the metric's ``bound`` (a fraction of the parent's median).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

import numpy as np

sys.dont_write_bytecode = True  # import the workload list without writing into perfbench/
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                                "perfbench"))
from workloads import BASE_SEED, WORKLOADS  # noqa: E402

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "BENCHMARK.json")) as _fh:
    END_TO_END = {m["name"]: m for m in json.load(_fh)["end_to_end"]}


def git(*args) -> str:
    return subprocess.run(("git",) + args, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: str) -> str:
    """Writes the tracked files of rev into dest; returns the full hash."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    os.makedirs(dest)
    archive = subprocess.run(("git", "archive", commit), check=True, capture_output=True).stdout
    subprocess.run(("tar", "-x", "-C", dest), input=archive, check=True)
    return commit


def bench(root: str, workload: str, trace: int) -> dict:
    """One perfbench/run.py run in root; returns its metrics by name."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{root}: {workload} trace {trace}: {result}")
    return {name: round(m["value"], 4) for name, m in result["metrics"].items()}


def alternate(roots: dict, workload: str, trace: int, pairs: int) -> list:
    runs = []
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {side: bench(roots[side], workload, trace) for side in order}
        runs.append(pair)
        print(f"{workload} trace {trace} pair {i + 1}/{pairs}: "
              + ", ".join(f"{side} {pair[side].get('wall_s', pair[side].get('traced.wall_s')):.3f}"
                          for side in order), file=sys.stderr, flush=True)
    return runs


def quartiles(values: list) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def summary(runs: list, names) -> dict:
    out = {}
    for name in names:
        sides = {side: [r[side][name] for r in runs] for side in ("parent", "change")}
        lower = sum(c < p for p, c in zip(sides["parent"], sides["change"]))
        out[name] = {side: quartiles(v) for side, v in sides.items()}
        out[name]["change_lower_in"] = f"{lower} of {len(runs)}"
        if name in END_TO_END:
            out[name].update(verdict(sides, out[name], END_TO_END[name]))
    return out


def verdict(sides: dict, entry: dict, metric: dict) -> dict:
    """The summary fields that say whether the change clears the bar of
    ``metric``, an end_to_end entry of BENCHMARK.json."""
    parent, change = entry["parent"], entry["change"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    gain = sign * (parent["median"] - change["median"])  # > 0: the change is better
    wins = sum(sign * (p - c) > 0 for p, c in zip(sides["parent"], sides["change"]))
    pairs = len(sides["parent"])
    return {
        "median_change": round((change["median"] - parent["median"]) / parent["median"], 4),
        "claim_met": wins >= 0.9 * pairs and gain > parent["q3"] - parent["q1"],
        "worse_than_bound": -gain > metric["bound"] * parent["median"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD~1")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--note", action="append", default=[],
                        help="a line of text for the record's notes (repeatable)")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with tempfile.TemporaryDirectory(prefix="bench_compare_") as tmp:
        roots = {side: os.path.join(tmp, side) for side in ("parent", "change")}
        commits = {side: export(getattr(args, side), roots[side]) for side in roots}
        record = {
            "description": (
                "Alternated parent/change runs of the unchanged `python3 perfbench/run.py "
                "--workload W --trace T` at its default seed and run length, each side from a git archive of its commit, PYTHONDONTWRITEBYTECODE=1, "
                "made by scripts/bench_compare.py. Pair i runs the parent first when i is "
                "even and the change first when i is odd. Every run passed its output "
                "checks (correct: true, failed: 0). Quartiles are "
                "statistics.quantiles(n=4, method='inclusive')."),
            "parent_commit": commits["parent"],
            "change_commit": commits["change"],
            "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "numpy": np.__version__},
            "end_to_end": [],
            "traced": {},
            "notes": args.note,
        }
        for workload in WORKLOADS:
            runs = alternate(roots, workload, 0, args.pairs)
            record["end_to_end"].append({"workload": workload, "seed": BASE_SEED,
                                         "summary": summary(runs, END_TO_END),
                                         "pairs": runs})
        for workload in WORKLOADS:
            runs = alternate(roots, workload, 1, 1)
            record["traced"][workload] = {"summary": summary(runs, runs[0]["parent"]),
                                          "pairs": runs}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

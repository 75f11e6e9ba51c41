"""Whether two commits write the same outputs: every benchmark workload and
every grainflow subcommand on every shipped config, compared byte for byte.

    python3 scripts/compare_outputs.py --parent HEAD~1 --change HEAD

Run from the root of a grainflow git checkout.  Each side is a fresh copy of
the commit's tracked files (``bench_compare.export``) in a temporary
directory.  On each side the script runs, from the copy's root:

- ``python3 perfbench/workloads.py --workload W --seed 1`` for every workload
  of perfbench/workloads.py;
- ``grainflow run`` / ``verify`` / ``sweep-nu`` / ``probe-contraction``, and
  ``probe-contraction --override-h-gate``, the one command that drives the
  Picard v-step at 2h*, with ``--config`` each ``configs/*.cfg`` of the change;
- ``python3 -m pytest tests/test_acceptance.py -q -s``, the side's own
  acceptance suite.

Every command but the last writes into its own directory outside the copies.
The script then compares the two sides' directories file by file, and each
command's stdout and exit status with the side's output path masked.  Of the
acceptance suite it compares the exit status and the ``[PASS]/[FAIL]
criterion N: ...`` lines, with every seconds figure masked.  A workload's
``result.json`` holds clock readings and peak memory and is left out; an
``.npz`` is compared member by member, since its zip headers hold the write
time.  The script prints each file that differs and exits 1 if any does.
"""

from __future__ import annotations

import argparse
import glob
import os
import re
import subprocess
import sys
import tempfile
import time
import zipfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_compare import WORKLOADS, export  # noqa: E402

SEED = 1
SUBCOMMANDS = {"run": ["run"], "verify": ["verify"], "sweep-nu": ["sweep-nu"],
               "probe-contraction": ["probe-contraction"],
               "probe-contraction-2hstar": ["probe-contraction", "--override-h-gate"]}
GRAINFLOW = "import sys; from grainflow.cli import main; sys.exit(main(sys.argv[1:]))"
ACCEPTANCE = ["-m", "pytest", "tests/test_acceptance.py", "-q", "-s"]
CRITERION = re.compile(r"\[(?:PASS|FAIL)\] criterion \d+: .*")
SECONDS = re.compile(r"\d+(?:\.\d+)?s\b")


def commands(root: str) -> dict:
    """Each command of a side by the name of its output directory; the
    output directory is the final argument."""
    out = {f"workload-{w}": [sys.executable, "perfbench/workloads.py", "--workload", w,
                             "--seed", str(SEED), "--t0",
                             repr(time.clock_gettime(time.CLOCK_MONOTONIC)), "--dir"]
           for w in WORKLOADS}
    for cfg in sorted(glob.glob(os.path.join(root, "configs", "*.cfg"))):
        name = os.path.splitext(os.path.basename(cfg))[0]
        for sub, args in SUBCOMMANDS.items():
            out[f"{sub}-{name}"] = [sys.executable, "-c", GRAINFLOW, *args, "--config",
                                    os.path.join("configs", os.path.basename(cfg)), "--out"]
    return out


def run_side(root: str, cmds: dict, outputs: str) -> dict:
    """Runs every command in root, then the acceptance suite; returns (exit
    status, masked stdout) by name, the suite's under ``acceptance``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    results = {}
    for name, cmd in cmds.items():
        dest = os.path.join(outputs, name)
        os.makedirs(dest)
        proc = subprocess.run(cmd + [dest], cwd=root, env=env, capture_output=True, text=True)
        print(f"{os.path.basename(outputs)} {name}: exit {proc.returncode}", file=sys.stderr,
              flush=True)
        results[name] = (proc.returncode, proc.stdout.replace(outputs, "<out>"))
    proc = subprocess.run([sys.executable, *ACCEPTANCE], cwd=root, env=env,
                          capture_output=True, text=True)
    print(f"{os.path.basename(outputs)} acceptance: exit {proc.returncode}", file=sys.stderr,
          flush=True)
    lines = [SECONDS.sub("<t>s", m) for m in CRITERION.findall(proc.stdout)]
    results["acceptance"] = (proc.returncode, "\n".join(lines))
    return results


def contents(path: str):
    """The bytes of a file, or of each member of an .npz."""
    if path.endswith(".npz"):
        with zipfile.ZipFile(path) as zf:
            return [(info.filename, zf.read(info)) for info in zf.infolist()]
    with open(path, "rb") as fh:
        return fh.read()


def tree(top: str) -> dict:
    """Each file under top, by its path relative to top, but result.json."""
    files = {}
    for dirpath, _, names in os.walk(top):
        for name in names:
            path = os.path.join(dirpath, name)
            if name != "result.json":
                files[os.path.relpath(path, top)] = path
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD~1")
    parser.add_argument("--change", default="HEAD")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        roots = {side: os.path.join(tmp, side) for side in ("parent", "change")}
        commits = {side: export(getattr(args, side), roots[side]) for side in roots}
        outputs = {side: os.path.join(tmp, "outputs", side) for side in roots}
        cmds = commands(roots["change"])
        results = {side: run_side(roots[side], cmds, outputs[side]) for side in roots}
        trees = {side: tree(outputs[side]) for side in roots}
        differ = [f"{name}: {what}" for name in [*cmds, "acceptance"]
                  for what, i in (("exit status", 0), ("stdout", 1))
                  if results["parent"][name][i] != results["change"][name][i]]
        differ += [path for path in sorted(set(trees["parent"]) | set(trees["change"]))
                   if path not in trees["parent"] or path not in trees["change"]
                   or contents(trees["parent"][path]) != contents(trees["change"][path])]
        n_files = len(set(trees["parent"]) | set(trees["change"]))

    print(f"parent {commits['parent']}\nchange {commits['change']}")
    print(f"{len(cmds)} commands and the acceptance suite, {n_files} files")
    print("acceptance:\n  " + results["change"]["acceptance"][1].replace("\n", "\n  "))
    if differ:
        print("differ:\n  " + "\n  ".join(differ))
        return 1
    print("outputs, stdout and exit status byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())

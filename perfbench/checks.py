"""Checks of a workload's outputs against the benchmark's own computations.

Nothing here calls grainflow.  The discrete free energy, the two dissipation
amounts, the step size h = h_frac * h* and the energy floor c* are computed
from the model's formulas as the README of grainflow states them:

    F_nu = 1/2 |grad w|^2 + 1/2 |grad eta|^2 + int gamma(w) + int g(w, eta)
         + int alpha |grad theta| + nu int beta |grad theta|^2

with forward differences (zero on the last slice of each axis), cell sums
times dx**dim, and h* = 0.9 / max(2, 4 L), L the C2 norm of g sampled on a
401 x 401 lattice of the unit box.

Every check returns a list of ``Check`` records; a run is correct when all
of them pass.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

TOL = 1e-8          # dissipation, box and maximum-principle tolerance
ENERGY_RTOL = 1e-12  # recomputed energy against the logged total


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


# ---------------------------------------------------------------------------
# the model, written out again
# ---------------------------------------------------------------------------

def _well(model: dict, w):
    c, u = model["c"], model["u"]
    if model["potential"] == "g1":
        return c * (0.25 * w**2 * (w - 1.0) ** 2 - u * w**2 * (w / 3.0 - 0.5))
    return -0.5 * c * (w - u - 0.5) ** 2


def g(model: dict, w, eta):
    return _well(model, w) + 0.5 * (w - eta) ** 2


def gamma(model: dict, w):
    """g1: 0.  g2: (w log w + (1-w) log(1-w)) / 2 inside (0, 1), 1 at the
    end points, +inf outside."""
    w = np.asarray(w, dtype=float)
    if model["potential"] == "g1":
        return np.zeros_like(w)
    if model["potential"] != "g2":
        raise ValueError(f"no benchmark workload uses {model['potential']}")
    with np.errstate(divide="ignore", invalid="ignore"):
        interior = 0.5 * (w * np.log(w) + (1.0 - w) * np.log(1.0 - w))
    ends = np.where((w == 0.0) | (w == 1.0), 1.0, np.inf)
    return np.where((w > 0.0) & (w < 1.0), interior, ends)


def mobilities(model: dict, w, eta):
    """(alpha0, alpha, beta) cellwise."""
    if model["mobility"] == "kobayashi":
        k = model["kappa"]
        a = 0.5 * (eta**2 + k)
        return a, a, 0.5 * (w**2 + k)
    ones = np.ones_like(w)
    return model["a0"] * ones, model["a"] * ones, model["b"] * ones


def c2_norm(model: dict, samples: int = 401) -> float:
    """max over the lattice of |g|, |grad g| and the spectral norm of the
    Hessian of g."""
    c, u = model["c"], model["u"]
    s = np.linspace(0.0, 1.0, samples)
    w, eta = np.meshgrid(s, s, indexing="ij")
    if model["potential"] == "g1":
        gw = c * w * (w - 1.0) * (w - 0.5 - u) + (w - eta)
        gww = c * (3.0 * w**2 - (3.0 + 2.0 * u) * w + 0.5 + u) + 1.0
    else:
        gw = -c * (w - u - 0.5) + (w - eta)
        gww = (1.0 - c) * np.ones_like(w)
    ge = eta - w
    gwe, gee = -1.0, 1.0
    spectral = np.abs(0.5 * (gww + gee)) + np.sqrt(0.25 * (gww - gee) ** 2 + gwe**2)
    return float(max(np.abs(g(model, w, eta)).max(), np.sqrt(gw**2 + ge**2).max(),
                     spectral.max()))


def step_size(spec: dict) -> float:
    return spec["scheme"]["h_frac"] * 0.9 / max(2.0, 4.0 * c2_norm(spec["model"]))


def energy_floor(model: dict) -> float:
    """c* = min of gamma + g over the unit box.  The coupling term vanishes
    at eta = w, so the minimum is that of gamma + well over w in [0, 1]."""
    w = np.linspace(0.0, 1.0, 1_000_001)
    return float(np.min(gamma(model, w) + _well(model, w)))


def _grad_sq(f, dx: float):
    """|grad f|^2 per cell with forward differences, zero on the last slice."""
    sq = np.zeros_like(f)
    for axis in range(f.ndim):
        d = np.diff(f, axis=axis) / dx
        pad = [(0, 0)] * f.ndim
        pad[axis] = (0, 1)
        sq += np.pad(d, pad) ** 2
    return sq


def free_energy(spec: dict, nu: float, w, eta, theta) -> float:
    model, dx = spec["model"], spec["grid"]["dx"]
    vol = dx ** spec["grid"]["dim"]
    sq_theta = _grad_sq(theta, dx)
    _, a, b = mobilities(model, w, eta)
    terms = (
        0.5 * np.sum(_grad_sq(w, dx)) * vol,
        0.5 * np.sum(_grad_sq(eta, dx)) * vol,
        np.sum(gamma(model, w)) * vol,
        np.sum(g(model, w, eta)) * vol,
        np.sum(a * np.sqrt(sq_theta)) * vol,
        nu * np.sum(b * sq_theta) * vol,
    )
    return float(sum(terms))


# ---------------------------------------------------------------------------
# reading the program's outputs
# ---------------------------------------------------------------------------

def read_table(path: str):
    """A CSV with '#' comment lines and a header row, as a dict of columns."""
    with open(path) as fh:
        rows = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    header = rows[0].split(",")
    data = np.array([[float(x) for x in row.split(",")] for row in rows[1:]], ndmin=2)
    return {name: data[:, j] for j, name in enumerate(header)}


def read_snapshot(path: str, shape) -> np.ndarray:
    return np.loadtxt(path, comments="#", dtype=float).reshape(shape)


def load_initial(path: str) -> dict:
    """The initial state a sweep started from, as saved by workloads.py."""
    with np.load(path) as saved:
        return {name: saved[name] for name in ("w", "eta", "theta")}


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------

def _worst(values, tol, name, what, first=0):
    """A check that every value is at most tol; values[k] belongs to step
    (or sweep entry) first + k."""
    values = np.asarray(values, dtype=float)
    k = int(np.argmax(values))
    return Check(name, bool(values[k] <= tol),
                 f"worst {what} {values[k]:.3e} at {first + k} (tolerance {tol:.1e})")


def check_run(spec: dict, outdir: str) -> list:
    """Checks of a ``run`` workload's energy log and snapshots; the run
    workloads write a snapshot at every step.  The dissipation inequality
    uses the logged totals, which the energy check ties to the snapshots."""
    model, nu, n = spec["model"], spec["scheme"]["nu"], spec["scheme"]["n_steps"]
    shape, h = tuple(spec["grid"]["shape"]), step_size(spec)
    steps = range(n + 1)
    files = [[os.path.join(outdir, f"step_{i:06d}_{f}.csv") for f in ("w", "eta", "theta")]
             for i in steps]

    log = read_table(os.path.join(outdir, "energy.csv"))
    missing = sum(not os.path.exists(path) for row in files for path in row)
    logged = [int(s) for s in log["step"]]
    written = Check("all steps written", logged == list(steps) and missing == 0,
                    f"energy rows {len(logged)} of {n + 1}, {missing} snapshot files missing")
    if not written.passed:
        return [written]

    snaps = [tuple(read_snapshot(path, shape) for path in row) for row in files]
    total = log["total"]
    energies = np.array([free_energy(spec, nu, *snap) for snap in snaps])
    vol = spec["grid"]["dx"] ** spec["grid"]["dim"]
    slack, growth = [], []
    for i in steps[1:]:
        (w0, e0, t0), (w1, e1, t1) = snaps[i - 1], snaps[i]
        a0, _, _ = mobilities(model, w1, e1)
        diss_v = 0.5 / h * float(np.sum((w1 - w0) ** 2) + np.sum((e1 - e0) ** 2)) * vol
        diss_theta = 1.0 / h * float(np.sum(a0 * (t1 - t0) ** 2)) * vol
        slack.append((diss_v + diss_theta + total[i] - total[i - 1]) / (1.0 + abs(total[i - 1])))
        growth.append(np.abs(t1).max() - np.abs(t0).max())
    box = [max(model["o_star"] - w.min(), w.max() - model["iota_star"], -e.min(), e.max() - 1.0)
           for w, e, _ in snaps]
    return [
        written,
        _worst(np.abs(log["t"] - h * np.arange(n + 1)), 1e-12 * h * n, "time grid",
               "|t - i h|"),
        _worst(np.abs(energies - total) / (1.0 + np.abs(energies)), ENERGY_RTOL,
               "energy recomputed", "relative difference from the logged total"),
        _worst(slack, TOL, "dissipation",
               "(diss_v + diss_theta + F_i - F_i-1) / (1 + |F_i-1|)", first=1),
        _worst(box, TOL, "box", "distance outside [o*, iota*] x [0, 1]"),
        _worst(growth, TOL, "maximum principle", "growth of max|theta|", first=1),
    ]


def check_sweep(spec: dict, outdir: str, initial: dict) -> list:
    """Checks of a ``sweep-nu`` workload's table against the energy bound
    T (F_nu(initial) - c* |Omega|) and the nu -> 0 trend."""
    table = read_table(os.path.join(outdir, "sweep.csv"))
    nus = tuple(spec["nus"])
    written = Check("all nus written", tuple(table["nu"]) == nus,
                    f"{len(table['nu'])} rows for {len(nus)} nus")
    if not written.passed:
        return [written]

    grid = spec["grid"]
    volume = float(np.prod(grid["shape"])) * grid["dx"] ** grid["dim"]
    horizon = spec["scheme"]["n_steps"] * step_size(spec)
    floor = energy_floor(spec["model"])
    aggs, wtvs = table["nu_dirichlet_aggregate"], table["wtv_aggregate"]
    excess = []
    for nu, agg, wtv in zip(nus, aggs, wtvs):
        bound = horizon * (free_energy(spec, nu, initial["w"], initial["eta"],
                                       initial["theta"]) - floor * volume)
        excess.append((agg + wtv - bound) / (1.0 + abs(bound)))
    smallest = min(aggs.min(), wtvs.min())
    return [
        written,
        _worst(excess, TOL, "aggregate bound",
               "(wtv + nu-Dirichlet aggregate - T (F_nu(0) - c*|Omega|)) / (1 + bound)"),
        Check("positive aggregates", bool(smallest > 0), f"smallest {smallest:.3e}"),
        Check("nu -> 0 trend", bool(aggs[-1] < 0.1 * aggs[0]),
              f"last / first nu-Dirichlet aggregate {aggs[-1] / aggs[0]:.3e} (limit 0.1)"),
    ]

"""Runnable checks for the paper-level invariants, plus the nu -> 0 study.

Every check returns a CheckResult whose ``passed`` flag is exactly
``worst_violation <= tolerance`` and whose context string (configuration
digest plus seed) makes the result reproducible.

Random fields come in two seeded flavours: smooth low-frequency cosine
mixtures, and piecewise-constant grain fields for the orientation angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .energy import phi_nu
from .grid import GridSpec, PhaseState, ScalarField, stencil
from .model import ModelSpec, MobilityKind, MobilitySpec, Potential, PotentialSpec
from .scheme import SchemeParams, Trajectory, h_star, run
from .thetastep import _theta_objective, oracle_theta_min, theta_step

__all__ = [
    "CheckResult",
    "StudyReport",
    "check_dissipation",
    "check_box",
    "check_linfty",
    "check_energy_bound",
    "check_gamma_sandwich",
    "check_theta_oracle",
    "nu_limit_study",
    "validate_nu_schedule",
    "random_smooth_field",
    "random_grains_field",
    "random_admissible_v",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_violation: float
    tolerance: float
    context: str

    def __str__(self):
        tag = "pass" if self.passed else "FAIL"
        return (
            f"[{tag}] {self.name}: worst {self.worst_violation:.3e} "
            f"(tol {self.tolerance:.1e}) [{self.context}]"
        )


def _result(name, worst, tol, context) -> CheckResult:
    if worst == -math.inf:  # a check that examined nothing proves nothing
        raise ValueError(f"{name}: no instance was checked [{context}]")
    return CheckResult(name, bool(worst <= tol), float(worst), float(tol), context)


_STEP_TOL = 1e-8  # dissipation, box and maximum principle, per step
_ENERGY_BOUND_TOL = 1e-12
_SANDWICH_GRID = GridSpec(2, (16, 16), 1.0)
_SANDWICH_TOL = 1e-12
_ORACLE_NUS = (0.0, 0.1)
_ORACLE_TOL = 1e-6
_ORACLE_GAP_BUDGET = 1e-8  # the duality gap counts as tol at this value
_MODES = 5  # cosine terms of a smooth random field


def _traj_context(traj: Trajectory) -> str:
    return f"h={traj.h:.6g} nu={traj.nu:.6g} steps={traj.n_steps}"


# ---------------------------------------------------------------------------
# trajectory checks
# ---------------------------------------------------------------------------

def check_dissipation(traj: Trajectory) -> CheckResult:
    """Per-step strong dissipation: both increment norms plus the new energy
    must not exceed the previous energy, normalized by 1 + |previous|."""
    worst = -math.inf
    for i, rep in enumerate(traj.reports, start=1):
        f_prev = traj.energies[i - 1].total
        f_new = traj.energies[i].total
        if not (np.isfinite(f_prev) and np.isfinite(f_new)):
            worst = math.inf
            break
        viol = (rep.diss_v + rep.diss_theta + f_new - f_prev) / (1.0 + abs(f_prev))
        worst = max(worst, viol)
    return _result("per-step energy dissipation", worst, _STEP_TOL, _traj_context(traj))


def check_box(traj: Trajectory) -> CheckResult:
    """Worst pointwise escape of (w, eta) from [o*, iota*] x [0, 1]."""
    worst = max((rep.box_violation for rep in traj.reports), default=0.0)
    return _result("box invariance of (w, eta)", worst, _STEP_TOL, _traj_context(traj))


def check_linfty(traj: Trajectory) -> CheckResult:
    """Per-step maximum principle max|theta_i| <= max|theta_{i-1}|."""
    worst = max((rep.linf_theta - rep.linf_in for rep in traj.reports), default=0.0)
    return _result("theta maximum principle", worst, _STEP_TOL, _traj_context(traj))


def check_energy_bound(traj: Trajectory, model: ModelSpec, grid: GridSpec) -> CheckResult:
    """|F_nu| stays below |F_nu(initial)| + |c*| |Omega| along the run."""
    f_star = abs(traj.energies[0].total) + abs(model.c_star) * grid.volume
    worst = max(
        (abs(e.total) - f_star) / (1.0 + f_star) for e in traj.energies
    )
    return _result("uniform energy bound", worst, _ENERGY_BOUND_TOL, _traj_context(traj))


# ---------------------------------------------------------------------------
# sandwich and oracle checks
# ---------------------------------------------------------------------------

def check_gamma_sandwich(model: ModelSpec, nu: float, n_samples: int = 100,
                         seed: int = 0) -> CheckResult:
    """Two-sided bound on Phi_nu by Phi_0 plus nu times the plain Dirichlet
    sum, weighted below by delta1 and above by sup beta on the unit box, on
    a 16x16 grid."""
    if model.mobility.delta1 <= 0.0:
        raise ValueError("gamma sandwich requires a mobility with delta1 > 0")
    grid = _SANDWICH_GRID
    rng = np.random.default_rng(seed)
    d1 = model.mobility.delta1
    d_up = model.mobility.delta_star
    worst = -math.inf
    for _ in range(n_samples):
        w, e = random_admissible_v(grid, model, rng, full_unit_box=True)
        theta = random_smooth_field(grid, rng, amplitude=1.0)
        sq = stencil(grid.shape, grid.dx).sq_grad(theta.values)
        dir_sum = float(np.sum(sq)) * grid.cell_volume
        p0 = phi_nu((w, e), theta, model, 0.0)
        pn = phi_nu((w, e), theta, model, nu)
        scale = 1.0 + abs(pn)
        lower_viol = (p0 + nu * d1 * dir_sum - pn) / scale
        upper_viol = (pn - (p0 + nu * d_up * dir_sum)) / scale
        worst = max(worst, lower_viol, upper_viol)
    return _result(
        "Phi_nu sandwich between delta1 and sup-beta Dirichlet envelopes",
        worst, _SANDWICH_TOL, f"nu={nu} samples={n_samples} seed={seed}",
    )


_ORACLE_GRIDS = (
    GridSpec(1, (8,), 1.0),
    GridSpec(1, (16,), 1.0),
    GridSpec(1, (32,), 1.0),
    GridSpec(1, (64,), 1.0),
    GridSpec(2, (4, 4), 1.0),
    GridSpec(2, (8, 8), 1.0),
)


def _rotating_model(j: int) -> ModelSpec:
    pots = [
        PotentialSpec(Potential.POLYNOMIAL),
        PotentialSpec(Potential.LOGARITHMIC, o_star=0.05, iota_star=0.95),
        PotentialSpec(Potential.INDICATOR),
    ]
    mobs = [
        MobilitySpec(MobilityKind.KOBAYASHI, kappa=1e-2),
        MobilitySpec(MobilityKind.CONSTANT, a0=1.0, a=1.0, b=1.0),
    ]
    return ModelSpec(pots[j % 3], mobs[j % 2])


def check_theta_oracle(n_instances: int = 20, seed: int = 0) -> CheckResult:
    """Primal objective of the primal-dual step against the reference oracle
    on small instances, at nu = 0 and 0.1.  The reported violation is the
    larger of the normalized objective mismatch and the duality gap rescaled
    by tol/gap budget (1e-6/1e-8), so passed still means worst <= tol."""
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for j in range(n_instances):
        grid = _ORACLE_GRIDS[j % len(_ORACLE_GRIDS)]
        model = _rotating_model(j)
        h = 0.5 * h_star(model)
        v = random_admissible_v(grid, model, rng)
        theta0 = random_smooth_field(grid, rng, amplitude=0.8)
        for nu in _ORACLE_NUS:
            theta_hat, rep = theta_step(theta0, v, model, nu, h, gap_tol=1e-11)
            j_hat = _theta_objective(theta_hat, theta0, v, model, nu, h)
            _, j_oracle = oracle_theta_min(theta0, v, model, nu, h)
            mismatch = abs(j_hat - j_oracle) / (1.0 + abs(j_oracle))
            worst = max(worst, mismatch, rep.duality_gap * (_ORACLE_TOL / _ORACLE_GAP_BUDGET))
    return _result(
        "theta-step objective agrees with the reference oracle",
        worst, _ORACLE_TOL, f"instances={n_instances} nus={_ORACLE_NUS} seed={seed}",
    )


# ---------------------------------------------------------------------------
# nu -> 0 study
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StudyReport:
    nus: tuple
    nu_dirichlet_aggregates: tuple
    wtv_aggregates: tuple
    passed: bool

    def __str__(self):
        rows = [
            f"  nu={nu:<10.6g} nu-Dirichlet aggregate={agg:.6e} wtv aggregate={wtv:.6e}"
            for nu, agg, wtv in zip(self.nus, self.nu_dirichlet_aggregates, self.wtv_aggregates)
        ]
        head = f"nu-limit study ({'pass' if self.passed else 'FAIL'}):"
        return "\n".join([head] + rows)


def validate_nu_schedule(values) -> tuple:
    """The schedule as a tuple of floats; raises ValueError unless it is a
    nonempty, strictly decreasing run of finite nonnegative values."""
    nus = tuple(float(x) for x in values)
    if len(nus) == 0:
        raise ValueError("empty nu schedule")
    if any(b >= a for a, b in zip(nus, nus[1:])):
        raise ValueError("nu schedule must be strictly decreasing")
    if not all(0 <= x < math.inf for x in nus):
        raise ValueError("nu must be finite and nonnegative")
    return nus


def nu_limit_study(init: PhaseState, model: ModelSpec, nu_schedule,
                   params: SchemeParams) -> StudyReport:
    """Runs the scheme once per entry of the decreasing nu schedule (same
    initial state and h) and aggregates nu * sum beta |grad theta|^2 over
    time.  The trend contract: the final entry's aggregate is below 0.1 of
    the first entry's."""
    nus = validate_nu_schedule(nu_schedule)
    aggregates = []
    wtv_aggs = []
    for nu in nus:
        traj = run(init, model, replace(params, nu=nu))
        aggregates.append(params.h * sum(e.nu_dirichlet_term for e in traj.energies[1:]))
        wtv_aggs.append(params.h * sum(e.wtv_term for e in traj.energies[1:]))
    passed = len(nus) == 1 or aggregates[-1] < 0.1 * aggregates[0]
    return StudyReport(
        nus=nus,
        nu_dirichlet_aggregates=tuple(aggregates),
        wtv_aggregates=tuple(wtv_aggs),
        passed=passed,
    )


# ---------------------------------------------------------------------------
# seeded random field generators
# ---------------------------------------------------------------------------

def random_smooth_field(grid: GridSpec, rng, amplitude: float = 1.0) -> ScalarField:
    """Low-frequency cosine mixture normalized to the requested amplitude."""
    axes = [np.linspace(0.0, 1.0, n) for n in grid.shape]
    mesh = np.meshgrid(*axes, indexing="ij")
    f = np.zeros(grid.shape)
    for _ in range(_MODES):
        coef = rng.normal()
        phase = rng.uniform(0.0, 1.0, size=grid.dim)
        ks = rng.integers(0, 4, size=grid.dim)
        term = np.ones(grid.shape)
        for x, k, ph in zip(mesh, ks, phase):
            term = term * np.cos(np.pi * (k * x + ph))
        f += coef * term
    peak = float(np.abs(f).max())
    if peak > 0:
        f *= amplitude / peak
    return ScalarField(grid, f)


def random_grains_field(grid: GridSpec, rng, n_grains: int = 4,
                        amplitude: float = 1.0) -> ScalarField:
    """Piecewise-constant orientation field on Voronoi cells of seeded sites;
    takes exactly n_grains distinct values (provided every site wins a cell)."""
    if n_grains < 1:
        raise ValueError(f"n_grains must be at least 1, got {n_grains}")
    coords = np.stack(
        np.meshgrid(*[np.arange(n, dtype=float) for n in grid.shape], indexing="ij"),
        axis=-1,
    )
    sites = rng.uniform(0.0, 1.0, size=(n_grains, grid.dim)) * (
        np.asarray(grid.shape, dtype=float) - 1.0
    )
    d2 = ((coords[..., None, :] - sites[None, ...]) ** 2).sum(axis=-1)
    labels = np.argmin(d2, axis=-1)
    values = rng.uniform(-amplitude, amplitude, size=n_grains)
    return ScalarField(grid, values[labels])


def random_admissible_v(grid: GridSpec, model: ModelSpec, rng,
                        full_unit_box: bool = False):
    """Smooth (w, eta) pair mapped strictly into the admissible box
    [o*, iota*] x [0, 1] (or into [0, 1]^2 when full_unit_box)."""
    lo, hi = (0.0, 1.0) if full_unit_box else (model.o_star, model.iota_star)
    sw = random_smooth_field(grid, rng, amplitude=1.0).values
    se = random_smooth_field(grid, rng, amplitude=1.0).values
    w = lo + (hi - lo) * (0.5 + 0.4 * sw)
    e = 0.5 + 0.4 * se
    return ScalarField(grid, w), ScalarField(grid, e)

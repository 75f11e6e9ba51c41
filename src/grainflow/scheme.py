"""Time-stepping loop for the full approximating problem.

Each step is a v-step followed by a theta-step (weighted-TV convex
minimization), recording the two dissipation amounts

    (1/2h)|v_i - v_{i-1}|^2   and   (1/h)|sqrt(alpha0(v_i))(theta_i - theta_{i-1})|^2

whose sum plus the new free energy must not exceed the previous free energy.
The step size is gated by the admissible threshold h* = 0.9 / max(2, 4L)
(L the C2 norm of g on the unit box); larger steps require an explicit
override.  :func:`outside_hypotheses` makes that decision and marks a run
outside the well-posedness hypotheses.
The v-step is ``v_step(..., fused=True)``: one proximal-gradient loop that
refreshes the coupling at every iteration, with the fixed point of the
paper's Banach map, which the verification path runs.
Each theta-step hands the next its dual and the PDHG start ratio it learns.
A :class:`Trajectory` holds the per-step energies and reports, which the
checks read; it keeps no states.  States reach a caller only through the
sink passed to :func:`run`, at the record steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .energy import free_energy
from .grid import PhaseState
from .model import (CheckCondition, ModelSpec, SolverError, ValidationReport, check_a4,
                    require_finite)
from .thetastep import StartRatio, ThetaStepParams, theta_step
from .vstep import VStepParams, v_step

__all__ = [
    "HGateError",
    "SchemeParams",
    "StepReport",
    "Trajectory",
    "h_star",
    "outside_hypotheses",
    "validate_initial",
    "run",
]


class HGateError(ValueError):
    """Step size at or above the admissible threshold without an override."""


def h_star(model: ModelSpec) -> float:
    """Admissible time step 1/max(2, 4L) with a 0.9 safety margin, L being
    the sampled C2 norm of g on [0,1]^2."""
    return 0.9 / max(2.0, 4.0 * model.c2_norm)


@dataclass
class SchemeParams:
    """The config's [scheme] section, h given directly; ``vstep`` and
    ``thetastep`` are built from h, inner_tol and gap_tol.  :func:`run` widens
    the theta-step's relative gap_tol to the dissipation budget
    1e-9 * (1 + |F_prev|), the larger of the two at the default gap_tol."""

    h: float
    nu: float = 0.0
    n_steps: int = 1
    record_every: int = 1
    override_h_gate: bool = False
    inner_tol: float = None
    gap_tol: float = 1e-10
    vstep: VStepParams = field(init=False, repr=False, compare=False)
    thetastep: ThetaStepParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        require_finite(self, "h", "nu")
        if not self.h > 0:
            raise ValueError("h must be positive")
        if self.nu < 0:
            raise ValueError("nu must be nonnegative")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        self.vstep = VStepParams(h=self.h, inner_tol=self.inner_tol)
        self.thetastep = ThetaStepParams(h=self.h, gap_tol=self.gap_tol)


@dataclass
class StepReport:
    step: int
    t: float
    diss_v: float
    diss_theta: float
    v_outer_iters: int  # coupling evaluations: v_inner_iters in run
    v_inner_iters: int
    theta_iters: int
    theta_start_ratio: float  # the PDHG start ratio the solve was given
    duality_gap: float
    contraction_ratio: float  # run's single loop: below 1 - tau (1/h - L)
    box_violation: float
    linf_in: float
    linf_theta: float


@dataclass
class Trajectory:
    h: float
    nu: float
    t_grid: np.ndarray
    energies: list
    reports: list
    outside_hypotheses: bool = False

    @property
    def n_steps(self) -> int:
        return len(self.t_grid) - 1


def validate_initial(state: PhaseState, model: ModelSpec) -> ValidationReport:
    """Membership check for the admissible initial class: w in [o*, iota*],
    eta in [0, 1], theta finite, all on one grid (the state only: run flags a
    zero mobility floor as outside the theorem hypotheses)."""
    conds = []
    w, e, t = state.w.values, state.eta.values, state.theta.values
    o, i = model.o_star, model.iota_star
    m_w = float(min(w.min() - o, i - w.max()))
    conds.append(CheckCondition(f"o* <= w <= iota* ([{o}, {i}])", m_w >= 0.0, m_w))
    m_e = float(min(e.min(), 1.0 - e.max()))
    conds.append(CheckCondition("0 <= eta <= 1", m_e >= 0.0, m_e))
    finite = bool(np.all(np.isfinite(t)))
    linf = float(np.abs(t).max()) if finite else np.inf
    conds.append(CheckCondition(f"theta in Linf (|theta|_inf = {linf:.6g})", finite,
                                0.0 if finite else -np.inf))
    return ValidationReport(tuple(conds))


def outside_hypotheses(model: ModelSpec, params: SchemeParams) -> bool:
    """Whether a run of params lies outside the well-posedness hypotheses:
    h at or above h*, a zero mobility floor or a failing assumption (A4).
    An h at or above h* without ``params.override_h_gate`` raises
    :class:`HGateError`."""
    hs = h_star(model)
    if params.h >= hs and not params.override_h_gate:
        raise HGateError(f"h: {params.h} is not below the admissible step h* = {hs:.6g}; "
                         "set override_h_gate to run outside the theorem hypotheses")
    return (params.h >= hs or model.mobility_floor(params.nu) <= 0.0
            or not check_a4(model).passed)


def run(init: PhaseState, model: ModelSpec, params: SchemeParams, sink=None) -> Trajectory:
    """Advance n_steps from the validated initial state; returns the trajectory
    with per-step reports and energy breakdowns, and no states.  A sink, if
    given, receives ``sink.on_step(report, energy)`` after every step and
    ``sink.on_snapshot(step, state)`` at the record steps: every multiple of
    record_every and the final step (step 0 is the caller's own init)."""
    report = validate_initial(init, model)
    if not report.passed:
        raise ValueError("initial data rejected:\n" + str(report))
    outside = outside_hypotheses(model, params)

    h, nu = params.h, params.nu
    vol = init.grid.cell_volume
    state = init.copy()
    energies = [free_energy(state, model, nu)]
    reports = []
    t_grid = h * np.arange(params.n_steps + 1)
    warm_dual = None
    start = StartRatio(init.grid.dim)

    for i in range(1, params.n_steps + 1):
        # the theta gap feeds straight into the per-step dissipation slack;
        # 1e-9*(1+|F_prev|) sits 10x inside the 1e-8*(1+|F_prev|) budget
        gap_budget = 1e-9 * (1.0 + abs(energies[-1].total))
        ratio = start.propose()
        try:
            v_new, vrep = v_step((state.w, state.eta), state.theta, model, nu, params.vstep,
                                 fused=True)
            theta_new, trep = theta_step(state.theta, v_new, model, nu, params.thetastep,
                                         warm_dual=warm_dual, gap_abs=gap_budget,
                                         start_ratio=ratio)
        except SolverError as err:
            raise SolverError(f"step {i}: {err}") from err
        warm_dual = trep.dual
        start.learn(trep.sweeps)

        dw = v_new[0].values - state.w.values
        de = v_new[1].values - state.eta.values
        diss_v = 0.5 / h * float(np.vdot(dw, dw).real + np.vdot(de, de).real) * vol
        a0, _, _ = model.mobilities(v_new[0].values, v_new[1].values)
        dtheta = theta_new.values - state.theta.values
        diss_theta = 1.0 / h * float(np.sum(a0 * dtheta**2)) * vol

        state = PhaseState(v_new[0], v_new[1], theta_new)
        energy = free_energy(state, model, nu)
        if not energy.finite:
            raise SolverError(f"step {i}: free energy is not finite ({energy.total})")
        step_report = StepReport(
            step=i,
            t=float(t_grid[i]),
            diss_v=diss_v,
            diss_theta=diss_theta,
            v_outer_iters=vrep.outer_iters,
            v_inner_iters=vrep.inner_iters_total,
            theta_iters=trep.iters,
            theta_start_ratio=ratio,
            duality_gap=trep.duality_gap,
            contraction_ratio=vrep.final_contraction_ratio,
            box_violation=vrep.box_violation,
            linf_in=trep.linf_in,
            linf_theta=trep.linf_out,
        )
        energies.append(energy)
        reports.append(step_report)
        if sink is not None:
            sink.on_step(step_report, energy)
        if sink is not None and (i % params.record_every == 0 or i == params.n_steps):
            sink.on_snapshot(i, state)

    return Trajectory(
        h=h,
        nu=nu,
        t_grid=t_grid,
        energies=energies,
        reports=reports,
        outside_hypotheses=outside,
    )

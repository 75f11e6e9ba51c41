"""Per-time-step solve for the coupled pair v = [w, eta].

One step of the scheme minimizes, over fields v in the domain of the convex
part, the functional

    (1/2h)|v - v_prev|^2 + V_D(v) + Gamma(v) + <grad_g(T v_dag; u), v>
    + sum(|grad theta_prev| alpha(v) + nu |grad theta_prev|^2 beta(v)) dx^d

where the coupling argument ``v_dag`` is frozen and truncated onto [0,1]^2;
the step's answer is the fixed point v_dag = v.  One proximal-gradient body
serves both refresh policies of :func:`v_step` (the quadratic, Dirichlet,
coupling and mobility terms are smooth; gamma enters through its pointwise
prox).  By default the coupling is refreshed when the inner loop has
converged: the paper's Banach outer loop, a contraction with ratio at most
h*L below the admissible step (L the C2 norm of g on the unit box), which the
contraction and perturbation checks and ``probe-contraction`` measure.  With
``fused=True``, which ``scheme.run`` uses, it is refreshed at every
iteration: one forward-backward loop with the same fixed point, contracting
with ratio at most rho* = 1 - tau (1/h - L).  v is one ``(2,) + shape``
array (rows w and eta), so each step, the Laplacian included, is one call on
both fields, written into buffers allocated once per solve.

The iterate is deliberately not projected onto the box [o*, iota*] x [0, 1]:
containment is a consequence of assumption (A4) and is verified a
posteriori (reported as ``box_violation``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import ScalarField, grad_operator_norm_bound, stencil
from .model import ModelSpec, SolverError, require_finite

__all__ = [
    "VStepParams",
    "VStepReport",
    "v_step",
    "v_step_perturbation_bound",
]


_MAX_INNER = 100_000  # proximal-gradient iterations per inner solve


@dataclass
class VStepParams:
    """inner_tol is a finite, positive, absolute discrete-L2 value; when left
    None it is scaled at call time to 1e-12*sqrt(|Omega|).  The Picard outer
    loop stops at a difference of 1e-10*sqrt(|Omega|); the fused policy stops
    on inner_tol and the _MAX_INNER cap alone."""

    h: float
    inner_tol: float = None
    max_outer: int = 200

    def __post_init__(self):
        require_finite(self, "h", *(("inner_tol",) if self.inner_tol is not None else ()))
        if not self.h > 0:
            raise ValueError("time step h must be positive")
        if self.inner_tol is not None and not self.inner_tol > 0:
            raise ValueError("inner_tol must be positive")
        if not self.max_outer >= 1:
            raise ValueError("max_outer must be at least 1")


@dataclass
class VStepReport:
    outer_iters: int
    final_contraction_ratio: float
    inner_iters_total: int
    box_violation: float


def _pair_norm(d: np.ndarray, vol: float) -> float:
    # one vdot per row: a single vdot over both rows would round differently
    return float(np.sqrt((np.vdot(d[0], d[0]) + np.vdot(d[1], d[1])).real * vol))


def _stack(v) -> np.ndarray:
    return np.stack((v[0].values, v[1].values))


def _ratio_floor(inner_tol: float) -> float:
    # successive differences this small are too near the stop rule's
    # rounding to give a meaningful ratio
    return max(1e5 * inner_tol, 1e-14)


def v_step(v_prev, theta_prev: ScalarField, model: ModelSpec, nu: float,
           params: VStepParams, fused: bool = False):
    """Solve one v-step; returns ((w, eta) fields, VStepReport).  With
    ``fused`` the report's ``outer_iters`` counts coupling evaluations (equal
    to ``inner_iters_total``) and its ratio is the single loop's."""
    grid = theta_prev.grid
    dx, vol = grid.dx, grid.cell_volume
    h = params.h
    scale = np.sqrt(grid.volume)
    inner_tol = params.inner_tol if params.inner_tol is not None else 1e-12 * scale

    v = v_prev = _stack(v_prev)

    # |grad theta_prev|, in 1D as |x|: sqrt(x*x) loses an x whose square underflows
    st = stencil(grid.shape, dx)
    q1 = (np.abs(st.grad(theta_prev.values, np.zeros((1, st.n)))[0]) if grid.dim == 1
          else np.sqrt(st.sq_grad(theta_prev.values)))
    q2 = nu * q1**2 if nu != 0.0 else None

    mob = model.mobility
    lip = 1.0 / h + grad_operator_norm_bound(grid)
    lip += float(q1.max()) * mob.curvature_bound
    if q2 is not None:
        lip += float(q2.max()) * mob.curvature_bound
    tau = 1.0 / lip

    loop_args = (q1, q2, model, h, tau, stencil(grid.shape, dx, 2), vol, inner_tol,
                 _MAX_INNER)

    if fused:
        v, inner_total, ratio = _inner_prox_gradient(v, v_prev, None, *loop_args)
        outer_iters = inner_total
    else:
        outer_tol = 1e-10 * scale
        ratio_floor = _ratio_floor(inner_tol)
        ratio = prev_diff = 0.0
        inner_total = 0
        for k in range(params.max_outer):
            # coupling frozen at the truncated current iterate
            vc = np.clip(v, 0.0, 1.0)
            g_frozen = np.stack(model.grad_g(vc[0], vc[1]))
            v_old = v  # the inner loop does not write into its input
            try:
                v, inner_iters, _ = _inner_prox_gradient(v, v_prev, g_frozen, *loop_args)
            except SolverError as err:
                raise SolverError(f"outer iteration {k + 1}: {err}") from None
            inner_total += inner_iters
            diff = _pair_norm(v - v_old, vol)
            if prev_diff >= ratio_floor:
                ratio = max(ratio, diff / prev_diff)
            prev_diff = diff
            if diff <= outer_tol:
                break
        else:
            raise SolverError(
                f"fixed-point loop did not reach {outer_tol:.2e} in "
                f"{params.max_outer} iterations (last diff {diff:.2e}); "
                f"h={h} may be too large for L={model.c2_norm}"
            )
        outer_iters = k + 1

    w, e = v
    o, i = model.o_star, model.iota_star
    box_violation = max(
        0.0,
        float(o - w.min()),
        float(w.max() - i),
        float(-e.min()),
        float(e.max() - 1.0),
    )

    report = VStepReport(
        outer_iters=outer_iters,
        final_contraction_ratio=ratio,
        inner_iters_total=inner_total,
        box_violation=box_violation,
    )
    v_new = (ScalarField(grid, w), ScalarField(grid, e))
    return v_new, report


def _inner_prox_gradient(v, v_prev, g_frozen, q1, q2, model: ModelSpec, h, tau,
                         st, vol, inner_tol, max_inner):
    """Proximal gradient on the stacked pair v with the coupling frozen at
    g_frozen, or, when g_frozen is None, refreshed at grad_g(clip(v, 0, 1))
    in every iteration.  gamma acts on w (row 0) only, so eta takes plain
    gradient steps.  Returns the iterate, the iteration count and the largest
    ratio of successive differences.  The iteration writes into buffers
    allocated once per call; only the prox and grad_g allocate."""
    inv_h = 1.0 / h
    mob = model.mobility
    g, lap, d = (np.empty(v.shape) for _ in range(3))
    vc = np.empty(v.shape) if g_frozen is None else None
    tmp = np.empty(v.shape[1:])
    v, v_next = v.copy(), np.empty(v.shape)
    ratio_floor = _ratio_floor(inner_tol)
    ratio = prev_diff = 0.0
    for j in range(max_inner):
        np.subtract(v, v_prev, out=g)
        g *= inv_h
        g -= st.laplacian(v, lap)
        if g_frozen is None:
            gw, ge = model.grad_g(*np.clip(v, 0.0, 1.0, out=vc))
            g[0] += gw
            g[1] += ge
        else:
            g += g_frozen
        mob.add_gradient_terms(q1, q2, v[0], v[1], g[0], g[1], tmp)
        np.subtract(v, np.multiply(g, tau, out=v_next), out=v_next)
        v_next[0] = model.gamma_prox(tau, v_next[0])
        diff = _pair_norm(np.subtract(v_next, v, out=d), vol)
        v, v_next = v_next, v
        if prev_diff >= ratio_floor:
            ratio = max(ratio, diff / prev_diff)
        prev_diff = diff
        if diff <= inner_tol:
            return v, j + 1, ratio
    raise SolverError(
        f"inner proximal gradient did not reach {inner_tol:.2e} in {max_inner} "
        f"iterations (last diff {diff:.2e})"
    )


def v_step_perturbation_bound(v_prev_a, v_prev_b, theta_prev: ScalarField,
                              model: ModelSpec, nu: float, params: VStepParams) -> float:
    """Runs the step from two nearby previous states (same theta) and returns
    |v_a - v_b|^2 / |v_prev_a - v_prev_b|^2 (0 when the inputs coincide).
    For h below the admissible step the ratio is at most 2."""
    vol = theta_prev.grid.cell_volume
    den = _pair_norm(_stack(v_prev_a) - _stack(v_prev_b), vol)
    va, _ = v_step(v_prev_a, theta_prev, model, nu, params)
    vb, _ = v_step(v_prev_b, theta_prev, model, nu, params)
    if den == 0.0:
        return 0.0
    num = _pair_norm(_stack(va) - _stack(vb), vol)
    return (num / den) ** 2

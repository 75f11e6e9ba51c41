"""Per-time-step solve for the orientation angle theta.

The subproblem is the strictly convex minimization

    J(theta) = (1/2h) |sqrt(alpha0(v)) (theta - theta_prev)|^2
             + sum alpha(v) |grad theta| dx^d + nu sum beta(v) |grad theta|^2 dx^d

for any nu >= 0.  In 1D its dual has a tridiagonal SPD Hessian, and
:func:`_dual_newton` solves it exactly in a few Newton steps.  In 2D, where
that Hessian is singular, when alpha0 has zeros, and when the Newton answer
misses the certificate below, the solver is an over-relaxed primal-dual
hybrid gradient (PDHG) iteration (:class:`_PdhgLoop`), started from the
Newton dual in the last case.  PDHG
dualizes the whole coupling term cellwise: the conjugate of a|q| + nu b |q|^2
is the indicator of the ball |p| <= a when nu b = 0 and
(|p| - a)_+^2 / (4 nu b) otherwise, so both regimes share one dual prox and
nu = 0 needs no smoothing.

The step sizes are tau = r/||grad|| and sigma = 1/(r ||grad||), so that
tau*sigma*||grad||^2 = 1, with r = ``start_ratio`` (StartRatio) at the start.
They adapt by one rule.  When the gap of the last iterate stalls (it fails to
halve over a window of 5 certificates), r jumps down towards the plateau
level the remaining gap calls for, with a floor at 1/4096 of the start.  A
stall at the floor wraps r back to the start and doubles the window for the
rest of the solve.  The doubling matters: with a fixed window the wrap-around
can lock into a cycle between the start ratio and the floor that never gives
either ratio the run it needs.

The returned iterate is the truncated dual reconstruction

    theta = T_{-M}^{M}( theta_prev + h * div(p) / alpha0 ),   M = max|theta_prev|,

which has two exact consequences: the maximum principle max|theta_new| <=
max|theta_prev| holds with zero slack, and the per-step dissipation
inequality (the variational-inequality form with the 1/h coefficient) holds
with slack bounded by the reported duality gap.

A smoothed-Newton reference oracle for tiny instances is
included for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .energy import phi_nu
from .grid import ScalarField, grad_operator_norm_bound, stencil
from .model import ModelSpec, SolverError, require_finite

__all__ = [
    "ThetaStepReport",
    "StartRatio",
    "theta_step",
    "oracle_theta_min",
]


@dataclass
class ThetaStepReport:
    iters: int
    sweeps: int  # the PDHG sweeps among iters
    duality_gap: float
    linf_in: float
    linf_out: float
    dual: np.ndarray = field(default=None, repr=False, compare=False)  # (dim,) + grid shape


_R0 = {1: 0.125, 2: 0.0625}  # the default start ratio by grid dimension
_RHO = 1.8  # over-relaxation of the PDHG sweep (_PdhgLoop), in (0, 2)
_MAX_ITERS = 400_000  # Newton steps plus PDHG sweeps per solve
_CHECK_EVERY = 125  # PDHG sweeps between two gap certificates


class StartRatio:
    """The PDHG start ratio r a run carries across its theta-steps, from
    r0 = 1/8 in 1D and 1/16 in 2D.  Once ``wait`` solves at r have passed, a
    solve starts at 2r (or r/2), and r takes that value when the solve needs
    fewer than 0.9x the moving average (weight 1/4) of the sweeps at r; a
    failed trial doubles its direction's wait, from 4 up to 64.  r stays in
    [r0/64, 8 r0] and learns only from the sweep counts of solves that ran
    PDHG, so a Newton-certified 1D solve leaves it untouched."""

    def __init__(self, dim: int):
        self.r0 = self.ratio = _R0[dim]
        self.mean = self.trial = None
        self.wait, self.due = {2.0: 4, 0.5: 4}, {2.0: 4, 0.5: 4}

    def propose(self) -> float:
        """The start ratio of the next solve."""
        self.trial = next((f for f, d in self.due.items() if d <= 0
                           and self.r0 / 64.0 <= f * self.ratio <= 8.0 * self.r0), None)
        return self.ratio * (self.trial or 1.0)

    def learn(self, sweeps: int):
        """Takes the PDHG sweeps of the solve started at :meth:`propose`."""
        f = self.trial
        if sweeps and f is None:
            self.mean = sweeps if self.mean is None else 0.75 * self.mean + 0.25 * sweeps
            self.due = {k: d - 1 for k, d in self.due.items()}
        elif sweeps:
            better = sweeps < 0.9 * self.mean
            if better:
                self.ratio, self.mean = f * self.ratio, sweeps
            self.wait[f] = 4 if better else min(2 * self.wait[f], 64)
            self.due[f] = self.wait[f]


def theta_step(theta_prev: ScalarField, v_new, model: ModelSpec, nu: float, h: float,
               gap_tol: float = 1e-10, warm_dual=None, gap_abs: float = 0.0,
               start_ratio: float = None):
    """Solve one theta-step of size h; returns (theta_new, ThetaStepReport).

    ``gap_tol`` is relative: a solve stops once the gap at the iterate it
    returns, checked every _CHECK_EVERY sweeps, is <= max(gap_tol (1 + |J|),
    gap_abs).  The time loop sets ``gap_abs`` to 1e-9 (1 + |F_prev|), exactly
    the gap its dissipation budget can absorb, and there gap_abs decides (the
    first term was at most 9% of it on the benchmark).  The step sizes keep
    tau*sigma*||grad||^2 = 1 and adapt only through the stall rule in the
    module docstring; the output is certificate-checked either way.
    ``warm_dual`` may carry the dual state of a previous related solve, and
    ``start_ratio`` the PDHG step ratio to start from (default r0).
    ``iters`` in the report counts Newton steps plus PDHG sweeps, and
    ``_MAX_ITERS`` caps their sum.
    """
    require_finite(h=h, gap_tol=gap_tol)
    if not h > 0:
        raise ValueError("time step h must be positive")
    if not gap_tol > 0:
        raise ValueError("gap_tol must be positive")
    grid = theta_prev.grid
    a0, aw, bw = model.mobilities(v_new[0].values, v_new[1].values)
    nb = 2.0 * nu * bw if nu != 0.0 else None  # curvature weights of the dual prox
    loop = _PdhgLoop(theta_prev.values, a0, aw, nb, h, grid.dx, warm_dual)
    chosen = last = prev_hat = None
    iters = newton = 0

    def stop_gap(j):  # the gap a solve stops at, J = j at its iterate
        return max(gap_tol * (1.0 + abs(j)), gap_abs)

    if grid.dim == 1 and loop.reconstructable and (nb is None or float(nb.min()) > 0.0):
        iters = newton = _dual_newton(loop)
        last = loop.certify()
        if last[1] <= stop_gap(last[2]):
            chosen = last

    gn = np.sqrt(grad_operator_norm_bound(grid))
    ratio0 = start_ratio if start_ratio is not None else _R0[grid.dim]
    ratio, min_ratio = ratio0, ratio0 / 4096.0
    if chosen is None:
        loop.set_steps(ratio / gn, 1.0 / (ratio * gn))
    gap_history = []
    window = 5
    while chosen is None and iters < _MAX_ITERS:
        burst = min(_CHECK_EVERY, _MAX_ITERS - iters)
        loop.advance(burst)
        iters += burst
        last = loop.certify()
        t_hat, gap, j_hat = last
        tol_eff = stop_gap(j_hat)
        if gap <= tol_eff:
            chosen = last
            break
        if not loop.reconstructable and not np.isfinite(gap):
            # no usable certificate (mobility floor 0): fall back to the
            # iterate-change rule; the clipped output still obeys the
            # maximum principle exactly
            if prev_hat is not None and float(
                np.abs(t_hat - prev_hat).max()
            ) <= gap_tol * (1.0 + loop.linf):
                chosen = last
                break
            prev_hat = t_hat
        gap_history.append(gap)
        stalled = (
            len(gap_history) >= window
            and np.isfinite(gap_history[-window])
            and gap > 0.5 * gap_history[-window]
        )
        if stalled:
            # the last-iterate gap plateaus proportionally to tau on
            # degenerate dual faces: jump the ratio to the plateau the
            # remaining gap calls for; at the floor, wrap around and double
            # the window so that the wrap-around cannot cycle
            if ratio <= min_ratio:
                ratio = ratio0
                window *= 2
            else:
                jump = min(0.25, 0.3 * tol_eff / gap)
                ratio = max(ratio * jump, min_ratio)
            loop.set_steps(ratio / gn, 1.0 / (ratio * gn))
            gap_history.clear()
    if chosen is None:
        raise SolverError(
            f"gap {last[1]:.3e} above tolerance after {_MAX_ITERS} iterations"
        )

    t_hat, gap, _ = chosen
    report = ThetaStepReport(
        iters=iters,
        sweeps=iters - newton,
        duality_gap=gap,
        linf_in=loop.linf,
        linf_out=float(np.abs(t_hat).max()),
        dual=loop.iterate()[1],
    )
    return ScalarField(grid, t_hat), report


class _PdhgLoop:
    """The theta-problem on flat fields, with preallocated buffers: the
    over-relaxed primal-dual iteration (Chambolle & Pock, Math. Program. 2016;
    Condat, JOTA 2013) and its duality-gap certificate.

    One sweep, primal first, at the module constant rho = _RHO in (0, 2):
    t~ = dataprox(t + tau div p); p~ = dualprox(p + sigma grad(2 t~ - t));
    (t, p) <- (t, p) + rho ((t~, p~) - (t, p)).  The dual prox shrinks each
    cell magnitude to min(|z|, (nb |z| + sigma a)/(nb + sigma)), which covers
    both the pure ball projection (nb = 0) and the quadratic-conjugate case.
    The dual p is the C-contiguous ``(dim, n)`` field of a :class:`Stencil`
    flux buffer; its far-boundary entries, which only ever multiply a zero
    gradient, are kept at 0.  Without a warm dual, p starts at the dual prox
    (sigma = 1) of a grad(t0)/|grad(t0)| + nb grad(t0).  :meth:`set_steps`
    sets the steps, folded with rho and the data prox into per-cell arrays
    (t <- A t + B + S div p), before the first sweep and whenever the
    caller's stall rule changes them; the loop holds the last iterate only.

    :meth:`certify` first projects p onto the cells' balls |p| <= a where
    nb = 0, which relaxation can leave, in place, and then takes the gap at
    the truncated dual reconstruction
    t_hat = T_{-M}^{M}(t_rec), t_rec = t0 + h y/a0, y = div p, M = max|t0|
    (t_rec is the last iterate when a0 has zeros).  The Fenchel dual is
    D(p) = -sum[y t0 + h y^2/(2 a0)] - F*(p), where F* is the indicator of
    |p| <= a (nb = 0) or sum (|p| - a)_+^2 / (2 nb), and the primal
    J(t) = (1/2h) sum a0 (t - t0)^2 + sum a |grad t| + (1/2) sum nb |grad t|^2,
    all times the cell volume; gap = J - D >= 0 bounds J - min J.  div p comes
    from the stencil into the loop's buffers, |grad t|^2 from its sq_grad.  The
    quadratic term stays (1/2) sum nb |grad t|^2, not the energy's
    nu sum b |grad t|^2: the two round differently, and the gap decides when a
    solve stops.
    """

    def __init__(self, t0, a0, aw, nb, h, dx, p=None):
        self.shape = t0.shape
        self.st = st = stencil(t0.shape, dx)
        n = st.n
        self.t0, self.a0, self.aw = (np.reshape(a, n) for a in (t0, a0, aw))
        self.nb = np.reshape(nb, n) if nb is not None else None
        self.h, self.vol = h, dx**st.dim
        self.linf = float(np.abs(self.t0).max())
        self.reconstructable = float(self.a0.min()) > 0.0
        # the ball of each cell where F* is an indicator (None: no such cell)
        self.ball = self.aw if nb is None else (
            np.where(self.nb > 0, np.inf, self.aw) if float(self.nb.min()) <= 0.0 else None)
        self.aw_floor = np.maximum(self.aw, 1e-300)
        self.t, self.buf = self.t0.copy(), st.flux()
        self.p = self.buf[:, st.lead:]
        self.g, self.sq = np.zeros((st.dim, n)), np.empty((st.dim, n))
        self.tbar = None  # the sweep's buffers, bound by the first set_steps
        self.tmp, self.t_next = np.empty(n), np.empty(n)
        self.mag = self.sq[0] if st.dim == 1 else np.empty(n)  # 1D: |z| is taken in sq[0]
        if p is not None:
            np.multiply(np.reshape(p, (st.dim, n)), st.mask, out=self.p)
            return
        g = st.grad(self.t0, self.g)
        mag = self._magnitude(g)
        z = self.aw * g / np.where(mag > 0, mag, 1.0)
        if self.nb is not None:
            z += self.nb * g
        mag = self._magnitude(z)
        cap = self.aw if self.nb is None else (self.nb * mag + self.aw) / (self.nb + 1.0)
        np.multiply(z, np.minimum(mag, cap) / np.maximum(mag, 1e-300), out=self.p)

    def iterate(self):
        """The last (theta, dual) in grid shape."""
        return self.t.reshape(self.shape), self.p.reshape((self.st.dim,) + self.shape)

    def set_steps(self, tau, sigma):
        if self.tbar is None:
            self.tbar, self.grad_tbar = self.st.bound_grad(self.g)
            self.div_p = self.st.bound_div(self.buf)
        coef = tau * self.a0 / self.h
        self.A = (1.0 - _RHO) + _RHO / (1.0 + coef)
        self.B = _RHO * coef * self.t0 / (1.0 + coef)
        self.S = _RHO * tau * self.st.inv / (1.0 + coef)
        self.sig_scale = sigma * self.st.scale
        if self.nb is None:
            self.c, self.nbq = _RHO * self.aw, None
        else:
            self.nbq = _RHO * self.nb / (self.nb + sigma)
            self.c = _RHO * sigma * self.aw / (self.nb + sigma)

    def _magnitude(self, z):
        """Cellwise |z| of a ``(dim, n)`` field, in ``self.mag``."""
        np.multiply(z, z, out=self.sq)
        if self.st.dim > 1:
            np.add(self.sq[0], self.sq[1], out=self.mag)
        return np.sqrt(self.mag, out=self.mag)

    def advance(self, n_iters):
        g, p, tbar, mag, tmp = self.g, self.p, self.tbar, self.mag, self.tmp
        A, B, S, c, nbq = self.A, self.B, self.S, self.c, self.nbq
        t, t_next = self.t, self.t_next
        for _ in range(n_iters):
            # relaxed primal step t_next = t + rho (t~ - t), then 2 t~ - t
            self.div_p(t_next, S)
            np.multiply(A, t, out=tmp)
            t_next += tmp
            t_next += B
            np.subtract(t_next, t, out=tbar)
            tbar *= 2.0 / _RHO
            tbar += t
            # relaxed dual step p <- (1 - rho) p + rho dualprox(z), z in g
            self.grad_tbar(self.sig_scale)
            g += p
            self._magnitude(g)
            if nbq is None:  # rho dualprox(z) = z rho a / max(|z|, a)
                np.maximum(mag, self.aw_floor, out=mag)
                np.divide(c, mag, out=tmp)
            else:  # z min(rho, (nbq |z| + c)/|z|)
                np.multiply(nbq, mag, out=tmp)
                tmp += c
                np.maximum(mag, 1e-300, out=mag)
                tmp /= mag
                np.minimum(tmp, _RHO, out=tmp)
            g *= tmp
            p *= 1.0 - _RHO
            p += g
            t, t_next = t_next, t
        self.t, self.t_next = t, t_next

    def _objective(self, t):
        """J(t) of the class docstring."""
        d = t - self.t0
        data = 0.5 / self.h * float(np.vdot(self.a0 * d, d).real) * self.vol
        sq = self.st.sq_grad(t)
        j = data + float(np.sum(self.aw * np.sqrt(sq))) * self.vol
        if self.nb is not None:
            j += 0.5 * float(np.sum(self.nb * sq)) * self.vol
        return j

    def _dual_value(self, y):
        """D(p) of the class docstring, y = div p.  Cells with a0 = 0
        contribute +inf to the data conjugate unless y vanishes there (the
        unsafeguarded-mobility path has no usable certificate then)."""
        a0, aw, nb = self.a0, self.aw, self.nb
        zero = a0 <= 0.0
        if bool(zero.any()):
            if float(np.abs(y[zero]).max(initial=0.0)) > 1e-12:
                return -np.inf
            y = np.where(zero, 0.0, y)
            a0 = np.where(zero, 1.0, a0)
        val = -float(np.sum(y * self.t0 + 0.5 * self.h * y**2 / a0)) * self.vol
        excess = np.maximum(self._magnitude(self.p) - aw, 0.0)
        if nb is None:
            if float(excess.max()) > 1e-9 * (1.0 + float(aw.max())):
                return -np.inf
            return val
        with np.errstate(divide="ignore", invalid="ignore"):
            pen = np.where(excess > 0, excess**2 / np.where(nb > 0, 2.0 * nb, 1.0), 0.0)
            infeasible = (nb == 0) & (excess > 1e-9 * (1.0 + aw))
        if bool(infeasible.any()):
            return -np.inf
        return val - float(np.sum(pen)) * self.vol

    def certify(self):
        """(t_hat, gap at t_hat, J(t_hat)) at the last iterate, with t_hat in
        grid shape, after projecting the dual onto its balls; the gap is inf
        without a finite dual value."""
        if self.ball is not None:
            mag = np.maximum(self._magnitude(self.p), 1e-300, out=self.mag)
            self.p *= np.minimum(self.ball / mag, 1.0)
        y = self.st.div(self.buf, self.tmp)
        t_rec = self.t0 + self.h * y / self.a0 if self.reconstructable else self.t
        t_hat = np.clip(t_rec, -self.linf, self.linf)
        d_val = self._dual_value(y)  # -inf without a finite dual value: gap inf
        j_hat = self._objective(t_hat)
        return t_hat.reshape(self.shape), j_hat - d_val, j_hat


_NEWTON_CAP = 50  # Newton steps before a 1D solve hands over to PDHG
_ROUNDING_MOVE = 1e-12  # a nu = 0 step moving no edge by more than this times max aw is rounding


def _thomas(diag, off, rhs):
    """x with T x = rhs for the symmetric tridiagonal T with main diagonal
    ``diag`` and off-diagonal ``off``: O(n) elimination without pivoting,
    which is stable for the SPD systems of :func:`_dual_newton`."""
    d, e, x = diag.tolist(), off.tolist() + [0.0], rhs.tolist() + [0.0]
    for i in range(1, len(d)):
        f = e[i - 1] / d[i - 1]
        d[i] -= f * e[i - 1]
        x[i] -= f * x[i - 1]
    for i in range(len(d) - 1, -1, -1):
        x[i] = (x[i] - e[i] * x[i + 1]) / d[i]
    return np.array(x[:-1])


def _dual_newton(loop: _PdhgLoop) -> int:
    """Minimizes the 1D dual Q(p) = sum[h y^2/(2 a0) + y t0] + F*(p), y = div p,
    over the interior edges of ``loop.p``, in place, from the loop's dual;
    returns the Newton steps taken.

    The smooth part has the tridiagonal SPD Hessian h D diag(1/a0) D^T.  For
    nb > 0, semismooth Newton adds 1/nb on the edges |p| > aw.  For nb = 0,
    projected Newton (Bertsekas 1982) fixes the edges held at the bound
    |p| <= aw by the gradient and takes the Newton step on the rest.  Steps
    are damped by an Armijo search along the (projected) step.  A full,
    unprojected step is exact when the signed active set at its end is the
    one it was taken with; the solve stops there, at the cap, when a nu = 0
    step would move no edge beyond rounding, or when no damped step
    decreases Q any more.  The caller certifies the result.
    """
    st, t0, w = loop.st, loop.t0, loop.h / loop.a0
    q, aw = loop.p[0, :-1], loop.aw[:-1]
    nb = None if loop.nb is None else loop.nb[:-1]
    diag0, off0 = (w[:-1] + w[1:]) * st.inv**2, -w[1:-1] * st.inv**2
    problem = (st, st.flux(), w, t0, aw, nb)
    still = _ROUNDING_MOVE * float(np.max(aw, initial=0.0))

    if nb is None:
        np.clip(q, -aw, aw, out=q)
    val, y = _dual_value(q, *problem)
    prev = None
    for k in range(_NEWTON_CAP + 1):
        g = -st.grad(t0 + w * y, loop.g)[0, :-1]
        if nb is None:
            act = np.where((q >= aw) & (g < 0), 1.0, np.where((q <= -aw) & (g > 0), -1.0, 0.0))
            free = act == 0
            diag, off, rhs = np.where(free, diag0, 1.0), off0 * (free[:-1] & free[1:]), g * free
        else:
            act = np.sign(q) * (np.abs(q) > aw)
            g += act * (np.abs(q) - aw) / nb
            diag, off, rhs = diag0 + np.abs(act) / nb, off0, g
        if k == _NEWTON_CAP or np.array_equal(act, prev):
            return k
        d = -_thomas(diag, off, rhs)
        if nb is None and np.all(np.abs(np.clip(q + d, -aw, aw) - q) <= still):
            return k  # optimal to rounding: no step can strictly decrease Q
        s = 1.0
        while s > 1e-9:
            q1 = q + s * d
            if nb is None:
                np.clip(q1, -aw, aw, out=q1)
            val1, y1 = _dual_value(q1, *problem)
            if val1 < val + 1e-4 * float(np.dot(g, q1 - q)):
                break
            s *= 0.5
        else:
            return k
        prev = act if s == 1.0 and np.array_equal(q1, q + d) else None
        q[:] = q1
        val, y = val1, y1


def _dual_value(x, st, buf, w, t0, aw, nb):
    """(Q(x), y) for the dual of :func:`_dual_newton` on the interior edges
    x, with y = div x on the cells; x is written into the flux buffer buf,
    whose far-boundary entry stays 0."""
    buf[0, st.lead:-1] = x
    y = st.div(buf, np.empty(st.n))
    val = float(np.sum(y * (0.5 * w * y + t0)))
    if nb is not None:
        val += 0.5 * float(np.sum(np.maximum(np.abs(x) - aw, 0.0) ** 2 / nb))
    return val, y


# ---------------------------------------------------------------------------
# reference oracle for tiny instances
# ---------------------------------------------------------------------------

def _dense_difference_ops(grid):
    """Dense matrices of the per-axis forward differences (for Newton)."""
    st = stencil(grid.shape, grid.dx)
    cols = [st.grad(e, np.zeros((st.dim, st.n))) for e in np.eye(st.n)]
    return [np.array([c[ax] for c in cols]).T for ax in range(st.dim)]


def _theta_objective(theta: ScalarField, theta0: ScalarField, v, model, nu, h) -> float:
    """J(theta) of the module docstring, with theta0 as theta_prev."""
    a0, _, _ = model.mobilities(v[0].values, v[1].values)
    vol = theta.grid.cell_volume
    data = 0.5 / h * float(np.sum(a0 * (theta.values - theta0.values) ** 2)) * vol
    return data + phi_nu(v, theta, model, nu)


def oracle_theta_min(theta_prev: ScalarField, v_new, model: ModelSpec, nu: float,
                     h: float):
    """High-accuracy reference minimizer for instances of at most 64 cells.

    Newton on a Huber continuation down to mu = 1e-9, started from theta_prev
    (which lies in the max-principle box), evaluating the true nonsmooth
    objective at the end; the better of the Newton point and its truncation
    onto the box is returned with its objective value.  It shares no
    optimization code with the solver it is used to check; its difference
    operator is the package's one :class:`~grainflow.grid.Stencil`, which the
    tests check against an independent slice-based reference.
    """
    grid = theta_prev.grid
    if grid.n_cells > 64:
        raise ValueError("oracle_theta_min is restricted to <= 64 cells")
    vol = grid.cell_volume
    t0 = theta_prev.values
    a0, aw, bw = model.mobilities(v_new[0].values, v_new[1].values)
    linf = float(np.abs(t0).max())

    mats = _dense_difference_ops(grid)
    n = grid.n_cells
    a0f, awf, bwf = a0.ravel(), aw.ravel(), bw.ravel()
    t0f = t0.ravel()

    def smooth_value_grad_hess(x, mu):
        gs = [m @ x for m in mats]
        sq = sum(g**2 for g in gs)
        rho = np.sqrt(sq + mu * mu)
        val = 0.5 / h * float(a0f @ (x - t0f) ** 2) * vol
        val += float(awf @ (rho - mu)) * vol
        grad = a0f / h * (x - t0f)
        hess = np.diag(a0f / h)
        for i, (mi, gi) in enumerate(zip(mats, gs)):
            grad += mi.T @ (awf * gi / rho)
            for jj, (mj, gj) in enumerate(zip(mats, gs)):
                wij = -awf * gi * gj / rho**3
                if i == jj:
                    wij = wij + awf / rho
                hess += mi.T @ (wij[:, None] * mj)
        if nu != 0.0:
            for mi, gi in zip(mats, gs):
                val += nu * float(bwf @ gi**2) * vol
                grad += 2.0 * nu * (mi.T @ (bwf * gi))
                hess += 2.0 * nu * (mi.T @ (bwf[:, None] * mi))
        return val, grad, hess

    x = t0.ravel().copy()
    scale = max(1.0, linf)
    for mu in scale * np.float64([1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9]):
        for _ in range(60):
            val, grad, hess = smooth_value_grad_hess(x, mu)
            if vol * float(np.linalg.norm(grad)) <= 1e-12 * (1.0 + abs(val)):
                break
            try:
                d = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                d = -grad
            s = 1.0
            descent = vol * float(grad @ d)
            for _ in range(50):
                val_new, _, _ = smooth_value_grad_hess(x + s * d, mu)
                if val_new <= val + 1e-4 * s * descent:
                    break
                s *= 0.5
            x = x + s * d

    cand = [np.clip(x.reshape(grid.shape), -linf, linf), x.reshape(grid.shape)]
    objs = [_theta_objective(ScalarField(grid, c), theta_prev, v_new, model, nu, h) for c in cand]
    best = int(np.argmin(objs))
    return ScalarField(grid, cand[best].copy()), float(objs[best])

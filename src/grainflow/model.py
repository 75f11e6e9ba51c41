"""Potential settings, mobility functions, and the constants the scheme needs.

Three double-well settings are supported for the convex part ``gamma`` and the
smooth part ``g(w, eta; u)``:

* ``Polynomial``   -- gamma = 0,
  g = c*(w^2 (w-1)^2 / 4 - u w^2 (w/3 - 1/2)) + (w - eta)^2 / 2
* ``Logarithmic``  -- gamma = (w log w + (1-w) log(1-w)) / 2 on (0, 1) with
  gamma(0) = gamma(1) = 1, g = -(c/2)(w - u - 1/2)^2 + (w - eta)^2 / 2
* ``Indicator``    -- gamma = indicator of [0, 1], same g as Logarithmic.

Mobilities come in two families: constant values, and the quadratic pair
alpha0 = alpha = (eta^2 + kappa)/2, beta = (w^2 + kappa)/2 with a safeguard
floor kappa >= 0.  kappa > 0 keeps the positivity infima delta0, delta1
strictly positive; kappa = 0 reproduces the unsafeguarded quadratics and is
allowed but flagged as outside the well-posedness hypotheses.

All functions are pure and vectorize over numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Potential",
    "MobilityKind",
    "PotentialSpec",
    "MobilitySpec",
    "ModelSpec",
    "CheckCondition",
    "ValidationReport",
    "SolverError",
    "gamma_eval",
    "gamma_prox",
    "g_eval",
    "grad_g",
    "hessian_g",
    "mobility_eval",
    "estimate_c2_norm",
    "estimate_c_star",
    "check_a4",
]


class SolverError(RuntimeError):
    """A solver stopped without meeting its tolerance; the message names the
    solver and, from a run, the step."""


def _member_from_token(cls, token: str, what: str, expected: str):
    """The member of enum cls whose value or lower-cased name is token."""
    token = token.strip().lower()
    for member in cls:
        if token in (member.value, member.name.lower()):
            return member
    raise ValueError(f"unknown {what} {token!r} (expected {expected})")


class Potential(Enum):
    POLYNOMIAL = "g1"
    LOGARITHMIC = "g2"
    INDICATOR = "g3"

    @classmethod
    def from_token(cls, token: str) -> "Potential":
        return _member_from_token(cls, token, "potential", "g1, g2 or g3")


class MobilityKind(Enum):
    CONSTANT = "constant"
    KOBAYASHI = "kobayashi"

    @classmethod
    def from_token(cls, token: str) -> "MobilityKind":
        return _member_from_token(cls, token, "mobility", "constant or kobayashi")


def require_finite(spec=None, *names, **values):
    """ValueError naming the first of spec's fields ``names``, then of ``values``, not finite."""
    for name, value in [(n, getattr(spec, n)) for n in names] + list(values.items()):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class PotentialSpec:
    """Double-well setting: gamma family plus the constants c, u, o*, iota*."""

    setting: Potential
    c: float = 1.0
    u: float = 0.0
    o_star: float = 0.0
    iota_star: float = 1.0

    def __post_init__(self):
        require_finite(self, "c", "u", "o_star", "iota_star")
        if not self.c > 0:
            raise ValueError(f"well depth c must be positive, got {self.c}")
        if not (0.0 <= self.o_star < self.iota_star <= 1.0):
            raise ValueError(
                f"need 0 <= o_star < iota_star <= 1, got ({self.o_star}, {self.iota_star})"
            )
        if self.setting is Potential.LOGARITHMIC:
            # o*, iota* must lie in the domain of the subdifferential, (0, 1)
            if not (self.o_star > 0.0 and self.iota_star < 1.0):
                raise ValueError(
                    "Logarithmic setting requires 0 < o_star and iota_star < 1"
                )


@dataclass(frozen=True)
class MobilitySpec:
    """Mobility triple alpha0, alpha, beta with its gradient terms and bounds."""

    kind: MobilityKind
    kappa: float = 1e-2
    a0: float = 1.0
    a: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        require_finite(self, "kappa", "a0", "a", "b")
        if self.kappa < 0:
            raise ValueError("safeguard floor kappa must be >= 0")
        if self.kind is MobilityKind.CONSTANT:
            if self.a0 <= 0:
                raise ValueError("constant alpha0 must be positive")
            if self.a < 0 or self.b < 0:
                raise ValueError("constant alpha, beta must be nonnegative")

    @property
    def delta1(self) -> float:
        """inf over [0,1]^2 of min(alpha0, beta); must be > 0 when nu > 0."""
        if self.kind is MobilityKind.KOBAYASHI:
            return 0.5 * self.kappa
        return min(self.a0, self.b)

    @property
    def delta0(self) -> float:
        """inf over [0,1]^2 of min(alpha0, alpha); must be > 0 when nu = 0."""
        if self.kind is MobilityKind.KOBAYASHI:
            return 0.5 * self.kappa
        return min(self.a0, self.a)

    @property
    def delta_star(self) -> float:
        """sup of beta over the unit box [0,1]^2 (upper mobility bound)."""
        if self.kind is MobilityKind.KOBAYASHI:
            return 0.5 * (1.0 + self.kappa)
        return self.b

    @property
    def curvature_bound(self) -> float:
        """sup of the spectral norms of Hess(alpha) and Hess(beta): 1 for the
        quadratic family, 0 for constants."""
        return 1.0 if self.kind is MobilityKind.KOBAYASHI else 0.0

    def add_gradient_terms(self, q1, q2, w, eta, gw, ge, tmp):
        """(gw, ge) += q1 grad(alpha) + q2 grad(beta) at (w, eta), in place,
        with tmp as scratch; q2 is None for nu = 0.  grad(alpha) = (0, eta)
        and grad(beta) = (w, 0) for the quadratic family; constant
        mobilities add nothing."""
        if self.kind is MobilityKind.KOBAYASHI:
            ge += np.multiply(q1, eta, out=tmp)
            if q2 is not None:
                gw += np.multiply(q2, w, out=tmp)


# ---------------------------------------------------------------------------
# gamma: evaluation and proximal operator
# ---------------------------------------------------------------------------

def gamma_eval(spec: PotentialSpec, w):
    """Extended-real gamma(w); +inf exactly outside the effective domain."""
    w = np.asarray(w, dtype=float)
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    if spec.setting is Potential.POLYNOMIAL:
        out = np.zeros_like(w)
    elif spec.setting is Potential.INDICATOR:
        out = np.where((w >= 0.0) & (w <= 1.0), 0.0, np.inf)
    else:
        out = np.full_like(w, np.inf)
        interior = (w > 0.0) & (w < 1.0)
        if np.any(interior):
            wi = w[interior]
            out[interior] = 0.5 * (wi * np.log(wi) + (1.0 - wi) * np.log1p(-wi))
        out[(w == 0.0) | (w == 1.0)] = 1.0  # paper convention at the endpoints
    return float(out[0]) if scalar else out


def gamma_prox(spec: PotentialSpec, lam, r):
    """prox of gamma: the unique minimizer of (1/(2 lam))(x - r)^2 + gamma(x).

    For the Logarithmic setting the first-order condition
    x + (lam/2) log(x/(1-x)) = r is solved cell by cell in the logit variable
    s = logit(x) by a bisection-safeguarded Newton iteration.  Newton starts
    from logit(r) (with r clipped into (0, 1)), kept inside the bracket that
    sigmoid in [0, 1] gives, and a cell's s is frozen once its residual
    |sigmoid(s) + (lam/2) s - r| is <= max(1e-13, 4 eps |r|): past
    |r| of about 100 the rounding of r alone exceeds 1e-13.  Raises
    ``SolverError`` if r is not finite or if some cell is still above
    that tolerance after 200 sweeps.
    """
    if not lam > 0:  # a scalar or 0-d array; NaN is rejected too
        raise ValueError("prox parameter lam must be positive")
    r_arr = np.asarray(r, dtype=float)
    scalar = r_arr.ndim == 0
    r_arr = np.atleast_1d(r_arr)
    # each branch returns a new array, never r itself
    if spec.setting is Potential.POLYNOMIAL:
        out = r_arr.copy()
    elif spec.setting is Potential.INDICATOR:
        out = np.clip(r_arr, 0.0, 1.0)
    else:
        out = _log_prox(float(lam), r_arr)
    return float(out[0]) if scalar else out


def _sigmoid(s):
    # exp(-|s|) never overflows; equal bit for bit to 1/(1 + exp(-s)) for
    # s >= 0 and exp(s)/(1 + exp(s)) below
    e = np.exp(-np.abs(s))
    return np.where(s >= 0, 1.0, e) / (1.0 + e)


_LOG_PROX_TOL = 1e-13
_LOG_PROX_MAX_SWEEPS = 200


def _log_prox(lam: float, r: np.ndarray) -> np.ndarray:
    # phi(s) = sigmoid(s) + (lam/2) s - r is strictly increasing in s = logit(x);
    # bracket from sigmoid in [0, 1], then Newton steps kept inside the bracket.
    # Cells that meet the tolerance keep their s, so their sigmoid is final.
    if not np.all(np.isfinite(r)):
        raise SolverError(
            f"logarithmic prox got {int(np.sum(~np.isfinite(r)))} non-finite input cells"
        )
    half = 0.5 * lam
    lo = (r - 1.0) / half
    hi = r / half
    tol = np.maximum(_LOG_PROX_TOL, 4.0 * np.finfo(float).eps * np.abs(r))
    x0 = np.clip(r, 5e-324, np.nextafter(1.0, 0.0))
    s = np.clip(np.log(x0) - np.log1p(-x0), lo, hi)
    for _ in range(_LOG_PROX_MAX_SWEEPS):
        sig = _sigmoid(s)
        phi = sig + half * s - r
        done = np.abs(phi) <= tol
        if done.all():
            break
        lo = np.where(phi < 0, s, lo)
        hi = np.where(phi >= 0, s, hi)
        s_new = s - phi / (sig * (1.0 - sig) + half)
        # where sigmoid saturates, Newton aims at a bracket end itself, so
        # landing on one is accepted; a step that does not move is not
        bad = (s_new < lo) | (s_new > hi) | (s_new == s)
        s = np.where(done, s, np.where(bad, 0.5 * (lo + hi), s_new))
    else:
        left = ~done
        raise SolverError(
            f"logarithmic prox left {int(left.sum())} cells above"
            f" max({_LOG_PROX_TOL:.0e}, 4 eps|r|) after {_LOG_PROX_MAX_SWEEPS} sweeps"
            f" (worst residual {np.max(np.abs(phi[left])):.3e})"
        )
    # keep the output strictly inside (0, 1) so gamma' stays finite even when
    # the true minimizer is closer to an endpoint than floats can represent
    return np.clip(sig, 5e-324, np.nextafter(1.0, 0.0))


# ---------------------------------------------------------------------------
# g: value, gradient, Hessian
# ---------------------------------------------------------------------------

def g_eval(spec: PotentialSpec, w, eta):
    w = np.asarray(w, dtype=float)
    eta = np.asarray(eta, dtype=float)
    c, u = spec.c, spec.u
    coupling = 0.5 * (w - eta) ** 2
    if spec.setting is Potential.POLYNOMIAL:
        well = c * (0.25 * w**2 * (w - 1.0) ** 2 - u * w**2 * (w / 3.0 - 0.5))
    else:
        well = -0.5 * c * (w - u - 0.5) ** 2
    out = well + coupling
    return float(out) if out.ndim == 0 else out


def grad_g(spec: PotentialSpec, w, eta):
    """Exact partial derivatives (g_w, g_eta) of the configured g."""
    w = np.asarray(w, dtype=float)
    eta = np.asarray(eta, dtype=float)
    c, u = spec.c, spec.u
    if spec.setting is Potential.POLYNOMIAL:
        gw = c * w * (w - 1.0) * (w - 0.5 - u) + (w - eta)
    else:
        gw = -c * (w - u - 0.5) + (w - eta)
    ge = eta - w
    if gw.ndim == 0:
        return float(gw), float(ge)
    return gw, ge


def hessian_g(spec: PotentialSpec, w, eta):
    """(g_ww, g_weta, g_etaeta); constant in eta for all settings."""
    w = np.asarray(w, dtype=float)
    c, u = spec.c, spec.u
    if spec.setting is Potential.POLYNOMIAL:
        gww = c * (3.0 * w**2 - (3.0 + 2.0 * u) * w + 0.5 + u) + 1.0
    else:
        gww = (1.0 - c) * np.ones_like(w)
    gwe = -np.ones_like(w)
    gee = np.ones_like(w)
    return gww, gwe, gee


# ---------------------------------------------------------------------------
# mobilities
# ---------------------------------------------------------------------------

def mobility_eval(spec: MobilitySpec, w, eta):
    """Returns (alpha0, alpha, beta) at (w, eta), two arrays of one shape; the
    gradients of alpha and beta enter only through :meth:`MobilitySpec.add_gradient_terms`."""
    w = np.asarray(w, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if spec.kind is MobilityKind.KOBAYASHI:
        a0 = 0.5 * (eta**2 + spec.kappa)
        return a0, a0, 0.5 * (w**2 + spec.kappa)
    shape = np.broadcast(w, eta).shape
    return np.full(shape, spec.a0), np.full(shape, spec.a), np.full(shape, spec.b)


# ---------------------------------------------------------------------------
# derived constants
# ---------------------------------------------------------------------------

_SAMPLES = 401  # points per axis of the sampling lattice on [0,1]^2
_LATTICE_ROWS = 16  # lattice rows sampled at a time: the peak memory of a model build


def _lattice_blocks(samples: int):
    """(W, E) blocks of the samples x samples lattice on [0,1]^2, by rows."""
    if samples < 2:
        raise ValueError("need at least a 2x2 sampling lattice")
    ws = np.linspace(0.0, 1.0, samples)
    return (np.meshgrid(ws[i:i + _LATTICE_ROWS], ws, indexing="ij")
            for i in range(0, samples, _LATTICE_ROWS))


def estimate_c2_norm(spec: PotentialSpec) -> float:
    """C2 norm of g on [0,1]^2 by dense lattice sampling: the max over sample
    points of |g|, the Euclidean gradient norm, and the spectral norm of the
    Hessian.  The spectral (operator) norm is what the contraction and
    dissipation constants require.  A max does not depend on the blocks."""
    top = 0.0
    for W, E in _lattice_blocks(_SAMPLES):
        vals = np.abs(g_eval(spec, W, E))
        gw, ge = grad_g(spec, W, E)
        gnorm = np.sqrt(gw**2 + ge**2)
        gww, gwe, gee = hessian_g(spec, W, E)
        spectral = np.abs(0.5 * (gww + gee)) + np.sqrt(0.25 * (gww - gee) ** 2 + gwe**2)
        top = max(top, vals.max(), gnorm.max(), spectral.max())
    return float(top)


def estimate_c_star(spec: PotentialSpec) -> float:
    """Sampled lower bound constant c* with gamma + g >= c* on [0,1]^2."""
    return float(min(np.min(gamma_eval(spec, W) + g_eval(spec, W, E))
                     for W, E in _lattice_blocks(_SAMPLES)))


@dataclass(frozen=True)
class ModelSpec:
    """Potential setting plus mobilities, with the cached constants the
    scheme needs: the C2 norm L of g on the unit box and the energy floor c*."""

    potential: PotentialSpec
    mobility: MobilitySpec
    c2_norm: float = None
    c_star: float = None

    def __post_init__(self):
        if self.c2_norm is None:
            object.__setattr__(self, "c2_norm", estimate_c2_norm(self.potential))
        if self.c_star is None:
            object.__setattr__(self, "c_star", estimate_c_star(self.potential))

    # convenience pass-throughs used throughout the solvers
    def gamma_prox(self, lam, r):
        return gamma_prox(self.potential, lam, r)

    def g(self, w, eta):
        return g_eval(self.potential, w, eta)

    def grad_g(self, w, eta):
        return grad_g(self.potential, w, eta)

    def mobilities(self, w, eta):
        return mobility_eval(self.mobility, w, eta)

    @property
    def o_star(self) -> float:
        return self.potential.o_star

    @property
    def iota_star(self) -> float:
        return self.potential.iota_star

    def mobility_floor(self, nu: float) -> float:
        """delta1 for nu > 0, delta0 for nu = 0."""
        return self.mobility.delta1 if nu > 0 else self.mobility.delta0


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckCondition:
    name: str
    passed: bool
    margin: float


@dataclass(frozen=True)
class ValidationReport:
    conditions: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def __str__(self):
        rows = [
            f"  [{'ok' if c.passed else 'FAIL'}] {c.name} (margin {c.margin:+.3e})"
            for c in self.conditions
        ]
        return "\n".join(rows)


def _gamma_subdiff_bounds(spec: PotentialSpec, t: float):
    """(lo, hi) of the subdifferential of gamma at t, or None if empty."""
    if spec.setting is Potential.POLYNOMIAL:
        return (0.0, 0.0)
    if spec.setting is Potential.LOGARITHMIC:
        if not (0.0 < t < 1.0):
            return None
        d = 0.5 * math.log(t / (1.0 - t))
        return (d, d)
    # indicator of [0, 1]: normal cone
    if t == 0.0:
        return (-math.inf, 0.0)
    if t == 1.0:
        return (0.0, math.inf)
    if 0.0 < t < 1.0:
        return (0.0, 0.0)
    return None


_A4_TOL = 1e-12


def check_a4(model: ModelSpec) -> ValidationReport:
    """Evaluates every inequality of assumption (A4) at the corner states
    (o*, 0) and (iota*, 1); each condition is reported as a signed margin
    (margin >= 0 means it holds, equality included)."""
    pot = model.potential
    o, i = pot.o_star, pot.iota_star
    conds = []

    gw_lo, ge_lo = grad_g(pot, o, 0.0)
    gw_hi, ge_hi = grad_g(pot, i, 1.0)

    sub_lo = _gamma_subdiff_bounds(pot, o)
    if sub_lo is None:
        conds.append(CheckCondition("subdiff(gamma) nonempty at o*", False, -math.inf))
    else:
        margin = -gw_lo - sub_lo[0]
        conds.append(
            CheckCondition("subdiff(gamma)(o*) meets (-inf, -g_w(o*,0)]", margin >= -_A4_TOL, margin)
        )
    sub_hi = _gamma_subdiff_bounds(pot, i)
    if sub_hi is None:
        conds.append(CheckCondition("subdiff(gamma) nonempty at iota*", False, -math.inf))
    else:
        margin = sub_hi[1] + gw_hi
        conds.append(
            CheckCondition("subdiff(gamma)(iota*) meets [-g_w(iota*,1), inf)", margin >= -_A4_TOL, margin)
        )

    conds.append(CheckCondition("g_eta(o*, 0) <= 0", -ge_lo >= -_A4_TOL, -ge_lo))
    conds.append(CheckCondition("g_eta(iota*, 1) >= 0", ge_hi >= -_A4_TOL, ge_hi))

    # the gradients from add_gradient_terms: q1 = 1 adds grad(alpha), q2 = 1 grad(beta)
    for corner, (w, e), sign in (("(o*,0) <= 0", (o, 0.0), -1.0),
                                 ("(iota*,1) >= 0", (i, 1.0), 1.0)):
        for name, q in (("alpha", (1.0, None)), ("beta", (0.0, 1.0))):
            gw, ge = np.zeros(1), np.zeros(1)
            model.mobility.add_gradient_terms(*q, w, e, gw, ge, np.empty(1))
            for var, g in (("w", gw), ("eta", ge)):
                margin = sign * float(g[0])
                conds.append(CheckCondition(f"{name}_{var}{corner}", margin >= -_A4_TOL, margin))

    return ValidationReport(tuple(conds))

"""Rectangular-grid discrete calculus with zero-Neumann boundary semantics.

Fields live on a uniform grid (1D or 2D, spacing ``dx``).  The gradient
:meth:`Stencil.grad` is the forward difference with a zero ghost gradient on
the far boundary; the divergence :meth:`Stencil.div` is defined as its exact
negative adjoint, so the discrete integration-by-parts identity

    sum(grad(f) * p) = -sum(f * div(p))

holds to machine precision for every flux p that is 0 on the far boundary.
The cached :func:`stencil` gives the package one :class:`Stencil`, scratch
included, per (shape, dx, fields).  All integrals are cell sums times ``dx**dim``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "ScalarField",
    "PhaseState",
    "dirichlet_energy",
    "grad_operator_norm_bound",
    "save_field",
    "save_field_raw",
    "stencil",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular grid: 1 or 2 axes, extents >= 2, finite spacing dx > 0."""

    dim: int
    shape: tuple
    dx: float

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if len(self.shape) != self.dim:
            raise ValueError(f"shape {self.shape} does not match dim {self.dim}")
        if any(n < 2 for n in self.shape):
            raise ValueError(f"all extents must be >= 2, got {self.shape}")
        if not 0 < self.dx < math.inf:
            raise ValueError(f"spacing must be positive and finite, got {self.dx}")

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.shape))

    @property
    def cell_volume(self) -> float:
        return float(self.dx**self.dim)

    @property
    def volume(self) -> float:
        return self.n_cells * self.cell_volume


@dataclass
class ScalarField:
    """Real values on a grid, stored with the grid's shape (row-major)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).reshape(self.grid.shape)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("ScalarField values must be finite")

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())


@dataclass
class PhaseState:
    """The per-step unknown triplet: solidification w, orientation order eta,
    orientation angle theta, all on one grid."""

    w: ScalarField
    eta: ScalarField
    theta: ScalarField

    def __post_init__(self):
        if not (self.w.grid == self.eta.grid == self.theta.grid):
            raise ValueError("all fields of a PhaseState must share one grid")

    @property
    def grid(self) -> GridSpec:
        return self.w.grid

    def copy(self) -> "PhaseState":
        return PhaseState(self.w.copy(), self.eta.copy(), self.theta.copy())


class Stencil:
    """The package's one discrete gradient and divergence (its negative
    adjoint), on flat C-order fields of n cells, with buffers for the solver
    loops; :func:`stencil` keeps one per (shape, dx, fields) for every caller.
    The difference along axis k is one subtract at flat stride ``steps[k]``;
    ``mask`` zeroes each component's far boundary (``scale`` is mask/dx).  A
    flux lives in a ``(dim, lead + n)`` buffer from :meth:`flux`, its field in
    ``buf[:, lead:]`` after ``lead = max(steps)`` zeros, so the divergence
    reads each shifted component straight from the buffer (at a row start the
    stride-1 axis reads the previous row's far-boundary 0).  The buffer views
    one flat array, ``lead`` zeros and then component after component: the
    field is C-contiguous, and the lead entries of component k > 0 are the
    far boundary of component k - 1, which a flux keeps at 0.  Axis
    differences are summed, then scaled by 1/dx once.  The callers of one
    instance share its scratch ``_tmp`` and ``_lap``, which hold nothing
    between calls: one thread at a time, and no views of them out.
    With ``fields`` > 1 the n = fields * prod(shape) cells hold that many
    fields block after block; the mask wraps per block, the divergence reads
    a masked 0 at each block seam, and each block's result equals the
    one-field stencil's (a masked gradient entry may be -0.0 instead of 0.0).
    """

    def __init__(self, shape, dx: float, fields: int = 1):
        shape = tuple(shape)
        self.dim, self.n = len(shape), fields * math.prod(shape)
        self.steps = tuple(math.prod(shape[k + 1:]) for k in range(self.dim))
        self.lead = self.steps[0]
        self.inv = 1.0 / dx
        cell = np.arange(self.n)
        self.mask = np.array([cell // s % m != m - 1 for s, m in zip(self.steps, shape)], float)
        self.scale = self.mask * self.inv
        self._tmp = np.empty(self.n)
        self._lap = self.flux()
        self._lap_div = self.bound_div(self._lap)

    def flux(self) -> np.ndarray:
        """A zeroed ``(dim, lead + n)`` flux buffer over one flat array."""
        flat = np.zeros(self.lead + self.dim * self.n)
        return np.ndarray((self.dim, self.lead + self.n), buffer=flat, strides=(8 * self.n, 8))

    def bound_grad(self, out: np.ndarray):
        """(f, grad): a zeroed field f of n cells with lead - 1 zeros after it,
        and grad(scale), :meth:`grad` of f into out in one subtract on views
        made once (the last row's axis-0 differences read those zeros, then
        are masked; out[:, -1] is never written and must stay finite)."""
        n, lead = self.n, self.lead
        pad = np.zeros(n + lead - 1)
        ahead = np.ndarray((self.dim, n - 1), buffer=pad, offset=8 * lead,
                           strides=(8 * (self.steps[-1] - lead), 8))
        here, diff = np.ndarray((self.dim, n - 1), buffer=pad, strides=(0, 8)), out[:, :-1]

        def grad(scale):
            np.subtract(ahead, here, out=diff)
            np.multiply(out, scale, out=out)

        return pad[:n], grad

    def grad(self, f: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out[k] = the forward difference of the flat f along axis k over dx,
        into a ``(dim, n)`` out whose entries are finite (those on the far
        boundary are overwritten by 0)."""
        for k, s in enumerate(self.steps):
            np.subtract(f[s:], f[:-s], out=out[k, :-s])
        out *= self.scale
        return out

    def div(self, buf: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out (n cells) = the divergence of the flux ``buf[:, lead:]``, the
        summed backward differences over dx; its far-boundary entries must
        be 0."""
        return self.bound_div(buf)(out, self.inv)

    def bound_div(self, buf: np.ndarray):
        """The summed backward differences of buf times scale, as a function
        of (out, scale), on views made once; scale = 1/dx gives :meth:`div`."""
        n, lead, tmp = self.n, self.lead, self._tmp  # no reference back to self
        pairs = [(buf[k, lead:], buf[k, lead - s:lead - s + n]) for k, s in enumerate(self.steps)]

        def div(out, scale):
            np.subtract(*pairs[0], out=out)
            for minuend, subtrahend in pairs[1:]:
                out += np.subtract(minuend, subtrahend, out=tmp)
            out *= scale
            return out

        return div

    def laplacian(self, f: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = div(grad f), with out a contiguous array of n cells."""
        self.grad(f.reshape(-1), self._lap[:, self.lead:])
        self._lap_div(out.reshape(-1), self.inv)
        return out

    def sq_grad(self, f: np.ndarray) -> np.ndarray:
        """A fresh array of the cellwise |grad f|^2, in f's shape."""
        g = self.grad(f.reshape(-1), np.zeros((self.dim, self.n)))
        return np.add.reduce(g * g).reshape(f.shape)


@functools.lru_cache(maxsize=64)
def stencil(shape: tuple, dx: float, fields: int = 1) -> Stencil:
    """The package's one :class:`Stencil` for (shape, dx, fields); give
    fields positionally or not at all, since the cache keys on the call."""
    return Stencil(shape, dx, fields)


def dirichlet_energy(f: ScalarField) -> float:
    """(1/2) sum |grad f|^2 dx**dim."""
    st = stencil(f.grid.shape, f.grid.dx)
    g = st.grad(f.values.reshape(-1), np.zeros((st.dim, st.n)))
    s = sum(float(np.vdot(c, c)) for c in g)
    return 0.5 * s * f.grid.cell_volume


def grad_operator_norm_bound(grid: GridSpec) -> float:
    """Certified upper bound on ||gradient||^2: 4*dim/dx^2."""
    return 4.0 * grid.dim / grid.dx**2


# ---------------------------------------------------------------------------
# snapshot file format
# ---------------------------------------------------------------------------

def _shape_token(grid: GridSpec) -> str:
    return "x".join(str(n) for n in grid.shape)


def save_field(path, f: ScalarField, extra_header_lines=()):
    """Write a field snapshot: a grid header line then one value per line,
    row-major.  Values are written with repr so a re-read is bitwise exact."""
    lines = [f"# grid dim={f.grid.dim} shape={_shape_token(f.grid)} dx={f.grid.dx!r}"]
    for h in extra_header_lines:
        lines.append(f"# {h}")
    lines.extend(repr(float(v)) for v in f.values.ravel())
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def save_field_raw(path, f: ScalarField, extra_meta_lines=()):
    """Raw snapshot: little-endian float64, row-major, plus a sidecar
    ``<path>.meta`` in the config text format."""
    f.values.astype("<f8").ravel().tofile(path)
    meta = ["[field]", f"dim = {f.grid.dim}", f"shape = {_shape_token(f.grid)}",
            f"dx = {f.grid.dx!r}"]
    meta.extend(extra_meta_lines)
    with open(f"{path}.meta", "w") as fh:
        fh.write("\n".join(meta) + "\n")

"""Slice-based forward-difference gradient, divergence, Laplacian and total
variation.

These are written per axis with plain slices and share no code with
``grainflow.grid.Stencil``, so the stencil tests, and the solver tests that
spell a sweep or a residual out by hand, compare the program against an
independent reference rather than against itself.
"""

import numpy as np


def grad_slices(values: np.ndarray, dx: float):
    """Forward-difference gradient per axis; last slice along each axis is 0."""
    comps = []
    inv = 1.0 / dx
    for ax in range(values.ndim):
        g = np.zeros_like(values)
        src = [slice(None)] * values.ndim
        dst = [slice(None)] * values.ndim
        src[ax] = slice(1, None)
        dst[ax] = slice(0, -1)
        g[tuple(dst)] = values[tuple(src)]
        g[tuple(dst)] -= values[tuple(dst)]
        g *= inv
        comps.append(g)
    return comps


def div_slices(comps, dx: float) -> np.ndarray:
    """Negative adjoint of :func:`grad_slices` (backward difference with
    boundary folding; the last slice of each component is ignored)."""
    out = np.zeros_like(comps[0])
    inv = 1.0 / dx
    for ax, p in enumerate(comps):
        nd = p.ndim
        first = [slice(None)] * nd
        first[ax] = slice(0, 1)
        last = [slice(None)] * nd
        last[ax] = slice(-1, None)
        secondlast = [slice(None)] * nd
        secondlast[ax] = slice(-2, -1)
        mid = [slice(None)] * nd
        mid[ax] = slice(1, -1)
        midlo = [slice(None)] * nd
        midlo[ax] = slice(0, -2)
        out[tuple(first)] += inv * p[tuple(first)]
        out[tuple(mid)] += inv * (p[tuple(mid)] - p[tuple(midlo)])
        out[tuple(last)] -= inv * p[tuple(secondlast)]
    return out


def laplacian_slices(values: np.ndarray, dx: float) -> np.ndarray:
    return div_slices(grad_slices(values, dx), dx)


def tv_slices(values: np.ndarray, dx: float) -> float:
    """Isotropic total variation sum |grad f| dx**dim of :func:`grad_slices`."""
    sq = sum(c**2 for c in grad_slices(values, dx))
    return float(np.sum(np.sqrt(sq))) * dx**values.ndim

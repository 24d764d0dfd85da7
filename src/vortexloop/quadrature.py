"""Quadrature and interpolation helpers used throughout the package.

Integrals over inter-zero segments use composite Gauss-Legendre panels; full
period integrals of smooth periodic integrands use the trapezoidal rule on a
uniform grid, which converges spectrally there.  Uniformly sampled periodic
data (loop coordinates, sampled densities, vector fields along a loop) is
interpolated by one periodic cubic spline construction.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline

TWO_PI = 2.0 * np.pi

# Panels wider than this are subdivided before applying the 64-node rule.
MAX_PANEL = np.pi / 4.0

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def panel_integrals(fn: Callable[[np.ndarray], np.ndarray], edges: np.ndarray) -> np.ndarray:
    """Integrate ``fn`` over each interval of the partition ``edges``.

    Applies one 64-node Gauss-Legendre rule per interval; every interval must
    already be narrower than ``MAX_PANEL`` if panel-level accuracy is needed.
    Returns an array of per-interval integrals (signed by interval direction).
    """
    edges = np.asarray(edges, dtype=float)
    lo = edges[:-1]
    hi = edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = fn(nodes.ravel()).reshape(nodes.shape)
    return half * (vals @ _GL_WEIGHTS)


def integrate(fn: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> float:
    """Composite Gauss-Legendre integral of ``fn`` over ``[a, b]``."""
    if b == a:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    n_panels = max(1, int(np.ceil((b - a) / MAX_PANEL)))
    edges = np.linspace(a, b, n_panels + 1)
    return sign * float(np.sum(panel_integrals(fn, edges)))


def periodic_trapezoid(values: np.ndarray):
    """Trapezoidal rule for one period of a uniformly sampled periodic function
    along the last axis: a float for 1-d input, one integral per stacked row."""
    values = np.asarray(values, dtype=float)
    total = values.sum(axis=-1) * (TWO_PI / values.shape[-1])
    return float(total) if total.ndim == 0 else total


def periodic_spline(values) -> CubicSpline:
    """Periodic cubic spline through uniform samples on [0, 2*pi), along axis 0.

    Row ``j`` of ``values`` is the value at ``2*pi*j/N``.  The spline and its
    derivatives wrap any real argument onto the period.  Its antiderivative
    is not periodic and returns NaN outside [0, 2*pi], so callers wrap that
    argument themselves.
    """
    vals = np.asarray(values, dtype=float)
    grid = np.linspace(0.0, TWO_PI, vals.shape[0] + 1)
    return CubicSpline(grid, np.concatenate([vals, vals[:1]]), bc_type="periodic")

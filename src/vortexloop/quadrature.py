"""Quadrature and interpolation helpers used throughout the package.

Full period integrals of smooth periodic integrands use the trapezoidal rule
on a uniform grid, which converges spectrally there.  Uniformly sampled
periodic data (loop coordinates, sampled densities, vector fields along a
loop) is interpolated by one periodic cubic spline construction.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import CubicSpline

TWO_PI = 2.0 * np.pi


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

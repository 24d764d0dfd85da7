"""Quadrature and interpolation helpers used throughout the package.

Full period integrals of smooth periodic integrands use the trapezoidal rule
on a uniform grid, which converges spectrally there.  Uniformly sampled
periodic data (loop coordinates, sampled densities, vector fields along a
loop, the displacement of a circle map) is interpolated by one periodic
piecewise cubic, ``PeriodicCubic``; ``periodic_spline`` gives it the nodal
slopes of the periodic cubic spline.
"""

from __future__ import annotations

import functools

import numpy as np

TWO_PI = 2.0 * np.pi


def uniform_grid(n: int) -> np.ndarray:
    """Every uniform sample grid of the package: ``t_j = 2*pi*j/n`` for j < n,
    bit for bit ``np.linspace(0, 2*pi, n, endpoint=False)``."""
    return np.arange(n) * (TWO_PI / n)


def _cyclic_shift(a: np.ndarray, shift: int) -> np.ndarray:
    """Rows of the non-empty ``a`` moved ``shift`` places along axis 0, wrapping
    round: row i of the result is row ``(i - shift) mod N`` of ``a``.  Bit for
    bit numpy's ``roll`` along axis 0, as two slices joined in one call."""
    cut = -shift % a.shape[0]
    return np.concatenate((a[cut:], a[:cut]))


def periodic_trapezoid(values: np.ndarray):
    """Trapezoidal rule for one period of a uniformly sampled periodic function
    along the last axis: a float for 1-d input, one integral per stacked row."""
    values = np.asarray(values, dtype=float)
    total = values.sum(axis=-1) * (TWO_PI / values.shape[-1])
    return float(total) if total.ndim == 0 else total


class PeriodicCubic:
    """C^1 piecewise cubic through ``N`` uniform nodes of [0, 2*pi), along axis 0.

    Node ``j`` sits at ``knots[j] = 2*pi*j/N`` with value ``values[j]`` and
    slope ``slopes[j]`` (rows are scalars or points).  Cell ``j`` is the cubic
    Hermite interpolant of nodes ``j`` and ``j + 1 mod N`` in its own
    coordinate ``t - knots[j]``, so every node gives back its sample exactly.
    Any real argument is accepted: value and derivative are periodic, and the
    antiderivative from 0 adds the period integral once per winding.
    """

    def __init__(self, values, slopes):
        y = np.asarray(values, dtype=float)
        m = np.asarray(slopes, dtype=float)
        h = TWO_PI / y.shape[0]
        self.knots = uniform_grid(y.shape[0])
        secant = (_cyclic_shift(y, -1) - y) / h
        m_next = _cyclic_shift(m, -1)
        c = (3.0 * secant - 2.0 * m - m_next) / h
        d = (m + m_next - 2.0 * secant) / (h * h)
        self._coeffs = np.stack([y, m, c, d])

    @functools.cached_property
    def _cumulative(self):
        """Integral from 0 to each node and, last, to 2*pi; built on the first
        ``antiderivative`` call, since most splines are never integrated."""
        y, m, c, d = self._coeffs
        h = TWO_PI / y.shape[0]
        cells = h * (y + h * (m / 2.0 + h * (c / 3.0 + h * d / 4.0)))
        return np.concatenate([np.zeros_like(y[:1]), np.cumsum(cells, axis=0)])

    def _locate(self, t):
        """Wrapped argument, cell index, cell coordinate and cell coefficients."""
        wrapped = np.mod(t, TWO_PI)
        j = np.searchsorted(self.knots, wrapped, side="right") - 1
        x = (wrapped - self.knots[j]).reshape(j.shape + (1,) * (self._coeffs.ndim - 2))
        return wrapped, j, x, np.take(self._coeffs, j, axis=1)

    @staticmethod
    def _cubic(x, coeffs, nu):
        """Value (``nu=0``) or first derivative (``nu=1``) of the cells ``coeffs`` at ``x``."""
        y, m, c, d = coeffs
        if nu == 0:
            return y + x * (m + x * (c + x * d))
        if nu == 1:
            return m + x * (2.0 * c + 3.0 * x * d)
        raise ValueError(f"derivative order must be 0 or 1, got {nu}")

    def __call__(self, t, nu: int = 0):
        """Value (``nu=0``) or first derivative (``nu=1``) at ``t``."""
        _, _, x, coeffs = self._locate(np.asarray(t, dtype=float))
        return self._cubic(x, coeffs, nu)

    def _in_cells(self, x, nu: int = 0):
        """Value (``nu=0``) or first derivative (``nu=1``) of each cell j at the
        offsets ``x[j]`` from its knot, for ``x`` of shape (N, q): shape (N, q)
        plus the rows' shape.  At ``x[j] = t - knots[j]`` for points ``t`` of
        cell j that need no wrap, these are ``self(t, nu)`` bit for bit, with
        no wrap, search or gather."""
        x = x.reshape(x.shape + (1,) * (self._coeffs.ndim - 2))
        return self._cubic(x, self._coeffs[:, :, None], nu)

    def _on_uniform_grid(self, n: int, nu: int = 0):
        """``self(uniform_grid(n), nu)``, bit for bit.

        When n is the node count N times a power of two q, point ``j q + r``
        of the grid lies in cell j, and point ``j q`` is knot j exactly:
        scaling by a power of two is exact, so ``uniform_grid(n)[j q]`` and
        ``knots[j]`` round alike.  Each cell is then evaluated at its row of
        an (N, q) array of offsets from its knot (``_in_cells``).  Any other
        n goes through ``__call__``: there a grid point can round to just
        below its knot, into the cell before.
        """
        nodes = self.knots.size
        q, rest = divmod(n, nodes)
        if rest or q & (q - 1):
            return self(uniform_grid(n), nu)
        out = self._in_cells(uniform_grid(n).reshape(nodes, q) - self.knots[:, None], nu)
        return out.reshape((n,) + out.shape[2:])

    def antiderivative(self, t):
        """Integral from 0 to ``t``, for any real ``t``."""
        t = np.asarray(t, dtype=float)
        wrapped, j, x, (y, m, c, d) = self._locate(t)
        winding = np.round((t - wrapped) / TWO_PI).reshape(x.shape)
        return (np.take(self._cumulative, j, axis=0) + winding * self._cumulative[-1]
                + x * (y + x * (m / 2.0 + x * (c / 3.0 + x * d / 4.0))))


def periodic_spline(values) -> PeriodicCubic:
    """Periodic C^2 cubic spline through uniform samples on [0, 2*pi), along axis 0.

    Row ``j`` of ``values`` is the value at ``2*pi*j/N``.  The nodal slopes
    solve the circulant system ``m[j-1] + 4 m[j] + m[j+1] = 3 (y[j+1] - y[j-1]) / h``,
    which the real FFT diagonalizes with eigenvalues ``4 + 2 cos(2 pi k / N)``.
    """
    y = np.asarray(values, dtype=float)
    n = y.shape[0]
    rhs = (_cyclic_shift(y, -1) - _cyclic_shift(y, 1)) * (3.0 * n / TWO_PI)
    eig = 4.0 + 2.0 * np.cos(np.arange(n // 2 + 1) * (TWO_PI / n))
    eig = eig.reshape((-1,) + (1,) * (y.ndim - 1))
    return PeriodicCubic(y, np.fft.irfft(np.fft.rfft(rhs, axis=0) / eig, n=n, axis=0))

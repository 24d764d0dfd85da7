"""Densities of one-forms on the circle and their combinatorial invariants.

A decoration is represented by its density w.r.t. dt, either as a truncated
trigonometric series or as uniform samples interpolated by a periodic cubic
spline.  All angles are radians and the circle has period 2*pi.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import quadrature
from .errors import (
    AlternationViolation,
    MorseViolation,
    NoSymmetry,
    OddZeroCount,
    OutOfRange,
    ProfileMismatch,
    VortexLoopError,
)
from .quadrature import TWO_PI, _cyclic_shift, uniform_grid

FloatArray = NDArray[np.float64]

_BRACKET_WIDTH = 1e-13
_ZERO_RESIDUAL_REL = 1e-12
DEFAULT_MORSE_TOL = 1e-8
DEFAULT_PROFILE_REL_TOL = 1e-9
# grid resolution of trig forms, and the FFT size of ``CircleForm.from_function``
_TRIG_NODE_COUNT = 1024
# panels of the antiderivative table that brackets each target in ``_invert_batch``
_INVERT_PANELS = 256
# point count from which ``_power_sum`` runs Horner's rule instead of a power matrix
_HORNER_MIN_POINTS = 256


def _newton_bracketed(f, df, target, lo, hi, sign=1.0, start=None, floor=0.0,
                      bound=None) -> FloatArray:
    """Solve ``sign * f(t) == target`` entrywise inside brackets ``[lo, hi]``.

    ``sign * f - target`` must change from nonpositive to nonnegative across
    each bracket, ``df`` is the derivative of ``f``, and ``target`` and
    ``sign`` are scalars or one value per entry.  Each entry starts at
    ``start``, clipped into its bracket, or at its bracket midpoint when no
    ``start`` is given.  A Newton step is taken only when it lands in the
    closed bracket and is at most half the previous step; otherwise the
    bracket is bisected.  The halving rule keeps Newton from cycling between
    two points at the rounding floor.  An entry stops at the point it just
    evaluated once its residual is at most ``floor`` in magnitude (so an
    exact zero stops at once), and otherwise once its bracket or its last
    step is at most ``_BRACKET_WIDTH``; a zero-width bracket returns its end
    at once.  A ``floor`` at the rounding level of ``f`` (``_rounding_floor``)
    ends an entry whose root lies where ``df`` is small, where rounding noise
    in the residual would otherwise stop Newton steps from halving and leave
    the entry to bisect its whole bracket.  A ``bound`` K >= sup|sign * f''|
    over the brackets also ends an entry, without evaluating ``f`` again, at
    a Newton step ``delta`` to ``t`` that it takes once
    ``K * delta**2 + |df * ulp(t)| <= floor``: the step zeroes the linear
    part of the residual, so by Taylor's theorem the residual at its exact
    end is at most ``K * delta**2 / 2``, rounding that end to the double
    ``t`` adds at most ``|df| * ulp(t) / 2``, and the two take at most half
    the floor, which leaves the other half for the rounding of ``f``.  The
    iteration cap is twice what bisection alone needs on the widest bracket;
    an entry still active there, such as one where ``f`` is NaN, raises
    VortexLoopError.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    target = np.broadcast_to(np.asarray(target, dtype=float), lo.shape)
    sign = np.broadcast_to(np.asarray(sign, dtype=float), lo.shape)
    t = 0.5 * (lo + hi) if start is None else np.clip(start, lo, hi)
    step = hi - lo
    active = np.nonzero(step > _BRACKET_WIDTH)[0]
    widest = float(np.max(step, initial=_BRACKET_WIDTH))
    cap = 2 * (int(np.ceil(np.log2(widest / _BRACKET_WIDTH))) + 1)
    # one error state for the solve: ``df`` may be 0 or NaN at a point
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(cap):
            if active.size == 0:
                return t
            ta = t[active]
            sg = sign[active]
            resid = sg * f(ta) - target[active]
            # written so that a NaN residual keeps its entry active
            moving = ~(np.abs(resid) <= floor)
            if not moving.all():
                active, ta, sg, resid = active[moving], ta[moving], sg[moving], resid[moving]
            lo_a = np.where(resid < 0.0, ta, lo[active])
            hi_a = np.where(resid >= 0.0, ta, hi[active])
            slope = sg * df(ta)
            newton = ta - resid / slope
            take = ((newton >= lo_a) & (newton <= hi_a)
                    & (np.abs(newton - ta) <= 0.5 * step[active]))
            t_next = np.where(take, newton, 0.5 * (lo_a + hi_a))
            step_a = np.abs(t_next - ta)
            lo[active], hi[active], t[active], step[active] = lo_a, hi_a, t_next, step_a
            done = np.isfinite(resid) & ((hi_a - lo_a <= _BRACKET_WIDTH)
                                         | (step_a <= _BRACKET_WIDTH))
            if bound is not None:
                done |= take & (bound * step_a * step_a + np.abs(slope * np.spacing(t_next))
                                <= floor)
            if done.any():
                active = active[~done]
    if active.size:
        j = int(active[0])
        raise VortexLoopError(
            f"bracketed Newton did not converge in {cap} iterations: "
            f"{active.size} entries still active, first in [{lo[j]:.17g}, {hi[j]:.17g}]")
    return t


def _rounding_floor(values) -> float:
    """Residual floor of a solve whose function takes ``values``: 4 eps (max|values| + 1)."""
    return 4.0 * np.finfo(float).eps * (float(np.max(np.abs(values))) + 1.0)


def _inverse_hermite(y, y0, y1, t0, t1, d0, d1) -> FloatArray:
    """Start points for solving ``F(t) == y`` on cells ``[t0, t1]``.

    ``F`` rises from ``y0`` to ``y1`` across each cell, with slopes ``d0`` and
    ``d1`` at its ends.  The start is the cubic Hermite interpolant of the
    inverse, which has values ``t0``, ``t1`` and slopes ``1/d0``, ``1/d1``
    there; it is accurate to O(h^4) in the cell width h.  Where it is not
    finite or leaves its cell, as in a cell that ends at a zero of the slope,
    ``t`` is taken as a quadratic in the square root of the distance in ``y``
    from the end of smaller slope, through both ends and with the inverse's
    slope at the other: exact where ``F`` is a parabola about a zero at that
    end.  Where that leaves the cell too, the start is the linear interpolant.
    The fallbacks are formed only at the cells whose cubic start leaves them.
    """
    dy, dt = y1 - y0, t1 - t0
    u = np.clip(np.divide(y - y0, dy, out=np.full_like(dy, 0.5), where=dy > 0.0), 0.0, 1.0)
    linear = t0 + u * dt
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a, b = dy / d0 - dt, dy / d1 - dt
        start = linear + u * (1.0 - u) * (a * (1.0 - u) - b * u)
        # a NaN start fails both comparisons, so it takes a fallback too
        leaves = ~((start >= t0) & (start <= t1))
        if not leaves.any():
            return start
        # the fallbacks, only where the cubic start leaves its cell
        u, dy, dt, t0, t1, d0, d1, linear = (
            v[leaves] for v in (u, dy, dt, t0, t1, d0, d1, linear))
        flat0 = d0 < d1
        root = np.sqrt(np.where(flat0, u, 1.0 - u))
        p = 2.0 * dy / (np.where(flat0, d1, d0) * dt)
        reach = dt * (root + (p - 1.0) * (root * root - root))
        sqrt_form = np.where(flat0, t0 + reach, t1 - reach)
    start[leaves] = np.where((sqrt_form >= t0) & (sqrt_form <= t1), sqrt_form, linear)
    return start


def _scalar_out(t, out):
    """``out`` as a float when the argument ``t`` was a scalar, else unchanged."""
    return float(out) if np.ndim(t) == 0 else out


def _power_sum(coeffs, t, tails=None) -> FloatArray:
    """``Re sum_j coeffs[j-1] z**j`` with ``z = e^{it}``, for ``t`` of any shape.

    With ``tails``, the tail sums ``d_k = sum_{j>k} coeffs[j-1]`` for
    ``k = 0 .. m-1``, each ``z**j`` is taken as ``z**j - 1``: the sum is
    exactly zero at ``t = 0`` and has no cancellation against its value
    there.  No coefficients give a zero sum.

    The unit phase ``z`` is one cosine and one sine per point, written into
    its parts.  From ``_HORNER_MIN_POINTS`` points on, the sum is Horner's
    rule in ``z``: one in-place multiply and add per degree on arrays of the
    shape of ``t``, with no power matrix.  Its
    rounding error is a small multiple of eps sum_j j |coeffs_j|.  With
    ``tails`` it runs on ``(z - 1) sum_k d_k z**k``, which equals
    ``sum_j c_j (z**j - 1)`` because ``z**j - 1 = (z - 1)(1 + z + ... +
    z**(j-1))``, and takes ``z - 1`` as ``-2 sin^2(t/2) + i sin t``: its
    error then shrinks with ``|z - 1|`` near every whole turn.  Below that
    count a numpy call per degree costs more than the arithmetic, so the
    powers of ``z`` are one cumulative product along a degree axis,
    ``z**j - 1`` is taken term by term, and one matrix-vector product sums
    them.
    """
    # the unit phase e^{it} as its parts: numpy's complex exponential gives
    # exactly these bits, but for the sign of a zero part at t = -0.0
    z = np.empty(t.shape, dtype=complex)
    np.cos(t, out=z.real)
    np.sin(t, out=z.imag)
    if coeffs.size == 0 or t.size < _HORNER_MIN_POINTS:
        powers = np.cumprod(np.repeat(z[..., None], coeffs.size, axis=-1), axis=-1)
        return ((powers if tails is None else powers - 1.0) @ coeffs).real
    terms = coeffs if tails is None else tails
    acc = np.full(t.shape, terms[-1])
    for c in terms[-2::-1]:
        acc *= z
        acc += c
    if tails is None:
        acc *= z
        return acc.real
    # Re((z - 1) acc), with Re(z - 1) = cos t - 1 = -2 sin^2(t/2) free of cancellation
    sin_half = np.sin(0.5 * t)
    return -2.0 * sin_half * sin_half * acc.real - z.imag * acc.imag


class CircleForm:
    """Density of a one-form on the circle.

    Two representations are supported: a trigonometric series
    ``a0 + sum_j (a_j cos(j t) + b_j sin(j t))`` and uniform samples joined by
    a periodic cubic spline.  ``node_count`` is the resolution of derived
    sample grids: 1024 for a trig series and the sample count for sampled
    forms.  It is not called directly: build one with ``trig``,
    ``from_samples`` or ``from_function``.
    """

    # -- constructors -----------------------------------------------------

    @classmethod
    def trig(cls, a0: float = 0.0, cos=(), sin=()) -> "CircleForm":
        """The series ``a0 + sum_j (cos[j-1] cos(j t) + sin[j-1] sin(j t))``;
        the shorter coefficient list is padded with zeros."""
        a = np.atleast_1d(np.asarray(cos, dtype=float))
        b = np.atleast_1d(np.asarray(sin, dtype=float))
        a0 = float(a0)
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and np.isfinite(a0)):
            raise ValueError("trig coefficients must be finite")
        form = cls.__new__(cls)
        form._kind, form._node_count, form._a0 = "trig", _TRIG_NODE_COUNT, a0
        # c_j = a_j - i b_j gives a_j cos(jt) + b_j sin(jt) = Re c_j e^{ijt}; the
        # parts are set apart so that ``trig_coefficients`` returns a_j, b_j exactly
        m = max(a.size, b.size)
        form._coeffs = np.concatenate((a, np.zeros(m - a.size))).astype(complex)
        form._coeffs.imag = -np.concatenate((b, np.zeros(m - b.size)))
        ij = 1j * np.arange(1, m + 1)
        with np.errstate(over="ignore", invalid="ignore"):  # rejected right below
            form._dcoeffs, form._icoeffs = ij * form._coeffs, form._coeffs / ij
            # tail sums d_k = sum_{j>k} icoeffs_j of the antiderivative's Horner form
            form._itails = np.cumsum(form._icoeffs[::-1])[::-1]
        if not (np.isfinite(form._dcoeffs).all() and np.isfinite(form._itails).all()):
            raise MorseViolation("density overflows: its derivative or antiderivative "
                                 "coefficients are not finite")
        return form

    @classmethod
    def from_samples(cls, values) -> "CircleForm":
        """Uniform samples at ``uniform_grid(N)``, N >= 8, joined by a periodic cubic spline."""
        vals = np.array(values, dtype=float)
        if vals.ndim != 1 or vals.size < 8:
            raise ValueError("sampled form needs a 1-d array of at least 8 values")
        if not np.all(np.isfinite(vals)):
            raise ValueError("sample values must be finite")
        form = cls.__new__(cls)
        form._kind, form._node_count, form._values = "samples", vals.size, vals
        # quietly: samples near the double range overflow the spline, and a
        # non-finite coefficient makes every grid value in its cell non-finite
        # (at the knot, 0 inf is NaN), which ``find_zeros`` refuses
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            form._spline = quadrature.periodic_spline(vals)
        return form

    @classmethod
    def from_function(cls, fn, degree: int | None = None) -> "CircleForm":
        """Project a smooth periodic callable onto a trigonometric series."""
        vals = np.asarray(fn(uniform_grid(_TRIG_NODE_COUNT)), dtype=float)
        spec = np.fft.rfft(vals) / _TRIG_NODE_COUNT
        a0 = spec[0].real
        a = 2.0 * spec[1:].real
        b = -2.0 * spec[1:].imag
        if degree is None:
            mags = np.hypot(a, b)
            scale = max(abs(a0), mags.max(initial=0.0))
            keep = np.nonzero(mags > 1e-13 * scale)[0]
            degree = int(keep[-1]) + 1 if keep.size else 1
        degree = min(degree, a.size)
        return cls.trig(a0, a[:degree], b[:degree])

    # -- basic queries -----------------------------------------------------

    @property
    def kind(self) -> str:
        return self._kind

    @property
    def node_count(self) -> int:
        return self._node_count

    @property
    def degree(self) -> int:
        if self._kind != "trig":
            raise ValueError("degree is defined for trig-series forms only")
        return self._coeffs.size

    @property
    def trig_coefficients(self) -> tuple[float, FloatArray, FloatArray]:
        if self._kind != "trig":
            raise ValueError("not a trig-series form")
        return self._a0, self._coeffs.real.copy(), -self._coeffs.imag

    @property
    def sample_values(self) -> FloatArray:
        if self._kind != "samples":
            raise ValueError("not a sampled form")
        return self._values.copy()

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        out = (self._a0 + _power_sum(self._coeffs, arr) if self._kind == "trig"
               else self._spline(arr))
        return _scalar_out(t, out)

    def derivative(self, t):
        arr = np.asarray(t, dtype=float)
        out = _power_sum(self._dcoeffs, arr) if self._kind == "trig" else self._spline(arr, 1)
        return _scalar_out(t, out)

    def antiderivative(self, t):
        """Cumulative integral of the density from 0 to ``t``, exactly.

        Closed form for trig series, piecewise-polynomial antiderivative for
        sampled forms.  Valid for any real ``t``, winding included, so
        differences of this function give exact integrals over arbitrary
        intervals.
        """
        arr = np.asarray(t, dtype=float)
        out = (self._a0 * arr + _power_sum(self._icoeffs, arr, self._itails)
               if self._kind == "trig" else self._spline.antiderivative(arr))
        return _scalar_out(t, out)

    def integrate(self, a, b):
        """Exact signed integral of the density from ``a`` to ``b``."""
        return self.antiderivative(b) - self.antiderivative(a)

    def _on_uniform_grid(self, n: int, order: int = 0) -> FloatArray:
        """The density (``order=0``) or its derivative (``order=1``) at ``uniform_grid(n)``.

        On that grid ``e^{ijt}`` equals ``e^{i(j mod n)t}``, so a trig series
        writes its coefficients into n bins, folded by ``j mod n`` only when
        they outnumber the bins, and takes one inverse real FFT of their
        Hermitian half spectrum, exactly for any n and degree.  A sampled form
        evaluates its spline there (``PeriodicCubic._on_uniform_grid``), cell
        by cell where n allows.  Off-grid points go through ``_power_sum``.
        """
        if self._kind != "trig":
            return self._spline._on_uniform_grid(n, order)
        coeffs = self._coeffs if order == 0 else self._dcoeffs
        size = coeffs.size + 1
        bins = np.zeros(size + -size % n, dtype=complex)
        if order == 0:
            bins[0] = self._a0
        bins[1:size] = coeffs
        if size > n:
            bins = bins.reshape(-1, n).sum(axis=0)
        half = n // 2 + 1
        # Re sum_m bins[m] e^{imt} has the Hermitian spectrum (bins[m] + conj(bins[-m])) / 2
        mirror = np.concatenate((bins[:1], bins[:-half:-1]))
        spectrum = 0.5 * (bins[:half] + np.conj(mirror))
        return np.fft.irfft(spectrum, n, norm="forward")

    @functools.cached_property
    def _sampling_grid(self) -> tuple[FloatArray, FloatArray]:
        """The density's one uniform grid, of max(4096, 8 * degree) points for a
        trig series and max(4096, 4 * node_count) for samples, and its values."""
        n = max(4096, 8 * self.degree if self._kind == "trig" else 4 * self._node_count)
        return uniform_grid(n), self._on_uniform_grid(n)

    @functools.cached_property
    def _slope_max(self) -> float:
        """max |density'| over the sampling grid."""
        n = self._sampling_grid[0].size
        return float(np.max(np.abs(self._on_uniform_grid(n, 1))))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self._sampling_grid[1])))

    def max_abs_derivative(self) -> float:
        return self._slope_max

    def _derivative_bound(self) -> float:
        """A proven upper bound on |density'| over the circle: sum_j j |c_j| for
        a trig series, and for samples the largest over the spline's cells of
        |m| + h (2 |c| + 3 h |d|), its slope ``m + 2 c x + 3 d x**2`` bounded
        term by term on ``0 <= x <= h``."""
        if self._kind == "trig":
            return float(np.sum(np.abs(self._dcoeffs)))
        _, m, c, d = np.abs(self._spline._coeffs)
        h = TWO_PI / self._node_count
        return float(np.max(m + h * (2.0 * c + 3.0 * h * d)))

    def __repr__(self) -> str:
        if self._kind == "trig":
            return f"CircleForm.trig(degree={self.degree})"
        return f"CircleForm.samples(n={self._values.size})"


@dataclass(frozen=True)
class ZeroSet:
    """Ordered zeros of a density in [0, 2*pi) with derivatives there."""

    zeros: FloatArray
    derivatives: FloatArray

    @property
    def k(self) -> int:
        return self.zeros.size


@dataclass(frozen=True)
class VorticityProfile:
    """Partial vorticities between consecutive zeros, and their sum."""

    omegas: FloatArray
    total: float

    @property
    def k(self) -> int:
        return self.omegas.size


def find_zeros(form: CircleForm, *, morse_tol: float = DEFAULT_MORSE_TOL) -> ZeroSet:
    """Locate all zeros of the density in [0, 2*pi).

    Sign changes are detected on the form's one uniform sampling grid, of
    max(4096, 8 * degree) points for a trig series and
    max(4096, 4 * node_count) for a sampled form; the same grid gives the
    value scale and, only when a zero's slope is below ``morse_tol`` of twice
    the proven bound ``_derivative_bound``, the derivative scale.  Each scan
    cell with a sign change is solved by the safeguarded Newton kernel
    (``_newton_bracketed``) to a bracket or step of 1e-13, and a zero that
    lands exactly on the grid is taken as it is.  A sign change is read from
    the sign bits of two nonzero neighbours, never from their product, which
    underflows to zero when both are tiny, as on a density of scale 1e-155.
    Raises MorseViolation when a grid value is not finite (the density
    overflows), when a zero's derivative is
    below ``morse_tol`` relative to the derivative scale or when zeros cannot be
    separated at the scan resolution, and OddZeroCount when an odd number of
    crossings is found.  That check guards the solver: a closed scan of
    finite values changes sign an even number of times, and each sign
    change gives one zero, so no density reaches it unless the solver
    loses a zero.  Two zeros closer together than one grid cell can leave
    no sign change and are then missed.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # rejected right below
        scale = form.max_abs()
    if not scale < np.inf:  # an infinite or NaN grid value
        raise MorseViolation("density overflows: its values on the sampling grid are not finite")
    if scale == 0.0:
        raise MorseViolation("density is identically zero")

    grid, vals = form._sampling_grid
    scan_points = grid.size
    h = TWO_PI / scan_points

    negative = np.signbit(vals)
    flips = negative != _cyclic_shift(negative, -1)
    on_grid = np.nonzero(vals == 0.0)[0]
    for j in on_grid:
        left = vals[(j - 1) % scan_points]
        right = vals[(j + 1) % scan_points]
        if left == 0.0 or right == 0.0 or np.signbit(left) == np.signbit(right):
            raise MorseViolation(
                f"degenerate zero near t={grid[j]:.9f}: no transversal crossing")
        # the cells on either side change sign through this zero, taken on the grid
        flips[j] = flips[j - 1] = False
    starts = np.concatenate([np.nonzero(flips)[0], on_grid])
    if starts.size == 0:
        return ZeroSet(np.empty(0), np.empty(0))
    # a zero on the grid gets a zero-width bracket; a crossing rises when the
    # density is negative at the left end of its cell
    lo = grid[starts]
    hi = lo + np.where(vals[starts] == 0.0, 0.0, h)
    roots = _newton_bracketed(form, form.derivative, 0.0, lo, hi, -np.sign(vals[starts]))

    roots = np.sort(np.mod(roots, TWO_PI))

    gaps = np.diff(np.append(roots, roots[0] + TWO_PI))
    if roots.size > 1 and np.min(gaps) < 2.0 * h:
        j = int(np.argmin(gaps))
        raise MorseViolation(
            f"zeros near t={roots[j]:.9f} cannot be separated at the scan resolution")

    residual = np.abs(form(roots))
    if np.any(residual > _ZERO_RESIDUAL_REL * scale):
        j = int(np.argmax(residual))
        raise MorseViolation(f"zero refinement stalled near t={roots[j]:.9f}")

    derivs = form.derivative(roots)
    # the grid's max|f'| lies below twice the proven bound ``_derivative_bound``,
    # rounding included, so zeros that all clear morse_tol of twice the bound
    # clear it of the grid's too: only otherwise is the grid of slopes built
    if not np.all(np.abs(derivs) >= morse_tol * 2.0 * form._derivative_bound()):
        dscale = form.max_abs_derivative()
        small = np.abs(derivs) < morse_tol * dscale
        if np.any(small):
            j = int(np.nonzero(small)[0][0])
            raise MorseViolation(
                f"near-degenerate zero at t={roots[j]:.9f}: |derivative| = "
                f"{abs(derivs[j]):.3e} is below {morse_tol:.1e} of scale {dscale:.3e}")

    if roots.size % 2 != 0:
        raise OddZeroCount(f"found {roots.size} zeros; transversal crossings come in pairs")
    signs = np.sign(derivs)
    if roots.size and np.any(signs * _cyclic_shift(signs, -1) >= 0.0):
        raise MorseViolation("derivative signs at consecutive zeros do not alternate")

    return ZeroSet(roots, derivs)


def partial_vorticities(form: CircleForm, zeros: ZeroSet) -> VorticityProfile:
    """Integrate the density over each inter-zero segment between its ``zeros``.

    Raises MorseViolation when a segment integral or their sum is not finite
    (the antiderivative overflows), and AlternationViolation when the signed
    segment integrals fail to alternate strictly or vanish, or when their sum
    is off the exact period integral (2 pi a0, or the trapezoid sum of the
    samples, which a periodic cubic spline integrates to exactly) by over
    1e-10 of max(max|omega|, 1).  That catches a broken antiderivative, not a
    missed zero: the sum telescopes over any zero set.
    """
    k = zeros.k
    if k < 2:
        raise MorseViolation("partial vorticities need at least two zeros")
    zs = zeros.zeros
    ext = np.append(zs, zs[0] + TWO_PI)
    with np.errstate(over="ignore", invalid="ignore"):  # rejected right below
        omegas = np.diff(form.antiderivative(ext))
        total = float(np.sum(omegas))
    if not (np.isfinite(omegas).all() and np.isfinite(total)):
        raise MorseViolation("density overflows: its partial vorticities are not finite")

    if np.any(omegas == 0.0):
        raise AlternationViolation("a partial vorticity vanishes")
    signs = np.sign(omegas)
    if np.any(signs * _cyclic_shift(signs, -1) >= 0.0):
        raise AlternationViolation("partial vorticities do not alternate in sign")

    full = (TWO_PI * form._a0 if form.kind == "trig"
            else quadrature.periodic_trapezoid(form._values))
    if abs(total - full) > 1e-10 * max(float(np.max(np.abs(omegas))), 1.0):
        raise AlternationViolation(
            f"segment integrals sum to {total:.15g} but the period integral is {full:.15g}; "
            "the antiderivative is inconsistent")
    return VorticityProfile(omegas, total)


def _matching_shifts(p: FloatArray, q: FloatArray, shifts, rel_tol: float):
    """Yield, in order, each cyclic shift j in the integer array ``shifts`` with
    ``|p_i - q_(i+j)|`` at most ``rel_tol`` max|p| for all i, for two profiles of one length.
    A shift whose first pair ``|p_0 - q_j|`` misses is dropped before the O(k)
    comparison of all pairs; that pair is one of them, so no verdict changes."""
    if shifts.size:
        tol = rel_tol * float(np.max(np.abs(p)))
        for j in shifts[np.abs(p[0] - q[shifts]) <= tol]:
            if np.max(np.abs(p - _cyclic_shift(q, -j))) <= tol:
                yield int(j)


def circular_match(p, q, rel_tol: float = DEFAULT_PROFILE_REL_TOL) -> list[int]:
    """All cyclic shifts j with ``p_i == q_(i+j)`` within ``rel_tol`` of max|p|."""
    p = np.asarray(p.omegas if isinstance(p, VorticityProfile) else p, dtype=float)
    q = np.asarray(q.omegas if isinstance(q, VorticityProfile) else q, dtype=float)
    return list(_matching_shifts(p, q, np.arange(p.size), rel_tol)) if p.size == q.size else []


def symmetry_step(profile: VorticityProfile, rel_tol: float = DEFAULT_PROFILE_REL_TOL) -> int:
    """Smallest even divisor ``l`` of ``k`` with ``omega_i = omega_(i+l)`` for all i.

    Falls back to ``k`` itself (the trivial symmetry) when no proper shift
    matches within ``rel_tol``  relative to the largest partial vorticity.
    Only the even proper divisors of ``k`` are compared, smallest first.
    """
    k, p = profile.k, np.asarray(profile.omegas, dtype=float)
    ells = np.arange(2, k, 2)
    return next(_matching_shifts(p, p, ells[k % ells == 0], rel_tol), k)


def cumulative(form: CircleForm, t_start: float, t: float) -> float:
    """Integral of the density from ``t_start`` to ``t`` (at most one period)."""
    span = t - t_start
    if span < -1e-12 or span > TWO_PI + 1e-12:
        raise ValueError("t must lie in [t_start, t_start + 2*pi]")
    span = min(max(span, 0.0), TWO_PI)
    return float(form.integrate(t_start, t_start + span))


def invert_cumulative(form: CircleForm, segment: tuple[float, float], s: float) -> float:
    """Solve ``cumulative(form, a, t) == s`` for ``t`` inside ``segment``.

    The segment must be an interval on which the density keeps one sign so
    the cumulative is strictly monotone.  Raises OutOfRange when ``s`` is not
    reachable within the segment (beyond a 1e-9 relative slack).  The solve
    is the one-target case of ``_invert_batch``.
    """
    a, b = float(segment[0]), float(segment[1])
    if not a < b <= a + TWO_PI + 1e-12:
        raise ValueError("segment must be increasing and at most one period long")
    base = float(form.antiderivative(a))
    omega_seg = float(form.antiderivative(b)) - base
    if omega_seg == 0.0:
        raise OutOfRange("segment carries zero vorticity; cumulative is not invertible")
    w = abs(omega_seg)
    target = s if omega_seg > 0.0 else -s
    slack = 1e-9 * w
    if target < -slack or target > w + slack:
        raise OutOfRange(f"s={s:.15g} is outside the reachable range [0, {omega_seg:.15g}]")
    offset = _invert_batch(form, np.array([a]), np.array([b - a]), np.array([omega_seg]),
                           np.array([s]), 0)
    return a + float(offset[0])


class CircleDiffeo:
    """Orientation-preserving circle diffeomorphism stored as monotone samples.

    Samples live on the uniform grid ``s_j = 2*pi*j/M`` and are unwrapped so
    the stored sequence is strictly increasing; the map extends to the line by
    ``gamma(t + 2*pi) = gamma(t) + 2*pi``.  It is ``t`` plus the periodic cubic
    Hermite interpolant of the displacement ``gamma - t`` at the nodes.  The
    cumulative-transport maps supply their exact nodal slopes; bare samples
    take the cyclic harmonic mean of the two neighbouring secants (PCHIP's
    slope inside the grid), so the map is monotone and C^1 across ``t = 0``.
    """

    def __init__(self, samples, derivatives=None):
        vals = np.asarray(samples, dtype=float)
        if vals.ndim != 1 or vals.size < 8:
            raise ValueError("a diffeomorphism needs at least 8 samples")
        if not np.all(np.isfinite(vals)):
            raise ValueError("diffeomorphism samples must be finite")
        if np.any(np.diff(vals) <= 0.0):
            raise ValueError("diffeomorphism samples must be strictly increasing")
        span = vals[-1] - vals[0]
        if span >= TWO_PI:
            raise ValueError("samples span a full period or more; the map would not be injective")
        # normalize the winding so the first sample lies in [0, 2*pi)
        shift = np.floor(vals[0] / TWO_PI) * TWO_PI
        vals = vals - shift
        self._samples = vals
        if derivatives is None:
            secant = np.diff(vals, append=vals[0] + TWO_PI) * (vals.size / TWO_PI)
            before = _cyclic_shift(secant, 1)
            d = 2.0 * before * secant / (before + secant)
        else:
            d = np.array(derivatives, dtype=float)
            if d.shape != vals.shape:
                raise ValueError("derivative data must match the samples in shape")
            if not np.all(np.isfinite(d)) or np.any(d <= 0.0):
                raise ValueError("derivative data must be finite and positive")
        self._derivs = d
        self._displacement = quadrature.PeriodicCubic(vals - uniform_grid(vals.size), d - 1.0)

    @property
    def size(self) -> int:
        return self._samples.size

    @property
    def samples(self) -> FloatArray:
        return self._samples.copy()

    @property
    def grid(self) -> FloatArray:
        return uniform_grid(self.size)

    @property
    def sample_derivatives(self) -> FloatArray:
        return self._derivs.copy()

    @classmethod
    def identity(cls) -> "CircleDiffeo":
        return cls.rotation(0.0)

    @classmethod
    def rotation(cls, offset: float, size: int = 512) -> "CircleDiffeo":
        return cls(uniform_grid(size) + offset, np.ones(size))

    @classmethod
    def from_function(cls, fn, size: int = 512) -> "CircleDiffeo":
        return cls(np.asarray(fn(uniform_grid(size)), dtype=float))

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        return _scalar_out(t, arr + self._displacement(arr))

    def derivative(self, t):
        return _scalar_out(t, 1.0 + self._displacement(np.asarray(t, dtype=float), 1))

    def inverse(self) -> "CircleDiffeo":
        """Inverse map, resampled onto the uniform grid.

        Each grid value is bracketed between two consecutive samples of the
        monotone forward map and solved on the forward map by the safeguarded
        Newton kernel (``_newton_bracketed``), so the pair is mutually inverse
        to rounding.  The forward samples and nodal slopes are the inverse's
        Hermite data, so each solve starts at the inverse cubic Hermite of its
        cell and stops once its residual is at the rounding floor of the
        samples; on a 4096-node grid most solves end at their first
        evaluation.  A solve that does not converge raises VortexLoopError.
        """
        m = self._samples.size
        x = np.append(self._samples, self._samples[0] + TWO_PI)
        d = np.append(self._derivs, self._derivs[0])
        targets = uniform_grid(m)
        nodes = np.append(targets, TWO_PI)
        winding = np.floor((targets - x[0]) / TWO_PI) * TWO_PI
        y = targets - winding
        idx = np.clip(np.searchsorted(x, y, side="right") - 1, 0, m - 1)
        start = _inverse_hermite(y, x[idx], x[idx + 1], nodes[idx], nodes[idx + 1],
                                 d[idx], d[idx + 1])
        t = _newton_bracketed(self, self.derivative, targets, nodes[idx] + winding,
                              nodes[idx + 1] + winding, start=start + winding,
                              floor=_rounding_floor(x))
        return CircleDiffeo(t, 1.0 / np.maximum(self.derivative(t), 1e-300))

    def compose(self, other: "CircleDiffeo") -> "CircleDiffeo":
        """The map ``t -> self(other(t))``."""
        grid = uniform_grid(max(self.size, other.size))
        inner = other(grid)
        return CircleDiffeo(self(inner), self.derivative(inner) * other.derivative(grid))

    def __repr__(self) -> str:
        return f"CircleDiffeo(size={self.size})"


def _invert_batch(form: CircleForm, starts: FloatArray, lengths: FloatArray,
                  omegas: FloatArray, s_batch: FloatArray, seg) -> FloatArray:
    """Solve the cumulative equation of segment ``seg`` for a batch of targets.

    Segment ``j`` starts at ``starts[j]``, is ``lengths[j]`` long and carries
    the nonzero vorticity ``omegas[j]``; ``seg`` gives each target its segment
    (an index array, or one index for all).  Returns offsets from the segment
    starts.  One antiderivative call tabulates every segment; each row,
    clipped to ``[0, |omega_j|]`` and lifted by the unsigned vorticity before
    it, joins one sorted table, so one search brackets every target in its
    own segment.  The table holds the antiderivative at both ends of every
    panel and its slope there is the density, so each target starts at the
    inverse cubic Hermite of its panel, or at the square-root form in a
    panel that ends at a zero of the density (``_inverse_hermite``).  One
    call of the safeguarded Newton kernel (``_newton_bracketed``) finishes
    them all.  The antiderivative's second derivative is the density's
    slope, so the kernel gets the proven bound ``_derivative_bound`` and ends
    an entry, without evaluating there, at a Newton step whose Taylor
    remainder and rounding to a double take at most half the rounding floor
    of the table: about one antiderivative evaluation per target.  Its bisection fallback keeps convergence
    independent of the density staying away from zero at the segment ends.
    """
    sgn = np.sign(omegas)
    w = np.abs(omegas)
    lift = np.concatenate(([0.0], np.cumsum(w)[:-1]))
    targets = np.clip(sgn[seg] * np.asarray(s_batch, dtype=float), 0.0, w[seg])

    edges = starts[:, None] + np.linspace(0.0, lengths, _INVERT_PANELS + 1, axis=1)
    anti = form.antiderivative(edges)
    table = np.maximum.accumulate(sgn[:, None] * (anti - anti[:, :1]), axis=1)
    table = np.clip(table, 0.0, w[:, None]) + lift[:, None]

    lifted = lift[seg] + targets
    flat = np.searchsorted(table.ravel(), lifted, side="right") - 1
    rows = seg * (_INVERT_PANELS + 1)
    left = rows + np.clip(flat - rows, 0, _INVERT_PANELS - 1)
    # the table's slope is the density, signed to rise along the segment
    tab, edge, slope = table.ravel(), edges.ravel(), (sgn[:, None] * form(edges)).ravel()
    start = _inverse_hermite(lifted, tab[left], tab[left + 1], edge[left], edge[left + 1],
                             slope[left], slope[left + 1])
    t = _newton_bracketed(form.antiderivative, form, targets + sgn[seg] * anti[seg, 0],
                          edge[left], edge[left + 1], sgn[seg], start=start,
                          floor=_rounding_floor(anti), bound=form._derivative_bound())
    x = np.where(targets >= w[seg], lengths[seg], np.where(targets <= 0.0, 0.0, t - starts[seg]))
    return np.clip(x, 0.0, lengths[seg])


def _transport(src_form: CircleForm, src_zeros: ZeroSet, src_prof: VorticityProfile,
               dst_form: CircleForm, dst_zeros: ZeroSet, dst_prof: VorticityProfile,
               shift: int, rel_tol: float, grid_size: int) -> CircleDiffeo:
    """Segment-matching circle map with exact nodal slopes on ``grid_size`` samples.

    Segment ``i`` of the source is mapped onto segment ``i + shift`` of the
    target by matching cumulative integrals; the per-segment targets are
    rescaled by ``dst/src`` vorticity ratios (a relative-tolerance-level
    correction) so the glued map is continuous and strictly monotone.  Nodal
    slopes come from the defining relation ``dst(g(t)) g'(t) = r src(t)``,
    switching to the square-root limit form where both densities vanish.
    Raises ProfileMismatch unless the profiles have the same length and
    match at ``shift`` within ``rel_tol`` (see ``circular_match``).
    """
    k = src_prof.k
    if dst_prof.k != k:
        raise ProfileMismatch(
            f"source has {k} partial vorticities but the target has {dst_prof.k}")
    shift = shift % k
    src_omegas, dst_omegas = src_prof.omegas, dst_prof.omegas
    if next(_matching_shifts(src_omegas, dst_omegas, np.array([shift]), rel_tol), None) is None:
        raise ProfileMismatch(f"profiles do not match at shift {shift} within {rel_tol:g}")
    dst_zs = dst_zeros.zeros
    src_ext = np.append(src_zeros.zeros, src_zeros.zeros[0] + TWO_PI)
    dst_len = np.mod(_cyclic_shift(dst_zs, -1) - dst_zs, TWO_PI)
    # unwrapped target boundaries aligned with the shifted segments
    bounds = np.cumsum(np.append(dst_zs[shift], _cyclic_shift(dst_len, -shift)))

    # grid points before the first source zero are carried one period on
    s_grid = uniform_grid(grid_size)
    wrapped = s_grid < src_ext[0] - 1e-15
    x = s_grid + TWO_PI * wrapped

    seg = np.clip(np.searchsorted(src_ext, x, side="right") - 1, 0, k - 1)
    src_anti = src_form.antiderivative(x)
    seg_base = src_form.antiderivative(src_ext[:k])
    dst_seg = (seg + shift) % k
    ratio = dst_omegas[dst_seg] / src_omegas[seg]
    s_vals = (src_anti - seg_base[seg]) * ratio
    gamma_x = bounds[seg] + _invert_batch(dst_form, dst_zs, dst_len, dst_omegas, s_vals, dst_seg)

    d_dst = dst_form(gamma_x)
    d_src = src_form(x)
    shared_zero = np.abs(d_dst) <= 1e-6 * dst_form.max_abs()
    slope = ratio * d_src / np.where(shared_zero, 1.0, d_dst)
    if np.any(shared_zero):
        # Near a zero the antiderivative is quadratically flat, so inverting
        # it pins the image only to sqrt(eps).  The source distance to the
        # matched boundary is exact, so place those nodes by the square-root
        # limit slope through the boundary pair instead.
        idx = np.nonzero(shared_zero)[0]
        segs = seg[idx]
        d_lo = x[idx] - src_ext[segs]
        d_hi = x[idx] - src_ext[segs + 1]
        use_hi = np.abs(d_hi) < np.abs(d_lo)
        bnd = np.where(use_hi, segs + 1, segs)
        delta = np.where(use_hi, d_hi, d_lo)
        num = ratio[idx] * src_form.derivative(src_ext[bnd])
        den = dst_form.derivative(bounds[bnd])
        s0 = np.sqrt(np.maximum(num / den, 1e-300))
        gamma_x[idx] = bounds[bnd] + s0 * delta
        slope[idx] = s0

    return CircleDiffeo(gamma_x - TWO_PI * wrapped, slope)


def stabilizer_generator(form: CircleForm, ell: int | None = None, *,
                         grid_size: int | None = None) -> CircleDiffeo:
    """Generator of the cyclic stabilizer of a Morse density.

    Maps each inter-zero segment onto the one ``ell`` steps ahead by matching
    cumulative integrals.  Raises NoSymmetry when ``ell`` is the trivial
    shift ``k`` (by default, when the profile admits no other), ValueError
    when it is not an even divisor of ``k``, and ProfileMismatch when the
    profile does not repeat with step ``ell`` within ``DEFAULT_PROFILE_REL_TOL``.
    """
    zs = find_zeros(form)
    prof = partial_vorticities(form, zs)
    k = prof.k
    if ell is None:
        ell = symmetry_step(prof)
    if ell == k:
        raise NoSymmetry("the vorticity profile admits only the trivial symmetry")
    if ell <= 0 or ell % 2 != 0 or k % ell != 0:
        raise ValueError(f"symmetry step must be a proper even divisor of {k}, got {ell}")
    if grid_size is None:
        grid_size = 4 * max(form.node_count, 256)
    return _transport(form, zs, prof, form, zs, prof, ell, DEFAULT_PROFILE_REL_TOL, grid_size)


def pullback_form(gamma: CircleDiffeo, form: CircleForm, n: int | None = None) -> CircleForm:
    """Sampled density of the pullback ``gamma^* form``: beta(gamma(t)) gamma'(t)."""
    if n is None:
        n = max(form.node_count, gamma.size)
    grid = uniform_grid(n)
    vals = form(gamma(grid)) * gamma.derivative(grid)
    return CircleForm.from_samples(vals)

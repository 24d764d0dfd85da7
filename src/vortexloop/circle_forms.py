"""Densities of one-forms on the circle and their combinatorial invariants.

A decoration is represented by its density w.r.t. dt, either as a truncated
trigonometric series or as uniform samples interpolated by a periodic cubic
spline.  All angles are radians and the circle has period 2*pi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator

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
from .quadrature import TWO_PI

FloatArray = NDArray[np.float64]

_BRACKET_WIDTH = 1e-13
_ZERO_RESIDUAL_REL = 1e-12
DEFAULT_MORSE_TOL = 1e-8
DEFAULT_SYMMETRY_REL_TOL = 1e-9
# grid resolution of trig forms, and the FFT size of ``CircleForm.from_function``
_TRIG_NODE_COUNT = 1024
# panels of the antiderivative table that brackets each target in ``_invert_batch``
_INVERT_PANELS = 256


def _newton_bracketed(f, df, target, lo, hi, sign=1.0) -> FloatArray:
    """Solve ``sign * f(t) == target`` entrywise inside brackets ``[lo, hi]``.

    ``sign * f - target`` must change from nonpositive to nonnegative across
    each bracket, ``df`` is the derivative of ``f``, and ``target`` and
    ``sign`` are scalars or one value per entry.  Each entry starts at its
    bracket midpoint.  A Newton step is taken only when it lands in the
    closed bracket and is at most half the previous step; otherwise the
    bracket is bisected.  The halving rule keeps Newton from cycling between
    two points at the rounding floor.  An entry stops once its bracket or its
    last step is at most ``_BRACKET_WIDTH``; a zero-width bracket returns its
    end at once.  The iteration cap is twice what bisection alone needs on
    the widest bracket; an entry still active there, such as one where ``f``
    is NaN, raises VortexLoopError.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    target = np.broadcast_to(np.asarray(target, dtype=float), lo.shape)
    sign = np.broadcast_to(np.asarray(sign, dtype=float), lo.shape)
    t = 0.5 * (lo + hi)
    step = hi - lo
    active = np.nonzero(step > _BRACKET_WIDTH)[0]
    widest = float(np.max(step, initial=_BRACKET_WIDTH))
    cap = 2 * (int(np.ceil(np.log2(widest / _BRACKET_WIDTH))) + 1)
    for _ in range(cap):
        if active.size == 0:
            return t
        ta = t[active]
        sg = sign[active]
        resid = sg * np.asarray(f(ta), dtype=float) - target[active]
        lo_a = np.where(resid < 0.0, ta, lo[active])
        hi_a = np.where(resid >= 0.0, ta, hi[active])
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = ta - resid / (sg * np.asarray(df(ta), dtype=float))
        take = ((newton >= lo_a) & (newton <= hi_a)
                & (np.abs(newton - ta) <= 0.5 * step[active]))
        t_next = np.where(take, newton, 0.5 * (lo_a + hi_a))
        step_a = np.abs(t_next - ta)
        lo[active], hi[active], t[active], step[active] = lo_a, hi_a, t_next, step_a
        done = np.isfinite(resid) & ((hi_a - lo_a <= _BRACKET_WIDTH) | (step_a <= _BRACKET_WIDTH))
        active = active[~done]
    if active.size:
        j = int(active[0])
        raise VortexLoopError(
            f"bracketed Newton did not converge in {cap} iterations: "
            f"{active.size} entries still active, first in [{lo[j]:.17g}, {hi[j]:.17g}]")
    return t


class CircleForm:
    """Density of a one-form on the circle.

    Two representations are supported: a trigonometric series
    ``a0 + sum_j (a_j cos(j t) + b_j sin(j t))`` and uniform samples joined by
    a periodic cubic spline.  ``node_count`` is the resolution used by grid
    based operations (dense scans, derived sample grids): 1024 for a trig
    series and the sample count for sampled forms.
    """

    def __init__(
        self,
        kind: str,
        *,
        a0: float = 0.0,
        cos_coeffs: FloatArray | None = None,
        sin_coeffs: FloatArray | None = None,
        values: FloatArray | None = None,
    ):
        if kind not in ("trig", "samples"):
            raise ValueError(f"unknown form kind {kind!r}")
        self._kind = kind
        if kind == "trig":
            self._node_count = _TRIG_NODE_COUNT
            self._a0 = float(a0)
            self._cos = np.atleast_1d(np.asarray(cos_coeffs if cos_coeffs is not None else [], dtype=float))
            self._sin = np.atleast_1d(np.asarray(sin_coeffs if sin_coeffs is not None else [], dtype=float))
            m = max(self._cos.size, self._sin.size)
            self._cos = np.pad(self._cos, (0, m - self._cos.size))
            self._sin = np.pad(self._sin, (0, m - self._sin.size))
            if not (np.all(np.isfinite(self._cos)) and np.all(np.isfinite(self._sin)) and np.isfinite(self._a0)):
                raise ValueError("trig coefficients must be finite")
            self._freqs = np.arange(1.0, m + 1.0)
            self._values = None
            self._spline = None
            self._dspline = None
        else:
            vals = np.asarray(values, dtype=float)
            if vals.ndim != 1 or vals.size < 8:
                raise ValueError("sampled form needs a 1-d array of at least 8 values")
            if not np.all(np.isfinite(vals)):
                raise ValueError("sample values must be finite")
            self._values = vals.copy()
            self._node_count = vals.size
            self._spline = quadrature.periodic_spline(vals)
            self._dspline = self._spline.derivative()
            self._a0 = 0.0
            self._cos = None
            self._sin = None
        self._abs_max: float | None = None
        self._abs_max_deriv: float | None = None
        self._aspline = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def trig(cls, a0: float = 0.0, cos=(), sin=()) -> "CircleForm":
        return cls("trig", a0=a0, cos_coeffs=np.asarray(cos, dtype=float),
                   sin_coeffs=np.asarray(sin, dtype=float))

    @classmethod
    def from_samples(cls, values) -> "CircleForm":
        return cls("samples", values=np.asarray(values, dtype=float))

    @classmethod
    def from_function(cls, fn, degree: int | None = None) -> "CircleForm":
        """Project a smooth periodic callable onto a trigonometric series."""
        grid = np.linspace(0.0, TWO_PI, _TRIG_NODE_COUNT, endpoint=False)
        vals = np.asarray(fn(grid), dtype=float)
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
        return self._cos.size

    @property
    def trig_coefficients(self) -> tuple[float, FloatArray, FloatArray]:
        if self._kind != "trig":
            raise ValueError("not a trig-series form")
        return self._a0, self._cos.copy(), self._sin.copy()

    @property
    def sample_values(self) -> FloatArray:
        if self._kind != "samples":
            raise ValueError("not a sampled form")
        return self._values.copy()

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        if self._kind == "trig":
            if self._freqs.size:
                ang = arr[..., None] * self._freqs
                out = self._a0 + np.cos(ang) @ self._cos + np.sin(ang) @ self._sin
            else:
                out = np.full(arr.shape, self._a0)
        else:
            out = self._spline(arr)
        return float(out) if np.isscalar(t) or arr.ndim == 0 else out

    def derivative(self, t):
        arr = np.asarray(t, dtype=float)
        if self._kind == "trig":
            if self._freqs.size:
                ang = arr[..., None] * self._freqs
                out = np.cos(ang) @ (self._freqs * self._sin) - np.sin(ang) @ (self._freqs * self._cos)
            else:
                out = np.zeros(arr.shape)
        else:
            out = self._dspline(arr)
        return float(out) if np.isscalar(t) or arr.ndim == 0 else out

    def antiderivative(self, t):
        """Cumulative integral of the density from 0 to ``t``, exactly.

        Closed form for trig series, piecewise-polynomial antiderivative for
        sampled forms.  Valid for any real ``t``; the winding contribution
        ``total * floor(t / 2 pi)`` is included, so differences of this
        function give exact integrals over arbitrary intervals.
        """
        arr = np.asarray(t, dtype=float)
        if self._kind == "trig":
            out = self._a0 * arr
            if self._freqs.size:
                ang = arr[..., None] * self._freqs
                out = out + np.sin(ang) @ (self._cos / self._freqs)
                out = out + (1.0 - np.cos(ang)) @ (self._sin / self._freqs)
        else:
            if self._aspline is None:
                self._aspline = self._spline.antiderivative()
            total = float(self._aspline(TWO_PI))
            wrapped = np.mod(arr, TWO_PI)
            winding = np.round((arr - wrapped) / TWO_PI)
            out = self._aspline(wrapped) + total * winding
        return float(out) if np.isscalar(t) or arr.ndim == 0 else out

    def integrate(self, a, b):
        """Exact signed integral of the density from ``a`` to ``b``."""
        return self.antiderivative(b) - self.antiderivative(a)

    def _dense_grid(self) -> FloatArray:
        n = max(4096, 4 * self._node_count)
        return np.linspace(0.0, TWO_PI, n, endpoint=False)

    def max_abs(self) -> float:
        if self._abs_max is None:
            self._abs_max = float(np.max(np.abs(self(self._dense_grid()))))
        return self._abs_max

    def max_abs_derivative(self) -> float:
        if self._abs_max_deriv is None:
            self._abs_max_deriv = float(np.max(np.abs(self.derivative(self._dense_grid()))))
        return self._abs_max_deriv

    def __repr__(self) -> str:
        if self._kind == "trig":
            return f"CircleForm.trig(degree={self._cos.size})"
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

    Sign changes are detected on a uniform scan grid of max(1024, 8 * degree)
    points for a trig series and max(1024, 4 * node_count) for a sampled
    form; each scan cell with a sign change is solved by the safeguarded
    Newton kernel (``_newton_bracketed``) to a bracket or step of 1e-13, and
    a zero that lands exactly on the grid is taken as it is.  Raises
    MorseViolation when a zero's derivative is below ``morse_tol`` relative to
    the derivative scale or when zeros cannot be separated at the scan
    resolution, and OddZeroCount when an odd number of crossings is found.
    """
    if form.kind == "trig":
        scan_points = max(1024, 8 * form.degree)
    else:
        scan_points = max(1024, 4 * form.node_count)
    scale = form.max_abs()
    if scale == 0.0:
        raise MorseViolation("density is identically zero")

    h = TWO_PI / scan_points
    grid = np.arange(scan_points) * h
    vals = form(grid)

    on_grid = np.nonzero(vals == 0.0)[0]
    for j in on_grid:
        left = vals[(j - 1) % scan_points]
        right = vals[(j + 1) % scan_points]
        if left == 0.0 or right == 0.0 or left * right > 0.0:
            raise MorseViolation(
                f"degenerate zero near t={grid[j]:.9f}: no transversal crossing")
    starts = np.concatenate([np.nonzero(vals * np.roll(vals, -1) < 0.0)[0], on_grid])
    if starts.size == 0:
        return ZeroSet(np.empty(0), np.empty(0))
    # a zero on the grid gets a zero-width bracket; a crossing rises when the
    # density is negative at the left end of its cell
    lo = grid[starts]
    hi = lo + np.where(vals[starts] == 0.0, 0.0, h)
    roots = _newton_bracketed(form, form.derivative, 0.0, lo, hi, -np.sign(vals[starts]))

    roots = np.mod(roots, TWO_PI)
    order = np.argsort(roots)
    roots = roots[order]

    gaps = np.diff(np.append(roots, roots[0] + TWO_PI))
    if roots.size > 1 and np.min(gaps) < 2.0 * h:
        j = int(np.argmin(gaps))
        raise MorseViolation(
            f"zeros near t={roots[j]:.9f} cannot be separated at the scan resolution")

    residual = np.abs(form(roots))
    if np.any(residual > _ZERO_RESIDUAL_REL * scale):
        j = int(np.argmax(residual))
        raise MorseViolation(f"zero refinement stalled near t={roots[j]:.9f}")

    derivs = np.asarray(form.derivative(roots), dtype=float)
    dscale = form.max_abs_derivative()
    small = np.abs(derivs) < morse_tol * dscale
    if np.any(small):
        j = int(np.nonzero(small)[0][0])
        raise MorseViolation(
            f"near-degenerate zero at t={roots[j]:.9f}: "
            f"|derivative| = {abs(derivs[j]):.3e} is below {morse_tol:.1e} of scale {dscale:.3e}")

    if roots.size % 2 != 0:
        raise OddZeroCount(f"found {roots.size} zeros; transversal crossings come in pairs")
    signs = np.sign(derivs)
    if roots.size and np.any(signs * np.roll(signs, -1) >= 0.0):
        raise MorseViolation("derivative signs at consecutive zeros do not alternate")

    return ZeroSet(roots, derivs)


def partial_vorticities(form: CircleForm, zeros: ZeroSet | None = None) -> VorticityProfile:
    """Integrate the density over each inter-zero segment.

    Raises AlternationViolation when the signed segment integrals fail to
    alternate strictly, vanish, or do not add up to the full-period integral.
    """
    if zeros is None:
        zeros = find_zeros(form)
    k = zeros.k
    if k < 2:
        raise MorseViolation("partial vorticities need at least two zeros")
    zs = zeros.zeros
    ext = np.append(zs, zs[0] + TWO_PI)
    omegas = np.diff(form.antiderivative(ext))

    if np.any(omegas == 0.0):
        raise AlternationViolation("a partial vorticity vanishes")
    signs = np.sign(omegas)
    if np.any(signs * np.roll(signs, -1) >= 0.0):
        raise AlternationViolation("partial vorticities do not alternate in sign")

    total = float(np.sum(omegas))
    full = quadrature.integrate(form, 0.0, TWO_PI)
    # independent quadrature route; panel rules see spline data only at the
    # panel scale, so sampled forms get a correspondingly looser tolerance
    rel = 1e-10 if form.kind == "trig" else 1e-5
    tol = rel * max(float(np.max(np.abs(omegas))), 1.0)
    if abs(total - full) > tol:
        raise AlternationViolation(
            f"segment integrals sum to {total:.15g} but the full period gives {full:.15g}; "
            "a zero was probably missed")
    return VorticityProfile(omegas, total)


def symmetry_step(profile: VorticityProfile, rel_tol: float = DEFAULT_SYMMETRY_REL_TOL) -> int:
    """Smallest even divisor ``l`` of ``k`` with ``omega_i = omega_(i+l)`` for all i.

    Falls back to ``k`` itself (the trivial symmetry) when no proper shift
    matches within ``rel_tol``  relative to the largest partial vorticity.
    """
    om = profile.omegas
    k = om.size
    scale = float(np.max(np.abs(om)))
    for ell in range(2, k + 1, 2):
        if k % ell != 0:
            continue
        if np.max(np.abs(om - np.roll(om, -ell))) <= rel_tol * scale:
            return ell
    return k


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
    offset = _invert_batch(form, a, b - a, omega_seg, np.array([s]))
    return a + float(offset[0])


class CircleDiffeo:
    """Orientation-preserving circle diffeomorphism stored as monotone samples.

    Samples live on the uniform grid ``s_j = 2*pi*j/M`` and are unwrapped so
    the stored sequence is strictly increasing; the map extends to the line by
    ``gamma(t + 2*pi) = gamma(t) + 2*pi``.  Between samples the map
    interpolates monotonically: constructions that know the exact slope (the
    cumulative-transport maps) supply nodal derivatives and get a cubic
    Hermite interpolant; bare samples fall back to a monotone PCHIP fit.
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
        m = vals.size
        grid = np.linspace(0.0, TWO_PI, m + 1)
        self._grid = grid[:-1]
        closed = np.append(vals, vals[0] + TWO_PI)
        if derivatives is None:
            self._derivs = None
            self._interp = PchipInterpolator(grid, closed)
        else:
            d = np.asarray(derivatives, dtype=float)
            if d.shape != vals.shape:
                raise ValueError("derivative data must match the samples in shape")
            if not np.all(np.isfinite(d)) or np.any(d <= 0.0):
                raise ValueError("derivative data must be finite and positive")
            self._derivs = d.copy()
            self._interp = CubicHermiteSpline(grid, closed, np.append(d, d[0]))
        self._dinterp = self._interp.derivative()

    @property
    def size(self) -> int:
        return self._samples.size

    @property
    def samples(self) -> FloatArray:
        return self._samples.copy()

    @property
    def grid(self) -> FloatArray:
        return self._grid.copy()

    @property
    def sample_derivatives(self) -> FloatArray | None:
        return None if self._derivs is None else self._derivs.copy()

    @classmethod
    def identity(cls, size: int = 512) -> "CircleDiffeo":
        return cls(np.linspace(0.0, TWO_PI, size, endpoint=False), np.ones(size))

    @classmethod
    def rotation(cls, offset: float, size: int = 512) -> "CircleDiffeo":
        return cls(np.linspace(0.0, TWO_PI, size, endpoint=False) + offset, np.ones(size))

    @classmethod
    def from_function(cls, fn, size: int = 512) -> "CircleDiffeo":
        grid = np.linspace(0.0, TWO_PI, size, endpoint=False)
        return cls(np.asarray(fn(grid), dtype=float))

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        winding = np.floor(arr / TWO_PI)
        frac = arr - winding * TWO_PI
        out = self._interp(frac) + winding * TWO_PI
        return float(out) if np.isscalar(t) or arr.ndim == 0 else out

    def derivative(self, t):
        arr = np.asarray(t, dtype=float)
        frac = arr - np.floor(arr / TWO_PI) * TWO_PI
        out = self._dinterp(frac)
        return float(out) if np.isscalar(t) or arr.ndim == 0 else out

    def inverse(self) -> "CircleDiffeo":
        """Inverse map, resampled onto the uniform grid.

        Each grid value is bracketed between two consecutive samples of the
        monotone forward map and solved on the forward map by the safeguarded
        Newton kernel (``_newton_bracketed``), so the pair is mutually inverse
        to rounding.  A solve that does not converge raises VortexLoopError.
        """
        m = self._samples.size
        x = np.append(self._samples, self._samples[0] + TWO_PI)
        nodes = np.linspace(0.0, TWO_PI, m + 1)
        targets = np.linspace(0.0, TWO_PI, m, endpoint=False)
        winding = np.floor((targets - x[0]) / TWO_PI) * TWO_PI
        idx = np.clip(np.searchsorted(x, targets - winding, side="right") - 1, 0, m - 1)
        t = _newton_bracketed(self, self.derivative, targets,
                              nodes[idx] + winding, nodes[idx + 1] + winding)
        dinv = None
        if self._derivs is not None:
            dinv = 1.0 / np.maximum(self.derivative(t), 1e-300)
        return CircleDiffeo(t, dinv)

    def compose(self, other: "CircleDiffeo") -> "CircleDiffeo":
        """The map ``t -> self(other(t))``."""
        m = max(self.size, other.size)
        grid = np.linspace(0.0, TWO_PI, m, endpoint=False)
        inner = other(grid)
        if self._derivs is not None and other._derivs is not None:
            return CircleDiffeo(self(inner), self.derivative(inner) * other.derivative(grid))
        return CircleDiffeo(self(inner))

    def __repr__(self) -> str:
        return f"CircleDiffeo(size={self.size})"


def _invert_batch(form: CircleForm, a: float, length: float, omega_seg: float,
                  s_batch: FloatArray) -> FloatArray:
    """Solve the cumulative equation for a batch of targets.

    Returns offsets in ``[0, length]`` from the segment start ``a``.  A
    coarse table of exact antiderivative values gives each target a panel
    bracket, and the safeguarded Newton kernel (``_newton_bracketed``)
    finishes; its bisection fallback keeps convergence independent of the
    density staying away from zero at the segment ends.
    """
    sgn = 1.0 if omega_seg > 0.0 else -1.0
    w = abs(omega_seg)
    targets = np.clip(sgn * np.asarray(s_batch, dtype=float), 0.0, w)

    base0 = form.antiderivative(a)
    edges = a + np.linspace(0.0, length, _INVERT_PANELS + 1)
    table = np.maximum.accumulate(sgn * (form.antiderivative(edges) - base0))

    idx = np.clip(np.searchsorted(table, targets, side="right") - 1, 0, _INVERT_PANELS - 1)
    t = _newton_bracketed(lambda x: form.antiderivative(x) - base0, form, targets,
                          edges[idx], edges[idx + 1], sgn)
    t = np.where(targets <= 0.0, a, t)
    t = np.where(targets >= w, a + length, t)
    return np.clip(t - a, 0.0, length)


def _transport(src_form: CircleForm, src_zeros: FloatArray, src_omegas: FloatArray,
               dst_form: CircleForm, dst_zeros: FloatArray, dst_omegas: FloatArray,
               shift: int, grid_size: int) -> tuple[FloatArray, FloatArray]:
    """Samples and exact slopes of the segment-matching reparametrization.

    Segment ``i`` of the source is mapped onto segment ``i + shift`` of the
    target by matching cumulative integrals; the per-segment targets are
    rescaled by ``dst/src`` vorticity ratios (a relative-tolerance-level
    correction) so the glued map is continuous and strictly monotone.  Nodal
    slopes come from the defining relation ``dst(g(t)) g'(t) = r src(t)``,
    switching to the square-root limit form where both densities vanish.
    """
    k = src_zeros.size
    src_ext = np.append(src_zeros, src_zeros[0] + TWO_PI)
    dst_next = np.roll(dst_zeros, -1)
    dst_len = np.mod(dst_next - dst_zeros, TWO_PI)
    dst_len[dst_len == 0.0] = TWO_PI

    # unwrapped target boundaries aligned with the shifted segments
    bounds = np.empty(k + 1)
    bounds[0] = dst_zeros[shift % k]
    for i in range(k):
        bounds[i + 1] = bounds[i] + dst_len[(i + shift) % k]

    s_grid = np.arange(grid_size) * (TWO_PI / grid_size)
    j0 = int(np.searchsorted(s_grid, src_zeros[0] - 1e-15))
    x = np.concatenate([s_grid[j0:], s_grid[:j0] + TWO_PI])

    seg = np.clip(np.searchsorted(src_ext, x, side="right") - 1, 0, k - 1)
    src_anti = np.asarray(src_form.antiderivative(x), dtype=float)
    seg_base = np.asarray(src_form.antiderivative(src_ext[:k]), dtype=float)
    gamma_x = np.empty_like(x)
    ratio = np.empty_like(x)
    for i in range(k):
        mask = seg == i
        if not np.any(mask):
            continue
        j = (i + shift) % k
        r = dst_omegas[j] / src_omegas[i]
        s_vals = (src_anti[mask] - seg_base[i]) * r
        offsets = _invert_batch(dst_form, float(dst_zeros[j]), float(dst_len[j]),
                                float(dst_omegas[j]), s_vals)
        gamma_x[mask] = bounds[i] + offsets
        ratio[mask] = r

    d_dst = np.asarray(dst_form(gamma_x), dtype=float)
    d_src = np.asarray(src_form(x), dtype=float)
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
        num = ratio[idx] * np.asarray(src_form.derivative(src_ext[bnd]), dtype=float)
        den = np.asarray(dst_form.derivative(bounds[bnd]), dtype=float)
        s0 = np.sqrt(np.maximum(num / den, 1e-300))
        gamma_x[idx] = bounds[bnd] + s0 * delta
        slope[idx] = s0

    out = np.empty(grid_size)
    slope_out = np.empty(grid_size)
    n_tail = grid_size - j0
    out[j0:] = gamma_x[:n_tail]
    out[:j0] = gamma_x[n_tail:] - TWO_PI
    slope_out[j0:] = slope[:n_tail]
    slope_out[:j0] = slope[n_tail:]
    return out, slope_out


def stabilizer_generator(form: CircleForm, ell: int | None = None, *,
                         rel_tol: float = DEFAULT_SYMMETRY_REL_TOL,
                         grid_size: int | None = None) -> CircleDiffeo:
    """Generator of the cyclic stabilizer of a Morse density.

    Maps each inter-zero segment onto the one ``ell`` steps ahead by matching
    cumulative integrals.  Raises NoSymmetry when the profile admits only the
    trivial shift ``ell == k``.
    """
    zs = find_zeros(form)
    prof = partial_vorticities(form, zs)
    k = prof.k
    if ell is None:
        ell = symmetry_step(prof, rel_tol)
    if ell == k:
        raise NoSymmetry("the vorticity profile admits only the trivial symmetry")
    if ell <= 0 or ell % 2 != 0 or k % ell != 0:
        raise ValueError(f"symmetry step must be a proper even divisor of {k}, got {ell}")
    scale = float(np.max(np.abs(prof.omegas)))
    if np.max(np.abs(prof.omegas - np.roll(prof.omegas, -ell))) > rel_tol * scale:
        raise ProfileMismatch(f"profile does not repeat with step {ell} within {rel_tol:g}")
    if grid_size is None:
        grid_size = 4 * max(form.node_count, 256)
    samples, slopes = _transport(form, zs.zeros, prof.omegas, form, zs.zeros, prof.omegas,
                                 ell, grid_size)
    return CircleDiffeo(samples, slopes)


def pullback_form(gamma: CircleDiffeo, form: CircleForm, n: int | None = None) -> CircleForm:
    """Sampled density of the pullback ``gamma^* form``: beta(gamma(t)) gamma'(t)."""
    if n is None:
        n = max(form.node_count, gamma.size)
    grid = np.linspace(0.0, TWO_PI, n, endpoint=False)
    vals = np.asarray(form(gamma(grid)), dtype=float) * gamma.derivative(grid)
    return CircleForm.from_samples(vals)

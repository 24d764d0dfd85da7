"""Closed plane curves decorated by circle densities, and their invariants."""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .circle_forms import (
    DEFAULT_MORSE_TOL,
    DEFAULT_PROFILE_REL_TOL,
    CircleDiffeo,
    CircleForm,
    FloatArray,
    VorticityProfile,
    ZeroSet,
    _transport,
    circular_match,
    find_zeros,
    partial_vorticities,
    pullback_form,
    symmetry_step,
)
from .errors import MorseViolation, OrientationError, OutOfRange, ValidationFailed
from .quadrature import _cyclic_shift, uniform_grid

DEFAULT_AREA_REL_TOL = 1e-6
# ``_spline_area`` rounds to within about eps * sum |z_j|^2 of the samples z_j (at most
# 1.1 eps on collinear curves of 16-16384 points), so an area within 16 eps of it has no sign
_AREA_ROUNDING = 16.0 * np.finfo(float).eps
# the least loop area that is a normal double; a smaller one is refused
_NORMAL_MIN = np.finfo(float).tiny
# a block of candidate pairs of ``_x_overlap_pairs`` holds at most this many per box
_SIMPLE_BLOCK = 128


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _perp(u: np.ndarray) -> np.ndarray:
    """The quarter turn (x, y) -> (y, -x) of the last axis, as a new float array.

    As x + iy this is -i times ``u``.  The parts are swapped and the second is
    multiplied by -1: not the whole by -i, whose cross terms 0 * x could flip
    the sign of a zero, and not negated, which would flip the sign of a NaN.
    """
    out = np.empty(u.shape)
    out[..., 0] = u[..., 1]
    np.multiply(u[..., 0], -1.0, out=out[..., 1])
    return out


def _columns(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``a`` with the views of its two parts, (a, a[..., 0], a[..., 1]): the
    form in which ``_turned`` reads its points and the arrays it writes, so
    that a caller that reuses its arrays makes their views once."""
    return a, a[..., 0], a[..., 1]


def _turned(p, c: float, g: np.ndarray, out, scaled) -> np.ndarray:
    """``p + c * _perp(g)`` bit for bit, with no quarter-turned copy of ``g``,
    written into ``out`` and returned as an array.

    ``p``, ``out`` and ``scaled`` are ``_columns`` triples of float arrays of
    ``g``'s shape, and ``g`` is an array; no view is made here.  ``g`` is
    scaled into ``scaled``, and its scaled second part is added to the first
    part of ``p`` and its scaled first part subtracted from the second.
    Negation commutes exactly with scaling and addition, so that difference
    is the sum with c times the negated first part of ``g`` to the bit, down
    to the sign of a zero.  Neither ``out`` nor ``scaled`` shares memory with
    the other or with ``p`` or ``g``.
    """
    _, p_x, p_y = p
    s, s_x, s_y = scaled
    turned, out_x, out_y = out
    np.multiply(g, c, s)
    np.add(p_x, s_y, out_x)
    np.subtract(p_y, s_x, out_y)
    return turned


def _x_overlap_pairs(lo: np.ndarray, hi: np.ndarray):
    """Yield blocks ``(i, j)`` of the box pairs whose x-intervals meet.

    ``lo`` and ``hi`` are the corners of the boxes (of segments, or of points
    widened by a margin).  With the boxes sorted by left edge, the later boxes
    whose x-intervals meet that of the box at position ``p`` are the run of
    positions after ``p`` whose left edge is at most its right edge, so every
    meeting pair appears exactly once.  A block holds whole runs and at most
    ``_SIMPLE_BLOCK * n`` pairs.
    """
    n = lo.shape[0]
    order = np.argsort(lo[:, 0], kind="stable")
    left = lo[order, 0]
    count = np.searchsorted(left, hi[order, 0], side="right") - np.arange(n) - 1
    ends = np.cumsum(count)
    start = 0
    while start < n:
        base = ends[start] - count[start]
        stop = int(np.searchsorted(ends, base + _SIMPLE_BLOCK * n, side="right"))
        c = count[start:stop]
        first = np.repeat(np.arange(start, stop), c)
        offset = np.arange(first.size) - np.repeat(ends[start:stop] - c - base, c)
        yield order[first], order[first + 1 + offset]
        start = stop


def _polyline_is_simple(samples: FloatArray) -> bool:
    """Whether no two non-adjacent segments of the closed polyline cross properly.

    Only pairs whose bounding boxes meet can cross, so a sort-and-sweep over
    the boxes (``_x_overlap_pairs``, then a y-interval test) picks the
    candidates, and the orientation predicate decides each candidate in both
    orders; a block with no candidate left skips it.  Segments that only
    touch, at a vertex, along a collinear overlap or in a T-junction, do not
    cross properly.
    """
    n = samples.shape[0]
    a = samples
    b = _cyclic_shift(samples, -1)
    d = b - a
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)

    def proper(r, c):
        ar = a[r]
        dr = d[r]
        o1 = _cross(dr, a[c] - ar)
        o2 = _cross(dr, b[c] - ar)
        o3 = _cross(d[c], ar - a[c])
        o4 = _cross(d[c], (ar + dr) - a[c])
        return (o1 * o2 < 0.0) & (o3 * o4 < 0.0)

    for i, j in _x_overlap_pairs(lo, hi):
        gap = (i - j) % n
        keep = ((lo[i, 1] <= hi[j, 1]) & (lo[j, 1] <= hi[i, 1])
                & (gap > 1) & (gap < n - 1))
        i, j = i[keep], j[keep]
        if i.size and np.any(proper(i, j) | proper(j, i)):
            return False
    return True


class LoopEmbedding:
    """Closed plane curve through N uniform parameter samples.

    Both coordinates are interpolated by one periodic cubic spline, whose
    area (``_spline_area``) is computed once.  Construction validates that
    the area is not zero to rounding and is positive (counter clockwise; a
    clockwise input is rejected, ``DecoratedLoop.build`` reverses one with
    its decoration), the sample polyline is simple and the parametrization
    is an immersion at the samples.
    """

    def __init__(self, samples):
        pts = np.array(samples, dtype=float, order="C")
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 16:
            raise ValueError("need an (N, 2) array with N >= 16")
        if not np.all(np.isfinite(pts)):
            raise ValueError("loop samples must be finite")
        # the zero-area and orientation tests on the curve scaled into [-1, 1]:
        # both sides of the first scale alike, and so neither overflows
        area, e, unit = _unit_area(pts)
        if abs(area) <= _AREA_ROUNDING * float(np.sum(np.square(unit))):
            raise ValidationFailed("loop encloses zero signed area")
        if area < 0.0:
            raise OrientationError("loop is negatively oriented; reverse it with --auto-orient "
                                   "or DecoratedLoop.build(auto_orient=True)")
        with np.errstate(over="ignore", under="ignore"):  # rejected right below
            self._area = float(np.ldexp(area, 2 * e))
        if not _NORMAL_MIN <= self._area < np.inf:
            raise OutOfRange(f"loop area {float(area)!r} * 4**{int(e)} is outside the range of "
                             "normal doubles")
        if not _polyline_is_simple(pts):
            raise ValidationFailed("loop polyline self-intersects")
        self._samples = pts
        self._spline = quadrature.periodic_spline(pts)
        d = self._spline._coeffs[1]  # the nodal slopes: the derivative at the knots
        speed = np.hypot(d[:, 0], d[:, 1])
        if np.min(speed) <= 1e-8 * np.max(speed):
            raise ValidationFailed("parametrization is not an immersion at the samples")

    @property
    def size(self) -> int:
        return self._samples.shape[0]

    @property
    def samples(self) -> FloatArray:
        return self._samples.copy()

    @property
    def grid(self) -> FloatArray:
        return uniform_grid(self.size)

    @classmethod
    def circle(cls, radius: float = 1.0, center=(0.0, 0.0), n: int = 256) -> "LoopEmbedding":
        return cls.ellipse(radius, radius, center, n)

    @classmethod
    def ellipse(cls, a: float, b: float, center=(0.0, 0.0), n: int = 256) -> "LoopEmbedding":
        s = uniform_grid(n)
        return cls(np.column_stack([center[0] + a * np.cos(s),
                                    center[1] + b * np.sin(s)]))

    def eval(self, s) -> FloatArray:
        return self._spline(np.asarray(s, dtype=float))

    def derivative(self, s) -> FloatArray:
        return self._spline(np.asarray(s, dtype=float), 1)

    def frame(self, s) -> tuple[FloatArray, FloatArray]:
        """Unit tangent and unit normal (tangent rotated by +pi/2)."""
        d = self.derivative(s)
        speed = np.linalg.norm(d, axis=-1, keepdims=True)
        tangent = d / speed
        return tangent, -_perp(tangent)

    def __repr__(self) -> str:
        return f"LoopEmbedding(n={self.size})"


@functools.cache
def _area_weights(n: int) -> FloatArray:
    """``w(theta_k)`` of ``_spline_area`` at ``theta_k = 2*pi*k/n``, k < n."""
    theta = uniform_grid(n)
    cos = np.cos(theta)
    sin = np.sin(theta)
    eig = 4.0 + 2.0 * cos
    weights = sin * (1.0 + 1.2 * (2.0 - 2.0 * cos) / eig - 1.2 * sin * sin / (eig * eig)) / (2.0 * n)
    weights.flags.writeable = False  # shared by every call at this n
    return weights


def _unit_area(samples):
    """``(a, e, unit)``: ``unit``, the samples times 2**-e, with e the binary
    exponent of max|sample| (per curve when stacked), so that every |sample|
    of it is below 1, and ``a``, the spline area of ``unit`` (``_spline_area``).

    The samples enclose the area a * 4**e.  A power-of-two scaling rounds
    nothing, so on ordinary samples ``a`` is that area times 4**-e bit for bit,
    and the squares of the spectrum can neither overflow nor fall below the
    normal range, whatever the scale of the curve (Blue's scaled norm).
    """
    pts = np.asarray(samples, dtype=float)
    e = np.frexp(np.abs(pts.reshape(*pts.shape[:-2], -1)).max(axis=-1))[1]
    unit = np.ldexp(pts, -e[..., None, None])
    z = np.ascontiguousarray(unit).view(complex)[..., 0]
    spectrum = np.fft.fft(z, axis=-1)
    power = spectrum.real * spectrum.real + spectrum.imag * spectrum.imag
    return np.sum(power * _area_weights(z.shape[-1]), axis=-1), e, unit


def _spline_area(samples):
    """Signed area ``integral((x y' - y x') / 2)`` inside the periodic cubic
    spline (``quadrature.periodic_spline``) through closed 2-d samples.

    Summed over the cells, the Hermite integral of each cell
    ``cross(p0, p1) + (h/5) cross(dp, dm) - (h^2/30) cross(m0, m1)`` is a
    quadratic form that the DFT diagonalizes, because the spline slopes are a
    circulant operator on the samples (eigenvalues ``4 + 2 cos theta``).  With
    ``Z = fft(x + iy)`` the area is ``sum_k |Z_k|^2 w(theta_k)``, exact on the
    spline, with no spline evaluated.  ``w(0) = 0``, so a translation, which
    moves only ``Z_0``, leaves it unchanged.  It is taken on the samples
    scaled by a power of two (``_unit_area``) and scaled back, so an area
    beyond the double range comes out infinite, and one below it subnormal or
    zero, which ``LoopEmbedding`` refuses.  Stacked curves (shape (..., N, 2))
    give their areas as an array, each row scaled and summed on its own, so
    equal to the area of that curve alone bit for bit.
    """
    a, e, _ = _unit_area(samples)
    with np.errstate(over="ignore", under="ignore"):
        areas = np.ldexp(a, 2 * e)
    return float(areas) if areas.ndim == 0 else areas


def enclosed_area(embedding: LoopEmbedding) -> float:
    """Signed area enclosed by the loop, exact on its spline; the embedding computed it."""
    return embedding._area


def _check_zero_images(embedding: LoopEmbedding, zs: ZeroSet) -> None:
    """Raise ValidationFailed when two zeros land within s = 1e-9 of the curve's diameter
    of each other on the curve.  Rounding is monotone, so the sweep ``_x_overlap_pairs`` on
    x-intervals widened by s yields every such pair, and only those are measured."""
    pts = embedding.eval(zs.zeros)
    samples = embedding._samples
    sep = 1e-9 * max(float(np.ptp(samples[:, 0])), float(np.ptp(samples[:, 1])))
    for i, j in _x_overlap_pairs(pts - sep, pts + sep):
        if i.size and np.min(np.hypot(*(pts[i] - pts[j]).T)) <= sep:
            raise ValidationFailed("two zero images coincide on the curve")


class DecoratedLoop:
    """A loop embedding together with a Morse density on its parameter circle.

    The zeros are found on construction with the relative derivative floor
    ``morse_tol`` (see ``find_zeros``), and the vorticity profile is
    integrated once they pass the zero-image check.
    """

    def __init__(self, embedding: LoopEmbedding, decoration: CircleForm, *,
                 morse_tol: float = DEFAULT_MORSE_TOL):
        self._embedding = embedding
        self._decoration = decoration
        self._zero_set = zs = find_zeros(decoration, morse_tol=morse_tol)
        if zs.k == 0:
            raise MorseViolation("decoration has no zeros; a Morse decoration needs at least two")
        _check_zero_images(embedding, zs)
        self._profile = partial_vorticities(decoration, zs)

    @classmethod
    def build(cls, samples, decoration: CircleForm, *, auto_orient: bool = False,
              morse_tol: float = DEFAULT_MORSE_TOL) -> "DecoratedLoop":
        """Build from raw samples.  A clockwise curve, which ``LoopEmbedding``
        rejects with OrientationError, is with ``auto_orient`` reversed
        (``t -> 2*pi - t``, sample 0 kept) together with its decoration
        (``reversed_decoration``); without it the error is raised."""
        try:
            embedding = LoopEmbedding(samples)
        except OrientationError:
            if not auto_orient:
                raise
            pts = np.asarray(samples, dtype=float)
            embedding = LoopEmbedding(pts[(-np.arange(pts.shape[0])) % pts.shape[0]])
            decoration = reversed_decoration(decoration)
        return cls(embedding, decoration, morse_tol=morse_tol)

    def _with_embedding(self, embedding: LoopEmbedding) -> "DecoratedLoop":
        """The same decoration on another embedding.  The zero set and the
        profile are the decoration's alone, so they are carried over, found
        with this loop's ``morse_tol`` and not searched again; only the zero
        images are checked again, on the new curve."""
        _check_zero_images(embedding, self._zero_set)
        moved = copy.copy(self)
        moved._embedding = embedding
        return moved

    @property
    def embedding(self) -> LoopEmbedding:
        return self._embedding

    @property
    def decoration(self) -> CircleForm:
        return self._decoration

    @property
    def zero_set(self) -> ZeroSet:
        return self._zero_set

    @property
    def profile(self) -> VorticityProfile:
        return self._profile

    def __repr__(self) -> str:
        return f"DecoratedLoop(n={self._embedding.size}, k={self.zero_set.k})"


def reversed_decoration(form: CircleForm) -> CircleForm:
    """Pullback of the decoration under the reversal ``t -> 2*pi - t``."""
    if form.kind == "trig":
        a0, cos_c, sin_c = form.trig_coefficients
        return CircleForm.trig(-a0, -cos_c, sin_c)
    vals = form.sample_values
    n = vals.size
    return CircleForm.from_samples(-vals[(-np.arange(n)) % n])


@dataclass(frozen=True)
class OrbitInvariants:
    """Complete orbit label: enclosed area, vorticity profile, symmetry step."""

    area: float
    omegas: FloatArray
    total: float
    step: int

    @property
    def k(self) -> int:
        return self.omegas.size


def orbit_invariants(loop: DecoratedLoop, *, rel_tol: float = DEFAULT_PROFILE_REL_TOL) -> OrbitInvariants:
    area = enclosed_area(loop.embedding)
    prof = loop.profile
    return OrbitInvariants(area, prof.omegas.copy(), prof.total, symmetry_step(prof, rel_tol))


def _orbit_match(first: DecoratedLoop, second: DecoratedLoop, area_rel_tol: float,
                 profile_rel_tol: float) -> tuple[bool, list[int], float]:
    """The equivalence verdict, the cyclic shifts matching the profiles and
    ``area(second) - area(first)``.  The loops are equivalent when some shift
    matches and the area delta is within ``area_rel_tol`` of the first area."""
    area = enclosed_area(first.embedding)
    delta = enclosed_area(second.embedding) - area
    shifts = circular_match(first.profile, second.profile, profile_rel_tol)
    return bool(shifts) and abs(delta) <= area_rel_tol * abs(area), shifts, delta


def orbit_equivalent(first: DecoratedLoop, second: DecoratedLoop, *,
                     area_rel_tol: float = DEFAULT_AREA_REL_TOL,
                     profile_rel_tol: float = DEFAULT_PROFILE_REL_TOL) -> bool:
    """Whether the complete invariants (area, profile up to cyclic shift) agree."""
    return _orbit_match(first, second, area_rel_tol, profile_rel_tol)[0]


def intertwiner(model: DecoratedLoop, target: DecoratedLoop, shift: int, *,
                rel_tol: float = DEFAULT_PROFILE_REL_TOL,
                grid_size: int | None = None) -> CircleDiffeo:
    """Reparametrization pushing the model's decoration onto the target's.

    Segment ``i`` of the model is carried onto segment ``i + shift`` of the
    target by matching cumulative integrals, between the zeros both loops
    found on construction.  Raises ProfileMismatch unless the vorticity
    profiles agree at the requested shift.
    """
    form = model.decoration
    if grid_size is None:
        grid_size = 4 * max(target.embedding.size, form.node_count)
    return _transport(form, model.zero_set, model.profile, target.decoration, target.zero_set,
                      target.profile, shift, rel_tol, grid_size)


def _intertwining_residual(model: CircleForm, target: CircleForm, psi: CircleDiffeo) -> float:
    """Peak-to-peak of ``target.antiderivative(psi(t)) - model.antiderivative(t)``
    at the midpoints of ``psi``'s grid cells, in vorticity units.  ``psi`` pushes
    the model density onto the target's exactly when that difference is
    constant; the midpoints lie between the nodes the transport solved at.
    Midpoint j lies in cell j of ``psi``'s grid, below 2 pi, so ``psi`` is
    evaluated there cell by cell, bit for bit ``psi(t)``."""
    grid = psi.grid
    t = grid + np.pi / psi.size
    image = t + psi._displacement._in_cells((t - grid)[:, None])[:, 0]
    return float(np.ptp(target.antiderivative(image) - model.antiderivative(t)))


def pushforward_form(gamma: CircleDiffeo, form: CircleForm, n: int | None = None) -> CircleForm:
    """Sampled density of the pushforward: the pullback through ``gamma.inverse()``."""
    return pullback_form(gamma.inverse(), form, n)

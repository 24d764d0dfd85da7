"""Closed plane curves decorated by circle densities, and their invariants."""

from __future__ import annotations

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
from .errors import MorseViolation, OrientationError, ValidationFailed
from .quadrature import TWO_PI

DEFAULT_AREA_REL_TOL = 1e-6
# a block of candidate pairs in ``_polyline_is_simple`` holds at most this many per segment
_SIMPLE_BLOCK = 128

_GAUSS3_NODES, _GAUSS3_WEIGHTS = np.polynomial.legendre.leggauss(3)
_QUARTER_TURN = np.array([1.0, -1.0])


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _perp(u: np.ndarray) -> np.ndarray:
    """The quarter turn (x, y) -> (y, -x) of the last axis."""
    return u[..., ::-1] * _QUARTER_TURN


def _shoelace(samples: FloatArray) -> float:
    x = samples[:, 0]
    y = samples[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _x_overlap_pairs(lo: np.ndarray, hi: np.ndarray):
    """Yield blocks ``(i, j)`` of the segment pairs whose x-intervals meet.

    ``lo`` and ``hi`` are the corners of the segment bounding boxes.  With
    the segments sorted by left edge, the later segments whose x-intervals
    meet that of the segment at position ``p`` are the run of positions after
    ``p`` whose left edge is at most its right edge, so every meeting pair
    appears exactly once.  A block holds whole runs and at most
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
    orders.  Segments that only touch, at a vertex, along a collinear
    overlap or in a T-junction, do not cross properly.
    """
    n = samples.shape[0]
    a = samples
    b = np.roll(samples, -1, axis=0)
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
        if np.any(proper(i, j) | proper(j, i)):
            return False
    return True


class LoopEmbedding:
    """Closed plane curve through N uniform parameter samples.

    Both coordinates are interpolated by one periodic cubic spline.
    Construction validates that the sample polyline is simple, the
    parametrization is an immersion at the samples, and the orientation is
    positive (counter clockwise); a negatively oriented input is reversed when
    ``auto_orient`` is set and rejected otherwise.
    """

    def __init__(self, samples, *, auto_orient: bool = False):
        pts = np.asarray(samples, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 16:
            raise ValueError("need an (N, 2) array with N >= 16")
        if not np.all(np.isfinite(pts)):
            raise ValueError("loop samples must be finite")
        self._reversed = False
        area2 = _shoelace(pts)
        if area2 == 0.0:
            raise ValidationFailed("loop encloses zero signed area")
        if area2 < 0.0:
            if not auto_orient:
                raise OrientationError(
                    "loop is negatively oriented; pass auto_orient to reverse it")
            n = pts.shape[0]
            pts = pts[(-np.arange(n)) % n]
            self._reversed = True
        if not _polyline_is_simple(pts):
            raise ValidationFailed("loop polyline self-intersects")
        self._samples = pts.copy()
        self._spline = quadrature.periodic_spline(pts)
        self._dspline = self._spline.derivative()
        d = self._dspline(self.grid)
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
        return np.linspace(0.0, TWO_PI, self.size, endpoint=False)

    @property
    def auto_reversed(self) -> bool:
        return self._reversed

    @classmethod
    def circle(cls, radius: float = 1.0, center=(0.0, 0.0), n: int = 256) -> "LoopEmbedding":
        s = np.linspace(0.0, TWO_PI, n, endpoint=False)
        return cls(np.column_stack([center[0] + radius * np.cos(s),
                                    center[1] + radius * np.sin(s)]))

    @classmethod
    def ellipse(cls, a: float, b: float, center=(0.0, 0.0), n: int = 256) -> "LoopEmbedding":
        s = np.linspace(0.0, TWO_PI, n, endpoint=False)
        return cls(np.column_stack([center[0] + a * np.cos(s),
                                    center[1] + b * np.sin(s)]))

    def eval(self, s) -> FloatArray:
        return self._spline(np.asarray(s, dtype=float))

    def derivative(self, s) -> FloatArray:
        return self._dspline(np.asarray(s, dtype=float))

    def frame(self, s) -> tuple[FloatArray, FloatArray]:
        """Unit tangent and unit normal (tangent rotated by +pi/2)."""
        d = self.derivative(s)
        speed = np.linalg.norm(d, axis=-1, keepdims=True)
        tangent = d / speed
        return tangent, -_perp(tangent)

    def resample(self, n: int) -> "LoopEmbedding":
        s = np.linspace(0.0, TWO_PI, n, endpoint=False)
        return LoopEmbedding(self.eval(s))

    def __repr__(self) -> str:
        return f"LoopEmbedding(n={self.size})"


def _spline_area(spline) -> float:
    """Signed area ``integral((x y' - y x') / 2)`` enclosed by a closed 2-d spline.

    On each knot interval ``x y' - y x'`` is a quintic, so one 3-point Gauss
    rule per interval integrates it exactly.
    """
    knots = spline.x
    half = 0.5 * np.diff(knots)
    t = (knots[:-1] + half)[:, None] + half[:, None] * _GAUSS3_NODES
    per_knot = _cross(spline(t), spline(t, 1)) @ _GAUSS3_WEIGHTS
    return 0.5 * float(half @ per_knot)


def enclosed_area(embedding: LoopEmbedding) -> float:
    """Signed area enclosed by the loop, exact on its spline."""
    return _spline_area(embedding._spline)


class DecoratedLoop:
    """A loop embedding together with a Morse density on its parameter circle.

    The zeros are found on construction with the relative derivative floor
    ``morse_tol`` (see ``find_zeros``).
    """

    def __init__(self, embedding: LoopEmbedding, decoration: CircleForm, *,
                 morse_tol: float = DEFAULT_MORSE_TOL):
        self._embedding = embedding
        self._decoration = decoration
        self._zero_set = zs = find_zeros(decoration, morse_tol=morse_tol)
        self._profile: VorticityProfile | None = None
        if zs.k == 0:
            raise MorseViolation("decoration has no zeros; a Morse decoration needs at least two")
        pts = embedding.eval(zs.zeros)
        diam = float(np.max(np.ptp(embedding.samples, axis=0)))
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.hypot(diff[..., 0], diff[..., 1])
        np.fill_diagonal(dist, np.inf)
        if np.min(dist) <= 1e-9 * diam:
            raise ValidationFailed("two zero images coincide on the curve")

    @classmethod
    def build(cls, samples, decoration: CircleForm, *, auto_orient: bool = False,
              morse_tol: float = DEFAULT_MORSE_TOL) -> "DecoratedLoop":
        """Build from raw samples, reversing orientation (and decoration) on demand."""
        emb = LoopEmbedding(samples, auto_orient=auto_orient)
        if emb.auto_reversed:
            decoration = reversed_decoration(decoration)
        return cls(emb, decoration, morse_tol=morse_tol)

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
        if self._profile is None:
            self._profile = partial_vorticities(self._decoration, self.zero_set)
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


def orbit_equivalent(first: DecoratedLoop, second: DecoratedLoop, *,
                     area_rel_tol: float = DEFAULT_AREA_REL_TOL,
                     profile_rel_tol: float = DEFAULT_PROFILE_REL_TOL) -> bool:
    """Whether the complete invariants (area, profile up to cyclic shift) agree."""
    a1 = enclosed_area(first.embedding)
    a2 = enclosed_area(second.embedding)
    if abs(a1 - a2) > area_rel_tol * abs(a1):
        return False
    return bool(circular_match(first.profile, second.profile, profile_rel_tol))


def intertwiner(model: CircleForm, target: DecoratedLoop, shift: int, *,
                rel_tol: float = DEFAULT_PROFILE_REL_TOL,
                grid_size: int | None = None) -> CircleDiffeo:
    """Reparametrization pushing the model density onto the target decoration.

    Segment ``i`` of the model is carried onto segment ``i + shift`` of the
    target by matching cumulative integrals.  Raises ProfileMismatch unless
    the vorticity profiles agree at the requested shift.
    """
    model_zeros = find_zeros(model)
    model_prof = partial_vorticities(model, model_zeros)
    if grid_size is None:
        grid_size = 4 * max(target.embedding.size, model.node_count)
    return _transport(model, model_zeros, model_prof, target.decoration, target.zero_set,
                      target.profile, shift, rel_tol, grid_size)


def pushforward_form(gamma: CircleDiffeo, form: CircleForm, n: int | None = None) -> CircleForm:
    """Sampled density of the pushforward: the pullback through ``gamma.inverse()``."""
    return pullback_form(gamma.inverse(), form, n)

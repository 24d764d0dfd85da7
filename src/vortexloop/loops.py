"""Closed plane curves decorated by circle densities, and their invariants."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from . import quadrature
from .circle_forms import (
    DEFAULT_MORSE_TOL,
    CircleDiffeo,
    CircleForm,
    FloatArray,
    VorticityProfile,
    ZeroSet,
    _transport,
    find_zeros,
    partial_vorticities,
    symmetry_step,
)
from .errors import MorseViolation, OrientationError, ProfileMismatch, ValidationFailed
from .quadrature import TWO_PI

DEFAULT_PROFILE_REL_TOL = 1e-9
DEFAULT_AREA_REL_TOL = 1e-6


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _shoelace(samples: FloatArray) -> float:
    x = samples[:, 0]
    y = samples[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _polyline_is_simple(samples: FloatArray, block: int = 128) -> bool:
    """Pairwise proper-crossing test over all non-adjacent polyline segments."""
    n = samples.shape[0]
    a = samples
    b = np.roll(samples, -1, axis=0)
    d = b - a
    idx = np.arange(n)
    for start in range(0, n, block):
        rows = idx[start:start + block]
        ar = a[rows][:, None, :]
        dr = d[rows][:, None, :]
        o1 = _cross(dr, a[None, :, :] - ar)
        o2 = _cross(dr, b[None, :, :] - ar)
        o3 = _cross(d[None, :, :], ar - a[None, :, :])
        o4 = _cross(d[None, :, :], (ar + dr) - a[None, :, :])
        proper = (o1 * o2 < 0.0) & (o3 * o4 < 0.0)
        gap = (rows[:, None] - idx[None, :]) % n
        proper &= (gap > 1) & (gap < n - 1)
        if np.any(proper):
            return False
    return True


class LoopEmbedding:
    """Closed plane curve through N uniform parameter samples.

    Coordinates are interpolated by periodic cubic splines.  Construction
    validates that the sample polyline is simple, the parametrization is an
    immersion at the samples, and the orientation is positive (counter
    clockwise); a negatively oriented input is reversed when ``auto_orient``
    is set and rejected otherwise.
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
        n = pts.shape[0]
        grid = np.linspace(0.0, TWO_PI, n + 1)
        closed = np.vstack([pts, pts[:1]])
        self._sx = CubicSpline(grid, closed[:, 0], bc_type="periodic")
        self._sy = CubicSpline(grid, closed[:, 1], bc_type="periodic")
        self._dx = self._sx.derivative()
        self._dy = self._sy.derivative()
        speed = np.hypot(self._dx(grid[:-1]), self._dy(grid[:-1]))
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
        arr = np.mod(np.asarray(s, dtype=float), TWO_PI)
        return np.stack([self._sx(arr), self._sy(arr)], axis=-1)

    def derivative(self, s) -> FloatArray:
        arr = np.mod(np.asarray(s, dtype=float), TWO_PI)
        return np.stack([self._dx(arr), self._dy(arr)], axis=-1)

    def frame(self, s) -> tuple[FloatArray, FloatArray]:
        """Unit tangent and unit normal (tangent rotated by +pi/2)."""
        d = self.derivative(s)
        speed = np.linalg.norm(d, axis=-1, keepdims=True)
        tangent = d / speed
        normal = np.stack([-tangent[..., 1], tangent[..., 0]], axis=-1)
        return tangent, normal

    def resample(self, n: int) -> "LoopEmbedding":
        s = np.linspace(0.0, TWO_PI, n, endpoint=False)
        return LoopEmbedding(self.eval(s))

    def __repr__(self) -> str:
        return f"LoopEmbedding(n={self.size})"


def enclosed_area(embedding: LoopEmbedding) -> float:
    """Signed area enclosed by the loop, integrated along the spline."""

    def integrand(s: np.ndarray) -> np.ndarray:
        p = embedding.eval(s)
        d = embedding.derivative(s)
        return 0.5 * (p[..., 0] * d[..., 1] - p[..., 1] * d[..., 0])

    edges = np.linspace(0.0, TWO_PI, embedding.size + 1)
    return float(np.sum(quadrature.panel_integrals(integrand, edges)))


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
        return CircleForm.trig(-a0, -cos_c, sin_c, node_count=form.node_count)
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


def circular_match(p, q, rel_tol: float = DEFAULT_PROFILE_REL_TOL) -> list[int]:
    """All cyclic shifts j with ``p_i == q_(i+j)`` within ``rel_tol`` of max|p|."""
    p = np.asarray(p.omegas if isinstance(p, VorticityProfile) else p, dtype=float)
    q = np.asarray(q.omegas if isinstance(q, VorticityProfile) else q, dtype=float)
    if p.size != q.size or p.size == 0:
        return []
    k = p.size
    idx = (np.arange(k)[None, :] + np.arange(k)[:, None]) % k
    dev = np.max(np.abs(p[None, :] - q[idx]), axis=1)
    tol = rel_tol * float(np.max(np.abs(p)))
    return [int(j) for j in np.nonzero(dev <= tol)[0]]


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
    tgt_zeros = target.zero_set
    tgt_prof = target.profile
    k = model_prof.k
    if tgt_prof.k != k:
        raise ProfileMismatch(
            f"model has {k} partial vorticities but the target has {tgt_prof.k}")
    shift = shift % k
    if shift not in circular_match(model_prof, tgt_prof, rel_tol):
        raise ProfileMismatch(f"profiles do not match at shift {shift} within {rel_tol:g}")
    if grid_size is None:
        grid_size = 4 * max(target.embedding.size, model.node_count)
    samples, slopes = _transport(model, model_zeros.zeros, model_prof.omegas,
                                 target.decoration, tgt_zeros.zeros, tgt_prof.omegas,
                                 shift, grid_size)
    return CircleDiffeo(samples, slopes)


def pushforward_form(gamma: CircleDiffeo, form: CircleForm, n: int | None = None) -> CircleForm:
    """Sampled density of the pushforward: ``(form o gamma^-1) * (gamma^-1)'``."""
    if n is None:
        n = max(form.node_count, gamma.size)
    inv = gamma.inverse()
    grid = np.linspace(0.0, TWO_PI, n, endpoint=False)
    vals = np.asarray(form(inv(grid)), dtype=float) * inv.derivative(grid)
    return CircleForm.from_samples(vals)

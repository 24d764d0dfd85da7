"""Hamiltonian advection of decorated loops with conservation reporting.

Hamiltonians are sums of Gaussian bumps cut off smoothly at six standard
deviations, so every generated vector field is compactly supported and points
outside the support are fixed exactly.  The decoration is transported
unchanged: advection only moves the embedding.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .circle_forms import FloatArray
from .errors import OutOfRange, StepRejected, ValidationFailed, VortexLoopError
from .loops import (
    DecoratedLoop,
    LoopEmbedding,
    _columns,
    _perp,
    _polyline_is_simple,
    _turned,
    enclosed_area,
    orbit_invariants,
)
from .symplectic import _against, momentum_map_eval

_ERROR_LIMIT = 1e-3
_CUTOFF_START = 5.0
# the exponent -rho^2/2 at rho = _CUTOFF_START; an exponent below it means rho > _CUTOFF_START
_CUTOFF_EXPONENT = -0.5 * _CUTOFF_START**2
_MIDPOINT_ITERATIONS = 60
# the largest dt L a run may take, L = sum |A| / sigma^2 >= sup |DX_h|: RK4's
# stability interval on the imaginary axis, where the linearised field has
# its eigenvalues near a bump's centre
_STEP_LIMIT = 2.0 * np.sqrt(2.0)
# accepted steps between two simplicity checks of the evolving polyline
_SIMPLE_STRIDE = 10


@dataclass(frozen=True)
class PlanarBump:
    center: tuple[float, float]
    sigma: float
    amplitude: float

    def __post_init__(self):
        if len(self.center) != 2 or not all(abs(c) < np.inf for c in self.center):
            raise ValueError("bump centre must be two finite numbers")
        if not 0.0 < self.sigma < np.inf:
            raise ValueError("bump width must be positive and finite")
        if not abs(self.amplitude) < np.inf:
            raise ValueError("bump amplitude must be finite")


def _complex_points(pts) -> np.ndarray:
    """The M points of ``pts`` (shape (..., 2)) as x + iy, shape (M, 1); a
    view of ``pts`` unless its pairs are not contiguous or not evenly spaced."""
    if pts.strides[-1] != pts.itemsize:
        pts = np.ascontiguousarray(pts)
    return (pts if pts.ndim == 2 else pts.reshape(-1, 2)).view(complex)


def _term_arrays(b: int, m: int):
    """The arrays the bump kernel writes into for B bumps and M points, with
    the views it reads them through: the (B, M, 1) complex offsets and their
    (B, M, 2) parts, the squared parts and their x and y halves, and the
    (B, M, 1) exponents."""
    offsets = np.empty((b, m, 1), dtype=complex)
    squares = np.empty((b, m, 2))
    halves = squares.view(complex)
    return offsets, offsets.view(float), squares, halves.real, halves.imag, np.empty((b, m, 1))


class PlanarHamiltonian:
    """Sum of Gaussian bumps, each blended to zero between 5 and 6 sigma.

    The blend is a quintic smoothstep, so the Hamiltonian is C^2 at the
    cutoff and exactly zero (value and gradient) beyond it.  The bumps are
    also held as arrays, so one pass evaluates every bump at every point.
    """

    # whether every point this instance is given is known to lie within 5
    # sigma of every bump, so that ``gradient`` takes the Gaussian arithmetic
    # alone; see ``_for_run``
    _inside_cutoff = False
    # a bound on every coordinate of every point this instance is given, at
    # least 1; see ``_for_run``
    _coordinate_bound = np.inf
    # the ``_term_arrays`` that ``_exponents`` writes into: None, so that each
    # call makes its own, except on a copy from ``_for_run``
    _arrays = None

    def __init__(self, bumps):
        self._bumps = tuple(bumps)
        # bump axis first and the point axis second: centres x + iy of shape
        # (B, 1, 1), the others (B, 1, 1)
        centers = np.array([b.center for b in self._bumps], dtype=float).reshape(-1, 2)
        self._zc = _complex_points(centers)[:, None]
        sigmas = np.array([b.sigma for b in self._bumps], dtype=float)
        amplitudes = np.array([b.amplitude for b in self._bumps], dtype=float)
        self._amplitudes = amplitudes[:, None, None]
        # computed quietly: a bump whose |A| / sigma or |A| / sigma^2 is not a
        # double is refused below, and a sum of finite terms that overflows is
        # refused by ``advect``'s step condition
        with np.errstate(all="ignore"):
            inv_sigma2 = 1.0 / sigmas**2
            speeds = np.abs(amplitudes) / sigmas
            slopes = np.abs(amplitudes) * inv_sigma2
            self._exponent_scale = (-0.5 * inv_sigma2)[:, None, None]
            self._amp_inv_sigma2 = self._amplitudes * inv_sigma2[:, None, None]
            self._cutoff_radius = _CUTOFF_START * sigmas
            # V = sum |A| / sigma >= sup |grad h|.  In units of |A| / sigma a bump's
            # gradient is rho exp(-rho^2 / 2) <= e^(-1/2) within 5 sigma, at most
            # e^(-12.5) (1.875 + 6) in the 5-6 sigma band (|slope| <= 1.875, blend
            # <= 1, rho <= 6) and 0 beyond; the slack up to 1 covers the rounding
            # of the computed field
            self._speed_bound = float(np.sum(speeds))
            # L = sum |A| / sigma^2 >= sup |DX_h|, the norm of the Hessian of h.  In
            # units of |A| / sigma^2 a bump's Hessian has the eigenvalues
            # (rho^2 - 1) exp(-rho^2 / 2) and -exp(-rho^2 / 2), at most 1 in size
            # within 5 sigma.  In the 5-6 sigma band, with g = exp(-rho^2 / 2) <=
            # e^(-12.5) and the blend b (|b| <= 1, |b'| <= 1.875, |b''| <= 10 / sqrt 3
            # in rho), they are (gb)'' = (rho^2 - 1) g b - 2 rho g b' + g b'' and
            # (gb)' / rho, at most e^(-12.5) (35 + 22.5 + 5.8) and e^(-12.5) 7.9 / 5,
            # both below 2.4e-4; beyond it they are 0
            self._jacobian_bound = float(np.sum(slopes))
        # |A| (1 / sigma^2) is finite only where 1 / sigma^2 is, so every
        # constant of a bump that passes is finite
        bad = np.flatnonzero(~(np.isfinite(speeds) & np.isfinite(slopes)))
        if bad.size:
            i = bad[0]
            raise OutOfRange(
                f"bump {i}: |A| / sigma or |A| / sigma^2 is beyond the double range "
                f"(A = {float(amplitudes[i])!r}, sigma = {float(sigmas[i])!r})")
        self._neg_amp_inv_sigma2 = -self._amp_inv_sigma2

    @property
    def bumps(self) -> tuple[PlanarBump, ...]:
        return self._bumps

    @classmethod
    def single(cls, center, sigma: float, amplitude: float) -> "PlanarHamiltonian":
        return cls([PlanarBump((float(center[0]), float(center[1])), float(sigma), float(amplitude))])

    def _exponents(self, zp, arrays):
        """Subtract, square, add and scale: the offsets (x - cx) + i(y - cy) of
        the (M, 1) complex points ``zp`` from the B bumps, and the exponents
        -rho^2 / 2 for rho = r / sigma, both of shape (B, M, 1), written into
        the ``_term_arrays`` ``arrays`` and returned.  A sum over the bumps of
        the offsets is the (M, 1) complex view of (M, 2) points."""
        offsets, parts, squares, x2, y2, e = arrays
        np.subtract(zp, self._zc, offsets)
        # (x - cx)^2 + (y - cy)^2
        np.square(parts, squares)
        np.add(x2, y2, e)
        np.multiply(e, self._exponent_scale, e)
        return offsets, e

    def _terms(self, pts):
        """The offsets and exponents ``_exponents`` writes for the M points of
        ``pts`` (shape (..., 2)), with rho = r / sigma, the blend and its slope
        in rho between them: (offsets, None or (rho, blend, slope), exponents).

        With s = clip(rho - 5, 0, 1) the blend is 1 - 10 s^3 + 15 s^4 - 6 s^5
        and its slope -30 s^2 (1 - s)^2, both in Horner form; both are exact at
        s = 0 and s = 1.  When no point lies past 5 sigma of any bump, s is 0
        everywhere, so the blend is exactly 1 and the slope exactly 0: none of
        the three is then computed, and None takes their place.  Every instance
        from ``_for_run`` has ``_term_arrays`` of its own, which every call
        writes into; any other makes them per call.
        """
        zp = _complex_points(pts)
        d, e = self._exponents(zp, self._arrays or _term_arrays(len(self._bumps), len(zp)))
        # a NaN fails >=, so it takes the blend
        if e.size == 0 or np.minimum.reduce(e, axis=None) >= _CUTOFF_EXPONENT:
            return d, None, e
        # scaling by powers of two rounds nothing, so e * -2.0 is rho^2 to the bit
        rho = np.sqrt(e * -2.0)
        s = np.minimum(np.maximum(rho - _CUTOFF_START, 0.0), 1.0)
        s2 = s * s
        blend = ((s * -6.0 + 15.0) * s - 10.0) * s2 * s + 1.0
        slope = ((s * -30.0 + 60.0) * s - 30.0) * s2
        return d, (rho, blend, slope), e

    def __call__(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        _, band, e = self._terms(pts)
        gauss = np.exp(e, out=e)
        weight = gauss if band is None else gauss * band[1]
        return (weight * self._amplitudes).sum(axis=0).reshape(pts.shape[:-1])

    def gradient(self, points, out=None) -> np.ndarray:
        """The gradient at ``points`` (shape (..., 2)), of their shape.  For
        (M, 2) points, ``out``, when given, is a float array of shape (M, 2)
        whose pairs are contiguous: the gradient is written into it, with the
        same bits, and ``out`` is returned.

        A certified copy from ``_for_run`` is given only the run's (M, 2)
        C-contiguous float arrays, and a float ``out`` of their shape when
        any: it reads their complex view as it is, checks nothing, looks at no
        cutoff and writes into its own ``_term_arrays``, so a call is the
        Gaussian arithmetic alone.  Every other instance converts and checks
        its arguments, and takes the same arithmetic where no point lies past
        5 sigma of any bump.
        """
        if self._inside_cutoff:
            d, e = self._exponents(points.view(complex), self._arrays)
            band, shape = None, points.shape
        else:
            pts = np.asarray(points, dtype=float)
            if out is not None and out.dtype != float:
                raise ValueError("out must be a float array")
            d, band, e = self._terms(pts)
            shape = pts.shape
        # grad = A exp(-rho^2/2) (slope / rho - blend) d / sigma^2, summed over the bumps
        if band is None:
            # blend 1 and slope 0 everywhere.  Every offset is finite here, so the
            # complex product with the real weight, (x w - y 0) + i (x 0 + y w),
            # differs from the two real products at most in the sign of a zero
            # term; the sum over the bumps starts from +0 and ends the same.
            np.exp(e, e)
            np.multiply(e, self._neg_amp_inv_sigma2, e)
            np.multiply(d, e, d)
        else:
            rho, blend, slope = band
            # the slope is 0 below 5 sigma, so the guarded rho keeps the bump centre finite
            gauss = np.exp(e, out=e)
            weight = gauss * (slope / np.maximum(rho, _CUTOFF_START) - blend) * self._amp_inv_sigma2
            # one part at a time: an infinite offset times the cross term's 0 is NaN
            re, im = d.real, d.imag
            re *= weight
            im *= weight
        if out is None:
            return np.add.reduce(d).view(float).reshape(shape)
        # its (M, 1) complex view is the sum's shape; a view of another shape fails
        np.add.reduce(d, 0, None, out.view(complex))
        return out

    def _for_run(self, pts, steps) -> "PlanarHamiltonian":
        """This Hamiltonian for an ``advect`` run from the (M, 2) ``pts`` over
        the step lengths ``steps``: a copy that evaluates only (M, 2) points,
        and that skips the per-call 5 sigma check when no point the run
        evaluates can pass 5 sigma of any bump.

        Every stage point, midpoint iterate and step end lies within dt V of
        its step's start, so within T V of ``pts`` for T = sum(steps), up to
        the rounding of the steps' sums: at most eps |y| per coordinate and
        step.  The run is certified when, for every bump, the farthest point
        of ``pts`` plus T V plus that rounding is at most 5 sigma (1 - 1e-9);
        the relative 1e-9 covers the rounding of this test and of the exponent
        the per-call check compares.  That check would then take the Gaussian
        path at every call of the run, so the run's bits are the same; only a
        certified copy sets ``_inside_cutoff``.

        Certified or not, the copy holds the exponent scale and -A / sigma^2 as
        (B, M, 1) arrays, so that ``_exponents`` and ``gradient`` multiply
        arrays of one shape; the ``_term_arrays`` that ``_exponents`` writes
        into, so that a call allocates none of them; and the largest coordinate plus
        T V plus that rounding, with the same relative slack and at least 1,
        as its ``_coordinate_bound``: V bounds the gradient everywhere, so
        this bounds every run.
        """
        travel = sum(steps) * self._speed_bound
        largest = np.abs(pts).max() + travel
        rounding = 2.0 * (len(steps) + 1) * np.finfo(float).eps * largest
        reach = np.abs(_complex_points(pts) - self._zc).max(axis=(1, 2)) + (travel + rounding)
        run = copy.copy(self)
        # a NaN fails <=, so it keeps the check
        run._inside_cutoff = bool(np.all(reach <= self._cutoff_radius * (1.0 - 1e-9)))
        m = len(pts)
        run._exponent_scale = np.repeat(self._exponent_scale, m, axis=1)
        run._neg_amp_inv_sigma2 = np.repeat(self._neg_amp_inv_sigma2, m, axis=1)
        run._arrays = _term_arrays(len(self._bumps), m)
        run._coordinate_bound = max((largest + rounding) * (1.0 + 1e-9), 1.0)
        return run


def hamiltonian_vector_field(h, points) -> np.ndarray:
    """Symplectic gradient with the convention ``X_h = (dh/dy, -dh/dx)``:
    the quarter turn ``loops._perp`` of the gradient."""
    return _perp(h.gradient(points))


class _Work:
    """The field and the (M, 2) arrays of one ``advect`` run of the
    ``PlanarHamiltonian`` ``h``, allocated once, with the views of their
    parts, made once.

    ``field(points, out)`` is ``h.gradient``, which writes the gradient at the
    (M, 2) ``points`` into ``out`` and returns it, and ``coordinate_bound`` is
    ``h._coordinate_bound``.  ``grads`` holds five gradient slots: a step
    starts from the first, RK4 writes its stages 2-4 into the next three (the
    implicit midpoint its iterates' gradients into the second), and the field
    at the step's end goes into the last, which ``advect`` then moves to the
    front as the next step's start.  The other arrays are ``loops._columns`` triples,
    the form ``_turned`` reads: ``start`` is the run's start array ``pts``,
    ``stage`` holds a stage point or a scaled gradient, ``total`` a sum or a
    difference, ``estimate`` a step's e and ``end`` its end; the implicit
    midpoint keeps its first iterate in ``first`` and alternates the later
    ones between ``iterate`` and ``end``.
    """

    def __init__(self, h, pts):
        self.field = h.gradient
        self.coordinate_bound = h._coordinate_bound
        self.grads = [np.empty(pts.shape) for _ in range(5)]
        self.start = _columns(pts)
        self.stage, self.total, self.estimate, self.end, self.first, self.iterate = (
            _columns(np.empty(pts.shape)) for _ in range(6))


def _rk4_step(points, g1: FloatArray, dt: float, work: _Work):
    """One classical RK4 step of the (M, 2) points ``points`` from their gradient ``g1``.

    The step is carried on gradients: stage j's field is the quarter turn of
    its gradient gj, so each stage point is the turned update ``loops._turned``
    of the start, and the weighted sum of the four gradients is turned once at
    the end.  Negation and the quarter turn commute exactly with scaling and
    addition, so every bit is that of the same step on the fields.
    ``points`` is one of ``work``'s ``_columns`` triples, every array is one
    of ``work``'s, and ``g1`` none of its slots 2-4.
    Returns the end point, as the triple ``work.end``, and e = (dt / 6) g4, in
    ``work.estimate``'s array: with g5 the gradient at the end, max|e - (dt / 6) g5| is
    max|(dt / 6)(k4 - k5)|, the difference of the step from its embedded
    third-order solution, weights (1/6, 1/3, 1/3, 0, 1/6), since a quarter turn
    keeps every |component|.
    """
    field, stage, total = work.field, work.stage, work.total
    g2, g3, g4 = work.grads[1:4]
    # ``total`` holds each stage's scaled gradient until it holds the sum
    field(_turned(points, 0.5 * dt, g1, stage, total), g2)
    field(_turned(points, 0.5 * dt, g2, stage, total), g3)
    field(_turned(points, dt, g3, stage, total), g4)
    # g1 + 2 g2 + 2 g3 + g4, added left to right; 2 g3 in the spent stage point
    s, t = stage[0], total[0]
    np.add(g1, np.multiply(g2, 2.0, t), t)
    np.add(t, np.multiply(g3, 2.0, s), t)
    np.add(t, g4, t)
    _turned(points, dt / 6.0, t, work.end, stage)
    return work.end, np.multiply(g4, dt / 6.0, work.estimate[0])


def _midpoint_step(points, g1: FloatArray, dt: float, work: _Work):
    """Implicit midpoint step of the (M, 2) points ``points`` from their gradient
    ``g1``, solved by the fixed-point iteration z <- points + dt X((points + z) / 2)
    from the explicit Euler guess points + dt k1, every iterate a turned update.

    Each iteration evaluates the gradient once; the solve stops when an update
    is at most 1e-14 max(1, max|z|) for the iterate z, and raises
    StepRejected with the last update when it has not stopped after
    ``_MIDPOINT_ITERATIONS`` iterations.  max|z| is taken only when it can
    decide: a finite update comes from a finite iterate, so one of at most
    1e-14 stops, and one above 1e-14 ``work.coordinate_bound`` (a bound on
    max(1, max|z|) on a copy from ``_for_run``, else infinite) does not.
    ``points`` is one of ``work``'s ``_columns`` triples, every array is one
    of ``work``'s, and ``g1`` not its second slot.
    Returns the end point y1, as the triple ``work.end``, and e, in
    ``work.estimate``'s array: e is the inverse quarter turn of
    (2 y1 - z_1 - y0 - (dt / 2) k1) / 3, where z_1, the first iterate, is the
    explicit midpoint step.  With g5 the gradient at the end,
    max|e - (dt / 6) g5| is max|(2 y1 - z_1 - y0 - (dt / 2)(k1 + k5)) / 3|, a
    third of the differences of y1 from the explicit midpoint and from the
    trapezoid step, the leading term of the local error.  For u = 2 y1 - z_1 - y0
    and k1 the quarter turn of g1, that inverse quarter turn is the turned
    update -(dt / 2) g1 - perp(u), divided by 3: it differs from the inverse
    quarter turn of u - (dt / 2) k1 at most in the sign of a zero or a NaN
    part, which max|e - (dt / 6) g5| does not see.
    """
    field, stage, gradient = work.field, work.stage, work.grads[1]
    y0, s = points[0], stage[0]
    bound = 1e-14 * work.coordinate_bound
    # ``stage`` holds each turned update's scaled gradient, and spent values
    z = _turned(points, dt, g1, work.end, stage)
    for i in range(_MIDPOINT_ITERATIONS):
        # the next iterate goes into ``first``, then into ``end`` (the Euler
        # guess is spent by then) and ``iterate`` by turns
        np.multiply(np.add(y0, z, s), 0.5, s)
        target = work.first if i == 0 else (work.iterate, work.end)[i % 2]
        z_next = _turned(points, dt, field(s, gradient), target, stage)
        update = np.maximum.reduce(np.abs(np.subtract(z_next, z, s), s), axis=None)
        if update <= 1e-14 or (update <= bound and update <= 1e-14 * max(
                np.maximum.reduce(np.abs(z, s), axis=None), 1.0)):
            y1, u = work.end[0], work.total[0]
            if z_next is not y1:
                np.copyto(y1, z_next)
            np.subtract(np.subtract(np.multiply(y1, 2.0, u), work.first[0], u), y0, u)
            # -(dt / 2) g1 - perp(u), scaled through ``iterate``, which is spent
            np.multiply(g1, -0.5 * dt, s)
            e = _turned(stage, -1.0, u, work.estimate, work.iterate)
            return work.end, np.divide(e, 3.0, e)
        z = z_next
    raise StepRejected(
        f"implicit midpoint solve did not converge in {_MIDPOINT_ITERATIONS} "
        f"iterations; last update {update:.3e}")


_STEPPERS = {"rk4": _rk4_step, "implicit-midpoint": _midpoint_step}


@dataclass(frozen=True)
class FlowReport:
    """Conservation accounting for one advection run.

    All drifts are reported, never swallowed: relative area drift, relative
    profile drift and relative drift of the generating Hamiltonian's
    momentum.  The profile drift is zero by construction: the decoration is
    carried unchanged, and the evolved loop takes over the input loop's zero
    set and profile.
    """

    loop: DecoratedLoop
    area_drift: float
    profile_drift: float
    hamiltonian_drift: float
    steps: int
    max_local_error: float


def _step_schedule(duration: float, dt: float) -> list[float]:
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if duration < 0.0:
        raise ValueError("T must be nonnegative")
    if duration == 0.0:
        return []
    if dt > duration:
        raise ValueError("dt must not exceed T")
    n = int(np.floor(duration / dt + 1e-9))
    steps = [dt] * n
    rem = duration - n * dt
    if rem > 1e-12 * duration:
        steps.append(rem)
    return steps


def advect(loop: DecoratedLoop, h: PlanarHamiltonian, duration: float, dt: float,
           scheme: str = "rk4", *, observer=None) -> FlowReport:
    """Advect a decorated loop by the Hamiltonian flow of ``h``.

    ``h`` is a ``PlanarHamiltonian``, or a subclass, held to its bumps'
    bounds alike; anything else raises TypeError.  A run whose longest step
    dt has dt L above ``_STEP_LIMIT`` (2 sqrt 2), for L = sum |A| / sigma^2 >=
    sup |DX_h|, raises StepRejected before its first step: its first stage can
    carry points past the bumps, where the field and so the estimate below
    read 0.  So does a run whose L or V = sum |A| / sigma overflows.
    Each step is taken once, by the scheme's stepper, and carries an embedded
    "first same as last" error estimate max|e - (dt / 6) g5|: g5 is the
    gradient at the step's end, which the next step starts from, and e is the
    stepper's (``_rk4_step``, ``_midpoint_step``).  The steps are carried on
    gradients, whose quarter turns are the fields.  Every field evaluation and
    stage update writes into the run's arrays, ``_Work``, allocated once, and
    the run's copy of ``h`` from ``_for_run`` writes its gradient there
    itself.  A step is accepted only once g5 is known: an estimate above
    ``_ERROR_LIMIT`` (1e-3) or not finite (a NaN field at the end of the last
    step too) raises StepRejected.
    The evolving sample polyline is checked for self-intersection every
    ``_SIMPLE_STRIDE`` accepted steps and, through the evolved loop's own
    validation, after the last one; a failed check raises ValidationFailed
    naming the step.  The evolved loop keeps the input loop's zero set and
    profile, since the decoration is unchanged, so it keeps the Morse
    tolerance they were found with too; only the zero images are checked
    again, on the new curve.
    When given, ``observer(step_index, time, points)`` is called at step 0 and
    after every accepted step.
    """
    if not isinstance(h, PlanarHamiltonian):
        raise TypeError("h must be a PlanarHamiltonian")
    if scheme not in _STEPPERS:
        raise ValueError(f"unknown scheme {scheme!r}; pick one of {sorted(_STEPPERS)}")
    stepper = _STEPPERS[scheme]
    emb = loop.embedding
    form = loop.decoration
    area0 = enclosed_area(emb)
    momentum0 = momentum_map_eval(emb, h, form)
    omegas0 = loop.profile.omegas

    pts = emb.samples
    max_est = 0.0
    steps = _step_schedule(duration, dt)
    if steps:
        bound = h._jacobian_bound
        # finite terms whose sum is not: no step can be advised
        if not bound < np.inf:
            raise StepRejected("step condition: L = sum |A| / sigma^2, which bounds the "
                               "field's Jacobian, overflows")
        if not h._speed_bound < np.inf:
            raise StepRejected("step condition: V = sum |A| / sigma, which bounds the "
                               "field, overflows")
        if not max(steps) * bound <= _STEP_LIMIT:
            raise StepRejected(
                f"step condition: dt L = {max(steps) * bound:.3e} exceeds {_STEP_LIMIT:.4f}, "
                f"where L = sum |A| / sigma^2 = {bound:.3e} bounds the field's Jacobian; "
                f"take dt <= {_STEP_LIMIT / bound:.3e}")
    # decided once: a run that stays within 5 sigma of every bump skips the
    # per-call cutoff check, and every run has its own arrays.  ``pts`` is the
    # run's own copy of the samples, and its start array; from here on
    # ``points`` is the ``_columns`` triple of the current points
    work = _Work(h._for_run(pts, steps), pts)
    points, total = work.start, work.total[0]
    elapsed = 0.0
    if observer is not None:
        observer(0, 0.0, pts.copy())
    g = work.field(pts, work.grads[0])
    for i, step_dt in enumerate(steps):
        end, e = stepper(points, g, step_dt, work)
        g = work.field(end[0], work.grads[4])
        # max|e - (dt / 6) g5|
        gap = np.subtract(e, np.multiply(g, step_dt / 6.0, total), total)
        est = float(np.maximum.reduce(np.abs(gap, gap), axis=None))
        if not est <= _ERROR_LIMIT:
            raise StepRejected(
                f"step {i}: local error estimate {est:.3e} exceeds {_ERROR_LIMIT:g}")
        max_est = max(max_est, est)
        # the field at the end starts the next step, and the start's arrays are free
        work.grads.insert(0, work.grads.pop())
        points, work.end = end, points
        elapsed += step_dt
        done = i + 1
        if (done % _SIMPLE_STRIDE == 0 and done < len(steps)
                and not _polyline_is_simple(points[0])):
            raise ValidationFailed(f"evolved loop polyline self-intersects after {done} steps")
        if observer is not None:
            observer(done, elapsed, points[0].copy())
    pts = points[0]

    try:
        evolved = loop._with_embedding(LoopEmbedding(pts))
    except VortexLoopError as exc:
        raise ValidationFailed(
            f"evolved loop failed validation after {len(steps)} steps: {exc}") from exc

    inv = orbit_invariants(evolved)
    area_drift = abs(inv.area - area0) / abs(area0)
    profile_drift = float(np.max(np.abs(inv.omegas - omegas0))) / float(np.max(np.abs(omegas0)))
    momentum1 = momentum_map_eval(evolved.embedding, h, form)
    ham_drift = abs(momentum1 - momentum0) / max(1.0, abs(momentum0))
    return FlowReport(evolved, area_drift, profile_drift, ham_drift, len(steps), max_est)


def equivariance_residual(loop: DecoratedLoop, h_flow, h_test, duration: float,
                          dt: float) -> float:
    """Discrepancy between the two routes through the momentum identity.

    Route one advects the loop with the fixed-step RK4 integrator and pairs the
    result against the test Hamiltonian; route two advects the evaluation
    points with an independent high-order adaptive integrator.  The two agree
    exactly in the continuum, so the residual isolates integrator error.
    """
    from scipy.integrate import solve_ivp

    report = advect(loop, h_flow, duration, dt)
    route_a = momentum_map_eval(report.loop.embedding, h_test, loop.decoration)

    pts0 = loop.embedding.samples

    def rhs(_t, y):
        return hamiltonian_vector_field(h_flow, y.reshape(-1, 2)).ravel()

    if duration == 0.0:
        pts_ref = pts0
    else:
        sol = solve_ivp(rhs, (0.0, duration), pts0.ravel(), method="DOP853",
                        rtol=1e-12, atol=1e-13, dense_output=False)
        if not sol.success:
            raise ValidationFailed(f"reference flow integration failed: {sol.message}")
        pts_ref = sol.y[:, -1].reshape(-1, 2)

    return abs(route_a - _against(h_test(pts_ref), loop.decoration))

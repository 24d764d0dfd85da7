"""Hamiltonian advection of decorated loops with conservation reporting.

Hamiltonians are sums of Gaussian bumps cut off smoothly at six standard
deviations, so every generated vector field is compactly supported and points
outside the support are fixed exactly.  The decoration is transported
unchanged: advection only moves the embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle_forms import FloatArray
from .errors import StepRejected, ValidationFailed, VortexLoopError
from .loops import DecoratedLoop, LoopEmbedding, _perp, enclosed_area, orbit_invariants
from .symplectic import _against, momentum_map_eval

DEFAULT_ERROR_LIMIT = 1e-3
_CUTOFF_START = 5.0
_CUTOFF_END = 6.0
_MIDPOINT_ITERATIONS = 60


@dataclass(frozen=True)
class PlanarBump:
    center: tuple[float, float]
    sigma: float
    amplitude: float

    def __post_init__(self):
        if not 0.0 < self.sigma < np.inf:
            raise ValueError("bump width must be positive and finite")
        if not abs(self.amplitude) < np.inf:
            raise ValueError("bump amplitude must be finite")


class PlanarHamiltonian:
    """Sum of Gaussian bumps, each blended to zero between 5 and 6 sigma.

    The blend is a quintic smoothstep, so the Hamiltonian is C^2 at the
    cutoff and exactly zero (value and gradient) beyond it.  The bumps are
    also held as arrays, so one pass evaluates every bump at every point.
    """

    def __init__(self, bumps):
        self._bumps = tuple(bumps)
        # bump axis first: centres of shape (2, B, 1), widths and amplitudes (B, 1)
        centers = np.array([b.center for b in self._bumps], dtype=float).reshape(-1, 2)
        self._centers = centers.T[:, :, None]
        self._sigmas = np.array([b.sigma for b in self._bumps], dtype=float)[:, None]
        self._amplitudes = np.array([b.amplitude for b in self._bumps], dtype=float)[:, None]

    @property
    def bumps(self) -> tuple[PlanarBump, ...]:
        return self._bumps

    @classmethod
    def single(cls, center, sigma: float, amplitude: float) -> "PlanarHamiltonian":
        return cls([PlanarBump((float(center[0]), float(center[1])), float(sigma), float(amplitude))])

    def _terms(self, pts):
        """Offsets, r/sigma, Gaussian core, blend and its slope in r/sigma.

        The M points of ``pts`` (shape (..., 2)) and the B bumps give offsets
        of shape (2, B, M) and the other four of shape (B, M).
        """
        d = np.ascontiguousarray(pts.reshape(-1, 2).T)[:, None, :] - self._centers
        rho = np.sqrt(d[0] * d[0] + d[1] * d[1]) / self._sigmas
        core = self._amplitudes * np.exp(-0.5 * rho * rho)
        width = _CUTOFF_END - _CUTOFF_START
        s = np.clip((rho - _CUTOFF_START) / width, 0.0, 1.0)
        blend = 1.0 - s * s * s * (10.0 - 15.0 * s + 6.0 * s * s)
        slope = -30.0 * s * s * (1.0 - s) * (1.0 - s) / width
        return d, rho, core, blend, slope

    def __call__(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        _, _, core, blend, _ = self._terms(pts)
        return np.sum(core * blend, axis=0).reshape(pts.shape[:-1])

    def gradient(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        d, rho, core, blend, slope = self._terms(pts)
        # grad = core (slope / rho - blend) d / sigma^2; the slope is 0 below
        # 5 sigma, so the guarded rho keeps the bump centre finite
        coef = core * (slope / np.maximum(rho, _CUTOFF_START) - blend) / self._sigmas**2
        return np.sum(coef * d, axis=1).T.reshape(pts.shape)

    def support_mask(self, points) -> np.ndarray:
        """True for points inside the union of cutoff discs."""
        pts = np.asarray(points, dtype=float)
        return np.any(self._terms(pts)[1] < _CUTOFF_END, axis=0).reshape(pts.shape[:-1])


def hamiltonian_vector_field(h, points) -> np.ndarray:
    """Symplectic gradient with the convention ``X_h = (dh/dy, -dh/dx)``."""
    return _perp(np.asarray(h.gradient(points), dtype=float))


def _rk4_step(points: FloatArray, dt: float, h) -> FloatArray:
    k1 = hamiltonian_vector_field(h, points)
    k2 = hamiltonian_vector_field(h, points + 0.5 * dt * k1)
    k3 = hamiltonian_vector_field(h, points + 0.5 * dt * k2)
    k4 = hamiltonian_vector_field(h, points + dt * k3)
    return points + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _midpoint_step(points: FloatArray, dt: float, h) -> FloatArray:
    """Implicit midpoint step, solved by fixed-point iteration.

    Raises StepRejected when the iteration has not converged after
    ``_MIDPOINT_ITERATIONS`` updates.
    """
    z = points + dt * hamiltonian_vector_field(h, points)
    for _ in range(_MIDPOINT_ITERATIONS):
        z_next = points + dt * hamiltonian_vector_field(h, 0.5 * (points + z))
        update = float(np.max(np.abs(z_next - z)))
        if update <= 1e-14 * max(1.0, float(np.max(np.abs(z)))):
            return z_next
        z = z_next
    raise StepRejected(
        f"implicit midpoint solve did not converge in {_MIDPOINT_ITERATIONS} "
        f"iterations; last update {update:.3e}")


_STEPPERS = {"rk4": _rk4_step, "implicit-midpoint": _midpoint_step}


@dataclass(frozen=True)
class FlowReport:
    """Conservation accounting for one advection run.

    All drifts are reported, never swallowed: relative area drift, relative
    profile drift (structurally zero since the decoration is carried
    unchanged) and relative drift of the generating Hamiltonian's momentum.
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


def advect(loop: DecoratedLoop, h, duration: float, dt: float,
           scheme: str = "rk4", *, error_limit: float = DEFAULT_ERROR_LIMIT,
           observer=None) -> FlowReport:
    """Advect a decorated loop by the Hamiltonian flow of ``h``.

    Every step carries a step-doubling local error estimate; a step whose
    estimate exceeds ``error_limit`` or is not finite raises StepRejected.
    The evolved sample polyline is re-validated, raising ValidationFailed if
    it self-intersects.
    When given, ``observer(step_index, time, points)`` is called at step 0 and
    after every accepted step.
    """
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
    elapsed = 0.0
    if observer is not None:
        observer(0, 0.0, pts.copy())
    for i, step_dt in enumerate(steps):
        full = stepper(pts, step_dt, h)
        half = stepper(stepper(pts, 0.5 * step_dt, h), 0.5 * step_dt, h)
        est = float(np.max(np.abs(full - half)))
        max_est = max(max_est, est)
        if not est <= error_limit:
            raise StepRejected(
                f"step {i}: local error estimate {est:.3e} exceeds {error_limit:g}")
        pts = full
        elapsed += step_dt
        if observer is not None:
            observer(i + 1, elapsed, pts.copy())

    try:
        evolved = DecoratedLoop(LoopEmbedding(pts), form)
    except VortexLoopError as exc:
        raise ValidationFailed(f"evolved loop failed validation: {exc}") from exc

    inv = orbit_invariants(evolved)
    area_drift = abs(inv.area - area0) / abs(area0)
    profile_drift = float(np.max(np.abs(inv.omegas - omegas0))) / float(np.max(np.abs(omegas0)))
    momentum1 = momentum_map_eval(evolved.embedding, h, form)
    ham_drift = abs(momentum1 - momentum0) / max(1.0, abs(momentum0))
    return FlowReport(evolved, area_drift, profile_drift, ham_drift, len(steps), max_est)


def equivariance_residual(loop: DecoratedLoop, h_flow, h_test, duration: float,
                          dt: float, scheme: str = "rk4") -> float:
    """Discrepancy between the two routes through the momentum identity.

    Route one advects the loop with the fixed-step integrator and pairs the
    result against the test Hamiltonian; route two advects the evaluation
    points with an independent high-order adaptive integrator.  The two agree
    exactly in the continuum, so the residual isolates integrator error.
    """
    from scipy.integrate import solve_ivp

    report = advect(loop, h_flow, duration, dt, scheme)
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

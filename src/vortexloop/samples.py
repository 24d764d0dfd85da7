"""Deterministic fixtures and seeded generators for tests and verify suites.

Everything here is reproducible: generators take a numpy Generator and never
touch global random state.  The analytic fixtures carry their exact invariants
in closed form so downstream checks can pin expected values.
"""

from __future__ import annotations

import numpy as np

from .circle_forms import CircleForm, find_zeros, partial_vorticities
from .errors import VortexLoopError
from .flow import PlanarBump, PlanarHamiltonian
from .loops import DecoratedLoop, LoopEmbedding
from .quadrature import TWO_PI, uniform_grid


def standard_form(name: str) -> CircleForm:
    """Named analytic densities used across the test corpus."""
    if name == "sin2t":
        return CircleForm.trig(sin=(0.0, 1.0))
    if name == "sin3t":
        return CircleForm.trig(sin=(0.0, 0.0, 1.0))
    if name == "mixed":
        # sin 2t + 0.3 cos t: four zeros, all four partial vorticities distinct
        return CircleForm.trig(cos=(0.3,), sin=(0.0, 1.0))
    if name == "volume":
        return CircleForm.trig(a0=1.0)
    raise ValueError(f"unknown standard form {name!r}")


def symmetric_form() -> CircleForm:
    """Morse density with exact two-step symmetry but no rigid symmetry.

    beta(t) = (1 + 0.2 sin 2t + 0.05 (3 sin t - 5 sin 3t)) sin 2t.  The
    amplitude stays within 0.2 + 8 * 0.05 < 1 of 1, so the zeros stay at the
    sin 2t zeros, the profile is exactly (1 + 0.2 pi/4, -(1 - 0.2 pi/4),
    1 + 0.2 pi/4, -(1 - 0.2 pi/4)) (``symmetric_form_profile``), and no rigid
    rotation preserves the density, so the stabilizer generator is a
    genuinely nonlinear circle map.
    """

    def fn(t):
        amp = 1.0 + 0.2 * np.sin(2.0 * t) + 0.05 * (3.0 * np.sin(t) - 5.0 * np.sin(3.0 * t))
        return amp * np.sin(2.0 * t)

    return CircleForm.from_function(fn, degree=5)


def symmetric_form_profile() -> np.ndarray:
    """The exact partial vorticities of ``symmetric_form``."""
    hi = 1.0 + 0.2 * np.pi / 4.0
    lo = -(1.0 - 0.2 * np.pi / 4.0)
    return np.array([hi, lo, hi, lo])


def random_morse_form(rng: np.random.Generator, max_degree: int = 3,
                      min_zeros: int = 2) -> CircleForm:
    """Random low-degree trig density with verified Morse zero structure."""
    for _ in range(200):
        a0 = 0.3 * rng.standard_normal()
        cos = 0.8 * rng.standard_normal(max_degree)
        sin = 0.8 * rng.standard_normal(max_degree)
        form = CircleForm.trig(a0=a0, cos=tuple(cos), sin=tuple(sin))
        try:
            zs = find_zeros(form)
            prof = partial_vorticities(form, zs)
        except VortexLoopError:
            continue
        if prof.k >= min_zeros:
            return form
    raise RuntimeError("failed to draw a Morse density; generator misconfigured")


def random_loop(rng: np.random.Generator, n: int = 256) -> LoopEmbedding:
    """Random star-shaped analytic curve, positively oriented and simple."""
    base = rng.uniform(0.8, 1.4)
    center = rng.uniform(-0.5, 0.5, size=2)
    degree = 4
    amps = rng.uniform(-1.0, 1.0, size=2 * degree)
    budget = 0.35 * rng.uniform(0.4, 1.0)
    total = np.sum(np.abs(amps))
    if total > 0.0:
        amps *= budget / total
    t = uniform_grid(n)
    r = np.ones(n)
    for j in range(degree):
        r += amps[2 * j] * np.cos((j + 1) * t) + amps[2 * j + 1] * np.sin((j + 1) * t)
    r *= base
    pts = center + np.column_stack([r * np.cos(t), r * np.sin(t)])
    return LoopEmbedding(pts)


def random_decorated_loop(rng: np.random.Generator, n: int = 256) -> DecoratedLoop:
    return DecoratedLoop(random_loop(rng, n), random_morse_form(rng))


def random_hamiltonian(rng: np.random.Generator, bbox) -> PlanarHamiltonian:
    """Random two-bump Hamiltonian, amplitudes at most 0.3, whose support covers the given box."""
    (xlo, xhi), (ylo, yhi) = bbox
    bumps = []
    for _ in range(2):
        cx = rng.uniform(xlo, xhi)
        cy = rng.uniform(ylo, yhi)
        sigma = rng.uniform(0.6, 1.2)
        amp = rng.uniform(0.3, 1.0) * 0.3 * rng.choice([-1.0, 1.0])
        bumps.append(PlanarBump((cx, cy), sigma, amp))
    return PlanarHamiltonian(bumps)


def loop_bbox(*loops):
    """Bounding box of the loops' samples, widened by 0.5 on every side."""
    pts = np.vstack([lp.samples for lp in loops])
    return ((float(pts[:, 0].min() - 0.5), float(pts[:, 0].max() + 0.5)),
            (float(pts[:, 1].min() - 0.5), float(pts[:, 1].max() + 0.5)))


class AnalyticDiffeo:
    """Circle diffeomorphism t + c + sum_j (a_j cos jt + b_j sin jt).

    Exact evaluation, derivative, and Newton inverse; used as ground truth
    when checking reconstructed reparametrizations.  The displacement slope
    must stay below 1 so the map is strictly monotone.
    """

    def __init__(self, offset: float, cos_coeffs=(), sin_coeffs=()):
        self._offset = float(offset)
        self._cos = np.asarray(cos_coeffs, dtype=float)
        self._sin = np.asarray(sin_coeffs, dtype=float)
        j_cos = np.arange(1, self._cos.size + 1)
        j_sin = np.arange(1, self._sin.size + 1)
        slope = np.sum(j_cos * np.abs(self._cos)) + np.sum(j_sin * np.abs(self._sin))
        if slope >= 1.0:
            raise ValueError("displacement slope must be below 1")
        self._slope = float(slope)

    def _displacement(self, t):
        out = np.zeros_like(np.asarray(t, dtype=float))
        for j, a in enumerate(self._cos, start=1):
            out += a * np.cos(j * t)
        for j, b in enumerate(self._sin, start=1):
            out += b * np.sin(j * t)
        return out

    def _displacement_derivative(self, t):
        out = np.zeros_like(np.asarray(t, dtype=float))
        for j, a in enumerate(self._cos, start=1):
            out -= a * j * np.sin(j * t)
        for j, b in enumerate(self._sin, start=1):
            out += b * j * np.cos(j * t)
        return out

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return t + self._offset + self._displacement(t)

    def derivative(self, t):
        return 1.0 + self._displacement_derivative(np.asarray(t, dtype=float))

    def inverse_eval(self, s):
        """Newton inverse; raises VortexLoopError if 60 steps do not converge."""
        s = np.asarray(s, dtype=float)
        tol = 1e-14 * np.maximum(1.0, np.abs(s))
        t = s - self._offset
        for _ in range(60):
            resid = self(t) - s
            t = t - resid / self.derivative(t)
            if np.all(np.abs(resid) <= tol):
                return t
        raise VortexLoopError("AnalyticDiffeo.inverse_eval: Newton did not converge in 60 steps")


def random_monotone_diffeo(rng: np.random.Generator) -> AnalyticDiffeo:
    """Random rotation plus three harmonics, with displacement slope at most 0.6."""
    cos = rng.uniform(-1.0, 1.0, size=3)
    sin = rng.uniform(-1.0, 1.0, size=3)
    j = np.arange(1, 4)
    slope = np.sum(j * (np.abs(cos) + np.abs(sin)))
    target = 0.6 * rng.uniform(0.3, 1.0)
    cos *= target / slope
    sin *= target / slope
    return AnalyticDiffeo(rng.uniform(0.0, TWO_PI), cos, sin)


def pullback_through(diffeo, form: CircleForm) -> CircleForm:
    """Analytic pullback (form o diffeo) * diffeo' as a fresh trig density."""

    def fn(t):
        return form(diffeo(t)) * diffeo.derivative(t)

    return CircleForm.from_function(fn)

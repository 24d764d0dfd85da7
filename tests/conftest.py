"""Shared oracles for the test suite.

Everything here recomputes expected values by routes independent of the
package internals: dense scanning plus brentq for zeros, QUADPACK for
integrals, analytic derivatives for areas, plain loops for cyclic
matching, an all-pairs crossing test for polyline simplicity, and a loop
over the bumps of a bump Hamiltonian for its value and gradient.
"""

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

TWO_PI = 2.0 * np.pi


def oracle_zeros(f, n=16384):
    """Zeros of a periodic callable via dense sign scan plus brentq."""
    t = np.linspace(0.0, TWO_PI, n, endpoint=False)
    vals = f(t)
    out = []
    for i in range(n):
        a, b = t[i], t[i] + TWO_PI / n
        fa, fb = vals[i], vals[(i + 1) % n]
        if fa == 0.0:
            out.append(a)
        elif fa * fb < 0.0:
            out.append(brentq(f, a, b, xtol=1e-15, rtol=8.9e-16))
    return np.array(sorted(np.mod(out, TWO_PI)))


def oracle_integral(f, a, b, knots=()):
    """QUADPACK integral of ``f`` over [a, b], one call per interval between
    the ``knots`` inside it, so a piecewise-smooth integrand such as a spline
    is smooth on every call."""
    edges = [a, *(k for k in np.sort(knots) if a < k < b), b]
    return sum(quad(f, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=400)[0]
               for lo, hi in zip(edges[:-1], edges[1:]))


def oracle_profile(f, zeros):
    """Partial vorticities by QUADPACK between consecutive oracle zeros."""
    ext = np.append(zeros, zeros[0] + TWO_PI)
    return np.array([oracle_integral(f, ext[i], ext[i + 1]) for i in range(len(zeros))])


def brute_polyline_is_simple(samples):
    """Every segment of the closed polyline against every other: no proper crossing."""
    n = samples.shape[0]
    a = samples
    b = np.roll(samples, -1, axis=0)
    d = b - a

    def cross(u, v):
        return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]

    idx = np.arange(n)
    for start in range(0, n, 128):
        rows = idx[start:start + 128]
        ar = a[rows][:, None, :]
        dr = d[rows][:, None, :]
        o1 = cross(dr, a[None, :, :] - ar)
        o2 = cross(dr, b[None, :, :] - ar)
        o3 = cross(d[None, :, :], ar - a[None, :, :])
        o4 = cross(d[None, :, :], (ar + dr) - a[None, :, :])
        proper = (o1 * o2 < 0.0) & (o3 * o4 < 0.0)
        gap = (rows[:, None] - idx[None, :]) % n
        proper &= (gap > 1) & (gap < n - 1)
        if np.any(proper):
            return False
    return True


def _bump_blend(s):
    """Quintic smoothstep from 1 down to 0 on [0, 1], and its slope."""
    s = np.clip(s, 0.0, 1.0)
    w = 1.0 - s * s * s * (10.0 - 15.0 * s + 6.0 * s * s)
    dw = -30.0 * s * s * (1.0 - s) * (1.0 - s)
    return w, dw


def brute_bump_value(h, points):
    """Sum over h.bumps, one bump at a time, of the Gaussian blended out between 5 and 6 sigma."""
    pts = np.asarray(points, dtype=float)
    out = np.zeros(pts.shape[:-1])
    for bump in h.bumps:
        d = pts - np.asarray(bump.center)
        r = np.hypot(d[..., 0], d[..., 1])
        core = bump.amplitude * np.exp(-0.5 * (r / bump.sigma) ** 2)
        w, _ = _bump_blend(r / bump.sigma - 5.0)
        out += core * w
    return out


def brute_bump_gradient(h, points):
    """Gradient of brute_bump_value, one bump at a time."""
    pts = np.asarray(points, dtype=float)
    out = np.zeros_like(pts)
    for bump in h.bumps:
        d = pts - np.asarray(bump.center)
        r = np.hypot(d[..., 0], d[..., 1])
        core = bump.amplitude * np.exp(-0.5 * (r / bump.sigma) ** 2)
        w, dw = _bump_blend(r / bump.sigma - 5.0)
        dw /= bump.sigma
        # core' along r is -core*r/sigma^2; the dw term only acts where r >= 5 sigma
        radial = -core * w / bump.sigma**2
        out += radial[..., None] * d
        active = dw != 0.0
        if np.any(active):
            safe_r = np.where(r > 0.0, r, 1.0)
            out += ((core * dw / safe_r)[..., None] * d) * active[..., None]
    return out


def brute_circular_match(p, q, rel_tol=1e-9):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.size != q.size:
        return []
    tol = rel_tol * np.max(np.abs(p))
    hits = []
    for j in range(p.size):
        if all(abs(p[i] - q[(i + j) % p.size]) <= tol for i in range(p.size)):
            hits.append(j)
    return hits


def brute_symmetry_step(omegas, rel_tol=1e-9):
    """Smallest even divisor l of k among the profile's matching shifts with itself, else k."""
    k = len(omegas)
    steps = [j for j in brute_circular_match(omegas, omegas, rel_tol)
             if j > 0 and j % 2 == 0 and k % j == 0]
    return min(steps, default=k)


class StarCurve:
    """Analytic star-shaped curve with exact derivatives.

    radius(t) = base + sum_j a_j cos((j+1)t) + b_j sin((j+1)t), offset by a
    fixed center.  Exposes the map and its parameter derivative so tests can
    compute areas spectrally without touching package quadrature.
    """

    def __init__(self, rng, harmonics=4, budget=0.3):
        self.base = rng.uniform(0.9, 1.3)
        self.center = rng.uniform(-0.4, 0.4, size=2)
        coefs = rng.uniform(-1.0, 1.0, size=2 * harmonics)
        scale = budget * rng.uniform(0.4, 1.0)
        self.coefs = coefs * scale / max(np.sum(np.abs(coefs)), 1e-12)
        self.harmonics = harmonics

    def radius(self, t):
        r = np.full_like(np.asarray(t, dtype=float), self.base)
        for j in range(self.harmonics):
            r = r + self.coefs[2 * j] * np.cos((j + 1) * t)
            r = r + self.coefs[2 * j + 1] * np.sin((j + 1) * t)
        return r

    def radius_prime(self, t):
        r = np.zeros_like(np.asarray(t, dtype=float))
        for j in range(self.harmonics):
            r = r - (j + 1) * self.coefs[2 * j] * np.sin((j + 1) * t)
            r = r + (j + 1) * self.coefs[2 * j + 1] * np.cos((j + 1) * t)
        return r

    def __call__(self, t):
        r = self.radius(t)
        return np.stack([self.center[0] + r * np.cos(t),
                         self.center[1] + r * np.sin(t)], axis=-1)

    def area(self, n=1 << 16):
        # trapezoid rule on a smooth periodic integrand is spectrally exact
        t = np.linspace(0.0, TWO_PI, n, endpoint=False)
        r = self.radius(t)
        rp = self.radius_prime(t)
        x = self.center[0] + r * np.cos(t)
        y = self.center[1] + r * np.sin(t)
        dx = rp * np.cos(t) - r * np.sin(t)
        dy = rp * np.sin(t) + r * np.cos(t)
        return float(np.sum(x * dy - y * dx) * 0.5 * (TWO_PI / n))


def fd_gradient(h, p, step=1e-6):
    p = np.asarray(p, dtype=float)
    out = np.empty(2)
    for i in range(2):
        e = np.zeros(2)
        e[i] = step
        out[i] = (h((p + e)[None, :])[0] - h((p - e)[None, :])[0]) / (2 * step)
    return out

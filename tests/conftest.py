"""Shared oracles for the test suite.

Everything here recomputes expected values by routes independent of the
package internals: dense scanning plus brentq for zeros, QUADPACK for
integrals, analytic derivatives for areas, plain loops for cyclic
matching, an all-pairs distance table for the zero-image check, an
all-pairs crossing test for polyline simplicity, a loop over
the bumps of a bump Hamiltonian for its value and gradient, the bump
kernel in its dense form, which evaluates the blend at every pair, the
RK4 and implicit-midpoint steps in plain real arithmetic on that kernel,
the spline area by a Gauss rule on every cell of the spline, and the trig
grid evaluator in its plain form, which pads, folds and indexes the whole
coefficient vector, the power sum of a trig series on the complex
exponential e^{it}, the inverse Hermite start with both of its fallbacks
formed at every cell, and the flow emitters' formatting one number at a time.
Two
fixtures that only tests use live here too: a density with a nearly
degenerate zero and a dictionary of single-bump Hamiltonians.
"""

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from vortexloop.circle_forms import _HORNER_MIN_POINTS, CircleForm
from vortexloop.errors import StepRejected
from vortexloop.flow import PlanarHamiltonian
from vortexloop.loops import _spline_area
from vortexloop.quadrature import periodic_spline
from vortexloop.render import _BLOCK_POINTS
from vortexloop.symplectic import _against

TWO_PI = 2.0 * np.pi
_GAUSS3_NODES, _GAUSS3_WEIGHTS = np.polynomial.legendre.leggauss(3)


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


def reference_gauss_area(samples):
    """Signed area inside the periodic cubic spline through closed 2-d samples
    of shape (N, 2), by a 3-point Gauss rule on each cell.

    On each cell of the spline ``x y' - y x'`` is a quintic, so the rule is
    exact there; the spline is evaluated through ``PeriodicCubic`` and the
    spectrum of the samples is never formed.
    """
    spline = periodic_spline(samples)
    half = np.pi / spline.knots.size
    t = (spline.knots + half)[:, None] + half * _GAUSS3_NODES
    p = spline(t)
    d = spline(t, 1)
    terms = (p[..., 0] * d[..., 1] - p[..., 1] * d[..., 0]) * _GAUSS3_WEIGHTS
    return float(0.5 * half * terms.sum())


def oracle_profile(f, zeros):
    """Partial vorticities by QUADPACK between consecutive oracle zeros."""
    ext = np.append(zeros, zeros[0] + TWO_PI)
    return np.array([oracle_integral(f, ext[i], ext[i + 1]) for i in range(len(zeros))])


def reference_trig_grid(form, n, order=0):
    """A trig form's density (``order=0``) or derivative (``order=1``) at
    ``uniform_grid(n)``: the coefficients padded to a multiple of n, folded by
    ``j mod n`` and mirrored by index arrays, then one inverse real FFT.
    ``CircleForm._on_uniform_grid`` must give these bits."""
    a0, cos_c, sin_c = form.trig_coefficients
    c = np.zeros(max(cos_c.size, sin_c.size), dtype=complex)
    c.real[:cos_c.size] = cos_c
    c.imag[:sin_c.size] = -sin_c
    coeffs = np.concatenate(([a0], c) if order == 0
                            else ([0.0], 1j * np.arange(1, c.size + 1) * c))
    bins = np.pad(coeffs, (0, -coeffs.size % n)).reshape(-1, n).sum(axis=0)
    half = np.arange(n // 2 + 1)
    spectrum = 0.5 * (bins[half] + np.conj(bins[-half % n]))
    return np.fft.irfft(spectrum, n, norm="forward")


def reference_power_sum(coeffs, t, tails=None):
    """``circle_forms._power_sum`` with its unit phase as ``np.exp(1j * t)``:
    a power matrix below ``_HORNER_MIN_POINTS`` points, else Horner's rule,
    on ``(z - 1) sum_k tails_k z**k`` when ``tails`` are given."""
    z = np.exp(1j * t)
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
    sin_half = np.sin(0.5 * t)
    return -2.0 * sin_half * sin_half * acc.real - z.imag * acc.imag


def reference_inverse_hermite(y, y0, y1, t0, t1, d0, d1):
    """``circle_forms._inverse_hermite`` with its square-root and linear
    fallbacks formed at every cell, then chosen cell by cell: the cubic
    Hermite start of the inverse where it lies in its cell, else the
    square-root form where that does, else the linear interpolant."""
    dy, dt = y1 - y0, t1 - t0
    u = np.clip(np.divide(y - y0, dy, out=np.full_like(dy, 0.5), where=dy > 0.0), 0.0, 1.0)
    linear = t0 + u * dt
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a, b = dy / d0 - dt, dy / d1 - dt
        cubic = linear + u * (1.0 - u) * (a * (1.0 - u) - b * u)
        flat0 = d0 < d1
        root = np.sqrt(np.where(flat0, u, 1.0 - u))
        p = 2.0 * dy / (np.where(flat0, d1, d0) * dt)
        reach = dt * (root + (p - 1.0) * (root * root - root))
        sqrt_form = np.where(flat0, t0 + reach, t1 - reach)
    inside = lambda start: (start >= t0) & (start <= t1)
    return np.where(inside(cubic), cubic,
                    np.where(inside(sqrt_form), sqrt_form, linear))


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


class DenseBumpField:
    """Reference bump field that evaluates the blend and its slope at every
    (bump, point) pair, also where every point lies within 5 sigma and the
    blend is 1: the one-pass kernel as it stood before it learned to skip
    the blend there.  Its value and gradient are the ones the package must
    reproduce bit for bit."""

    def __init__(self, bumps):
        centers = np.array([b.center for b in bumps], dtype=float).reshape(-1, 2)
        self._centers = centers.T[:, :, None]
        sigmas = np.array([b.sigma for b in bumps], dtype=float)[:, None]
        self._amplitudes = np.array([b.amplitude for b in bumps], dtype=float)[:, None]
        self._inv_sigma2 = 1.0 / sigmas**2
        self._amp_inv_sigma2 = self._amplitudes * self._inv_sigma2

    def _terms(self, pts):
        d = np.ascontiguousarray(pts.reshape(-1, 2).T)[:, None, :] - self._centers
        rho2 = d[0] * d[0]
        rho2 += d[1] * d[1]
        rho2 *= self._inv_sigma2
        rho = np.sqrt(rho2)
        gauss = np.exp(np.multiply(rho2, -0.5, out=rho2), out=rho2)
        s = rho - 5.0
        np.minimum(np.maximum(s, 0.0, out=s), 1.0, out=s)
        s2 = s * s
        slope = s * -30.0
        slope += 60.0
        slope *= s
        slope -= 30.0
        slope *= s2
        blend = s * -6.0
        blend += 15.0
        blend *= s
        blend -= 10.0
        blend *= s2
        blend *= s
        blend += 1.0
        return d, rho, gauss, blend, slope

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        _, _, gauss, blend, _ = self._terms(pts)
        blend *= gauss
        blend *= self._amplitudes
        return blend.sum(axis=0).reshape(pts.shape[:-1])

    def gradient(self, points):
        pts = np.asarray(points, dtype=float)
        d, rho, gauss, blend, slope = self._terms(pts)
        slope /= np.maximum(rho, 5.0, out=rho)
        slope -= blend
        slope *= gauss
        slope *= self._amp_inv_sigma2
        grad = (d * slope).sum(axis=1)
        return grad.T.reshape(pts.shape)

    def vector_field(self, points):
        """The quarter turn (dh/dy, -dh/dx) of the gradient, as a product with (1, -1)."""
        return self.gradient(points)[..., ::-1] * np.array([1.0, -1.0])


def reference_rk4_step(points, dt, field):
    """One RK4 step in real arithmetic, every stage a fresh array, kept apart
    from the package's ``flow._rk4_step``.  Returns the end and (dt / 6) k4,
    the part of the embedded third-order estimate that is not the field at
    the end."""
    k1 = field(points)
    k2 = field(points + 0.5 * dt * k1)
    k3 = field(points + 0.5 * dt * k2)
    k4 = field(points + dt * k3)
    return points + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), (dt / 6.0) * k4


def reference_midpoint_step(points, dt, field, iterations=60):
    """One implicit midpoint step by fixed-point iteration from the Euler guess,
    in real arithmetic.  Returns the end y1 and (2 y1 - z1 - y0 - (dt / 2) k1) / 3,
    with z1 the first iterate (the explicit midpoint step) and k1 the field at
    the start: the part of the estimate that is not the field at the end."""
    k1 = field(points)
    z = points + dt * k1
    explicit = None
    for _ in range(iterations):
        z_next = points + dt * field(0.5 * (points + z))
        if explicit is None:
            explicit = z_next
        update = np.max(np.abs(z_next - z))
        if update <= 1e-14 * np.maximum(1.0, np.max(np.abs(z))):
            return z_next, (2.0 * z_next - explicit - points - 0.5 * dt * k1) / 3.0
        z = z_next
    raise StepRejected(f"implicit midpoint solve did not converge in {iterations} "
                       f"iterations; last update {update:.3e}")


def reference_advect(points, field, steps, stepper, snapshots=None):
    """The step loop of advect, one step after the other: the estimate of a
    step is max|e - (dt / 6) X(y1)|, from the stepper's e and the field at the
    step's end y1, and a step whose estimate exceeds advect's default limit
    1e-3 or is not finite raises StepRejected.  Appends the points after every
    step (the start first) to ``snapshots``, so a caller sees those before a
    failure too, and returns them with the largest estimate."""
    error_limit = 1e-3
    snapshots = [] if snapshots is None else snapshots
    snapshots.append(points.copy())
    max_est = 0.0
    for i, dt in enumerate(steps):
        end, e = stepper(points, dt, field)
        est = float(np.max(np.abs(e - (dt / 6.0) * field(end))))
        if not est <= error_limit:
            raise StepRejected(f"step {i}: local error estimate {est:.3e} exceeds {error_limit:g}")
        max_est = max(max_est, est)
        points = end
        snapshots.append(points.copy())
    return snapshots, max_est


def _reference_fmt(x):
    return format(float(x), ".6g")


def reference_polyline(points, style):
    """``render._polyline`` with one ``format`` per coordinate."""
    closed = np.vstack([points, points[:1]])
    coords = " ".join(f"{_reference_fmt(x)},{_reference_fmt(y)}" for x, y in closed)
    return f'<polyline points="{coords}" {style} />'


def reference_markers(points, color):
    """``render._markers`` with one ``format`` per coordinate."""
    return "".join(
        f'<circle cx="{_reference_fmt(x)}" cy="{_reference_fmt(y)}" r="4" fill="{color}" '
        'stroke="white" />'
        for x, y in points)


def reference_flow_csv(loop, h, snapshots):
    """``render.flow_csv`` with every cell of every row formatted on its own."""
    omegas = loop.profile.omegas
    header = "step,t,area,momentum," + ",".join(f"omega_{i+1}" for i in range(omegas.size))
    rows = [header]
    momenta, areas = [], []
    per_block = max(1, _BLOCK_POINTS // loop.embedding.size)
    for lo in range(0, len(snapshots), per_block):
        block = np.stack([pts for _, _, pts in snapshots[lo:lo + per_block]])
        momenta.extend(_against(h(block), loop.decoration).tolist())
        areas.extend(_spline_area(block).tolist())
    for (step, t, _), momentum, area in zip(snapshots, momenta, areas):
        cells = [str(step), format(t, ".12g"), format(area, ".15g"), format(momentum, ".15g")]
        cells.extend(format(w, ".15g") for w in omegas)
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


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


def brute_zero_images_coincide(embedding, zs):
    """The zero-image check as an all-pairs distance table: whether two zeros
    land within 1e-9 of the curve's diameter of each other on the curve."""
    pts = embedding.eval(zs.zeros)
    samples = embedding._samples
    diam = max(float(np.ptp(samples[:, 0])), float(np.ptp(samples[:, 1])))
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    np.fill_diagonal(dist, np.inf)
    return bool(np.min(dist) <= 1e-9 * diam)


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


def near_degenerate_form(flatness=1e-9):
    """Morse-in-principle density whose zero at t = 0 is nearly degenerate.

    The factor 1 - (1 - flatness) ((1 + cos t)/2)^8 crushes the derivative at
    t = 0 down to 2 * flatness while leaving the other three zeros healthy,
    so zero finding must reject it under the default Morse tolerance.
    """

    def fn(t):
        window = ((1.0 + np.cos(t)) / 2.0) ** 8
        return np.sin(2.0 * t) * (1.0 - (1.0 - flatness) * window)

    return CircleForm.from_function(fn, degree=10)


def bump_dictionary(bbox, count=50):
    """Deterministic dictionary of single-bump test Hamiltonians over a box.

    A near-square grid of narrow bumps plus broad bumps at the box center,
    padded to exactly the requested count.
    """
    (xlo, xhi), (ylo, yhi) = bbox
    side = int(np.floor(np.sqrt(count)))
    xs = np.linspace(xlo, xhi, side)
    ys = np.linspace(ylo, yhi, side)
    pitch = max((xhi - xlo) / max(side - 1, 1), (yhi - ylo) / max(side - 1, 1))
    out = []
    for y in ys:
        for x in xs:
            out.append(PlanarHamiltonian.single((x, y), 0.75 * pitch, 1.0))
    cx, cy = 0.5 * (xlo + xhi), 0.5 * (ylo + yhi)
    scale = 1.0
    while len(out) < count:
        out.append(PlanarHamiltonian.single((cx, cy), scale * max(xhi - xlo, yhi - ylo), 1.0))
        scale *= 0.5
    return out[:count]

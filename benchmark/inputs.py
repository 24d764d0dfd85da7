"""Seeded benchmark inputs, each carrying its ground truth from the construction.

Built from numpy alone and never from ``vortexloop.samples``, so the inputs
stay fixed when the package's own generators change.  Nothing here asks the
package whether it can handle an input: zero counts, symmetry steps,
partial vorticities, areas, equivalence verdicts and circle-map inverses all
follow from how each input was made.

* Densities are ``Q(m t) * prod_j sin((m t - z_j) / 2)`` with an even number
  of zeros ``z_j`` placed at least ``pi / k`` apart and ``Q`` a trig
  polynomial bounded below by 0.4, so every zero is simple by construction.
  Their trig coefficients come from a numpy FFT of exact samples.
* Loops are star-shaped polar curves ``r(t) = b (1 + small harmonics)``,
  simple and positively oriented, with area ``pi b^2 (1 + sum(c^2) / 2)``.
* Intertwine targets are pullbacks ``beta(g(t)) g'(t)`` through an analytic
  circle map ``g(t) = t + c + small harmonics`` whose displacement slope
  stays below 1, so ``g`` is monotone and its inverse is solved by Newton.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


def _trig_eval(a0, cos, sin, t):
    t = np.asarray(t, dtype=float)
    j = np.arange(1, cos.size + 1)
    ang = t[..., None] * j
    return a0 + np.cos(ang) @ cos + np.sin(ang) @ sin


def _trig_antiderivative(a0, cos, sin, t):
    t = np.asarray(t, dtype=float)
    j = np.arange(1, cos.size + 1)
    ang = t[..., None] * j
    return a0 * t + np.sin(ang) @ (cos / j) + (1.0 - np.cos(ang)) @ (sin / j)


def _fft_coefficients(values, degree):
    """Trig coefficients up to ``degree`` of uniform samples on [0, 2 pi)."""
    spec = np.fft.rfft(values) / values.size
    return spec[0].real, 2.0 * spec[1:degree + 1].real, -2.0 * spec[1:degree + 1].imag


def symmetry_step(omegas, rel_tol=1e-9):
    """Smallest even divisor ``l`` of k with ``omega_i == omega_(i+l)``, else k."""
    k = omegas.size
    scale = float(np.max(np.abs(omegas)))
    for ell in range(2, k + 1, 2):
        if k % ell == 0 and np.max(np.abs(omegas - np.roll(omegas, -ell))) <= rel_tol * scale:
            return ell
    return k


class Density:
    """A Morse density with its exact zeros and profile."""

    def __init__(self, fn, zeros, degree):
        self.fn = fn
        self.zeros = np.sort(np.mod(zeros, TWO_PI))
        self.degree = degree
        n_fft = max(64, 4 * degree + 4)
        grid = np.arange(n_fft) * (TWO_PI / n_fft)
        self.a0, self.cos, self.sin = _fft_coefficients(fn(grid), degree)
        ext = np.append(self.zeros, self.zeros[0] + TWO_PI)
        self.omegas = np.diff(_trig_antiderivative(self.a0, self.cos, self.sin, ext))
        self.ell = symmetry_step(self.omegas)

    @property
    def k(self):
        return self.zeros.size

    def trig_doc(self):
        return {"kind": "trig", "coeffs": {"a0": float(self.a0), "cos": self.cos.tolist(),
                                           "sin": self.sin.tolist()}}

    def samples_doc(self, n):
        grid = np.arange(n) * (TWO_PI / n)
        return {"kind": "samples", "values": self(grid).tolist()}

    def __call__(self, t):
        return _trig_eval(self.a0, self.cos, self.sin, t)

    def rotated(self, phi):
        """The density ``t -> beta(t + phi)``, zeros moved by ``-phi``."""
        return Density(lambda t: self.fn(np.asarray(t) + phi), self.zeros - phi, self.degree)

    def scaled(self, factor):
        return Density(lambda t: factor * self.fn(t), self.zeros, self.degree)


def morse_density(rng, degree, k, fold=1):
    """Density of trig degree ``degree`` with ``k * fold`` simple zeros.

    ``fold > 1`` repeats a k-zero pattern ``fold`` times around the circle,
    which gives the profile a symmetry step of k.
    """
    base_degree, rem = divmod(degree, fold)
    if rem or k % 2 or not 2 <= k <= 2 * base_degree:
        raise ValueError(f"no density of degree {degree} with {k} zeros in {fold} folds")
    q_degree = base_degree - k // 2
    z = (np.arange(k) + 0.5 * rng.uniform(-0.5, 0.5, k)) * (TWO_PI / k) + rng.uniform(0.0, TWO_PI)
    qc = rng.uniform(-1.0, 1.0, (2, q_degree)) / np.arange(1, q_degree + 1) ** 2
    if q_degree:
        qc *= 0.6 / np.sum(np.abs(qc))
    sign = rng.choice([-1.0, 1.0])

    def raw(t):
        s = fold * np.asarray(t, dtype=float)
        out = np.ones_like(s)
        for zj in z:
            out = out * np.sin(0.5 * (s - zj))
        return out * (1.0 + _trig_eval(0.0, qc[0], qc[1], s))

    grid = np.arange(4096) * (TWO_PI / 4096)
    scale = sign * rng.uniform(0.5, 2.0) / float(np.max(np.abs(raw(grid))))
    zeros = (z[None, :] + TWO_PI * np.arange(fold)[:, None]).ravel() / fold
    return Density(lambda t: scale * raw(t), zeros, degree)


class StarLoop:
    """Polar curve ``center + r(t) (cos t, sin t)`` with its exact area."""

    def __init__(self, base, center, amps):
        self.base = base
        self.center = center
        self.amps = amps
        self.area = np.pi * base ** 2 * (1.0 + 0.5 * float(np.sum(amps ** 2)))

    @classmethod
    def random(cls, rng):
        base = rng.uniform(0.8, 1.4)
        center = rng.uniform(-0.5, 0.5, size=2)
        amps = rng.uniform(-1.0, 1.0, size=(2, 4))
        amps *= 0.35 * rng.uniform(0.4, 1.0) / np.sum(np.abs(amps))
        return cls(base, center, amps)

    def samples(self, n):
        t = np.arange(n) * (TWO_PI / n)
        r = self.base * (1.0 + _trig_eval(0.0, self.amps[0], self.amps[1], t))
        return self.center + np.column_stack([r * np.cos(t), r * np.sin(t)])

    def scaled(self, factor):
        return StarLoop(factor * self.base, factor * self.center, self.amps)


def circle_samples(n):
    t = np.arange(n) * (TWO_PI / n)
    return np.column_stack([np.cos(t), np.sin(t)])


def loop_doc(samples, beta_doc):
    return {"schema": "vortexloop/1", "samples": np.asarray(samples).tolist(), "beta": beta_doc}


class CircleMap:
    """Analytic monotone circle map ``g(t) = t + c + sum_j a_j cos jt + b_j sin jt``."""

    def __init__(self, rng, harmonics=3):
        cos = rng.uniform(-1.0, 1.0, harmonics)
        sin = rng.uniform(-1.0, 1.0, harmonics)
        j = np.arange(1, harmonics + 1)
        strength = 0.6 * rng.uniform(0.3, 1.0)
        norm = strength / np.sum(j * (np.abs(cos) + np.abs(sin)))
        self.cos, self.sin = cos * norm, sin * norm
        self.offset = rng.uniform(0.0, TWO_PI)

    def __call__(self, t):
        return np.asarray(t) + self.offset + _trig_eval(0.0, self.cos, self.sin, t)

    def derivative(self, t):
        j = np.arange(1, self.cos.size + 1)
        return 1.0 + _trig_eval(0.0, j * self.sin, -j * self.cos, t)

    def inverse(self, s):
        s = np.asarray(s, dtype=float)
        t = s - self.offset
        for _ in range(100):
            step = (self(t) - s) / self.derivative(t)
            t = t - step
            if np.max(np.abs(step)) < 1e-15:
                break
        return t


def pullback(density, gmap, n_fft=1024):
    """Trig coefficients of ``beta(g(t)) g'(t)``, truncated at 1e-13 of the peak."""
    grid = np.arange(n_fft) * (TWO_PI / n_fft)
    a0, cos, sin = _fft_coefficients(density.fn(gmap(grid)) * gmap.derivative(grid), n_fft // 2 - 1)
    mags = np.hypot(cos, sin)
    keep = np.nonzero(mags > 1e-13 * max(abs(a0), mags.max()))[0]
    degree = int(keep[-1]) + 1
    return {"kind": "trig", "coeffs": {"a0": float(a0), "cos": cos[:degree].tolist(),
                                       "sin": sin[:degree].tolist()}}


def circ_gap(a, b):
    d = np.mod(np.asarray(a) - np.asarray(b), TWO_PI)
    return np.minimum(d, TWO_PI - d)

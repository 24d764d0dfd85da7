"""Symplectic structure on area-constrained loops and the momentum map.

Tangent data lives on the loop's native parameter grid; full-period integrals
of smooth periodic integrands use the trapezoidal rule there, which is
spectrally accurate.  Derivative checks (closedness, exactness) use central
finite differences on constant vector-field extensions, whose brackets
vanish, so no connection is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import svdvals

from .circle_forms import CircleForm, FloatArray
from .errors import ConstraintViolation
from .loops import DecoratedLoop, LoopEmbedding, _cross, _perp
from .quadrature import TWO_PI, periodic_spline, periodic_trapezoid

AREA_CONSTRAINT_TOL = 1e-10
PROJECTION_LIMIT = 1e-6
FD_STEP = 1e-4
DEFAULT_PAIRING_RESOLUTION = 4096


def _as_vectors(u, n: int) -> FloatArray:
    vec = u.vectors if isinstance(u, TangentVector) else np.asarray(u, dtype=float)
    if vec.shape != (n, 2):
        raise ValueError(f"expected an ({n}, 2) vector field, got {vec.shape}")
    return vec


def _against(values, form: CircleForm):
    """Periodic trapezoid of ``values * form`` on the uniform grid of the last
    axis of ``values``; stacked rows give one integral per row."""
    values = np.asarray(values, dtype=float)
    grid = np.linspace(0.0, TWO_PI, values.shape[-1], endpoint=False)
    return periodic_trapezoid(values * np.asarray(form(grid), dtype=float))


def _constraint(embedding: LoopEmbedding, vec: FloatArray, limit: float = np.inf):
    """Area-variation integral of ``vec``, its size relative to ``vec`` and the
    constraint gradient g, g and ``integral(g . g)``; raises ConstraintViolation
    when the relative size exceeds ``limit``."""
    g = _perp(embedding.derivative(embedding.grid))
    raw = periodic_trapezoid(np.sum(vec * g, axis=1))
    gg = periodic_trapezoid(np.sum(g * g, axis=1))
    scale = np.sqrt(periodic_trapezoid(np.sum(vec * vec, axis=1)) * gg)
    violation = abs(raw) / max(scale, 1e-300)
    if violation > limit:
        raise ConstraintViolation(
            f"area constraint violated at {violation:.3e}, beyond {limit:g}")
    return raw, violation, g, gg


def area_constraint_residual(embedding: LoopEmbedding, u) -> float:
    """Relative size of the area-variation integral for the field ``u``."""
    return _constraint(embedding, _as_vectors(u, embedding.size))[1]


def project_area_constraint(embedding: LoopEmbedding, u) -> FloatArray:
    """Project a vector field onto the area-preserving constraint."""
    vec = _as_vectors(u, embedding.size)
    raw, _, g, gg = _constraint(embedding, vec)
    return vec - (raw / gg) * g


def _enforced(embedding: LoopEmbedding, u) -> FloatArray:
    """Apply the evaluation-time constraint policy: project small violations,
    reject anything beyond the projection limit."""
    vec = _as_vectors(u, embedding.size)
    raw, violation, g, gg = _constraint(embedding, vec, PROJECTION_LIMIT)
    if violation == 0.0:
        return vec
    return vec - (raw / gg) * g


class TangentVector:
    """Per-sample variation field along a loop embedding."""

    def __init__(self, embedding: LoopEmbedding, vectors):
        vec = _as_vectors(vectors, embedding.size)
        if not np.all(np.isfinite(vec)):
            raise ValueError("tangent vectors must be finite")
        _constraint(embedding, vec, AREA_CONSTRAINT_TOL)
        self._embedding = embedding
        self._vectors = vec.copy()

    @classmethod
    def from_split(cls, embedding: LoopEmbedding, rho, lam, *,
                   project: bool = False) -> "TangentVector":
        """Assemble ``rho * T + lam * N`` from frame coefficients.

        ``rho`` must have zero mean on the parameter circle; ``lam`` is
        projected onto the area constraint when ``project`` is set, otherwise
        the constraint is validated as-is.
        """
        grid = embedding.grid
        rho_v = np.asarray(rho(grid) if callable(rho) else rho, dtype=float)
        lam_v = np.asarray(lam(grid) if callable(lam) else lam, dtype=float)
        if rho_v.shape != grid.shape or lam_v.shape != grid.shape:
            raise ValueError("rho and lam must give one value per sample")
        scale = max(float(np.max(np.abs(rho_v))), 1.0)
        if abs(float(np.mean(rho_v))) > AREA_CONSTRAINT_TOL * scale:
            raise ConstraintViolation("tangential coefficient rho must have zero mean")
        tangent, normal = embedding.frame(grid)
        vec = rho_v[:, None] * tangent + lam_v[:, None] * normal
        if project:
            vec = project_area_constraint(embedding, vec)
        return cls(embedding, vec)

    @property
    def embedding(self) -> LoopEmbedding:
        return self._embedding

    @property
    def vectors(self) -> FloatArray:
        return self._vectors.copy()


def tangent_decompose(embedding: LoopEmbedding, u) -> tuple[FloatArray, FloatArray]:
    """Frame coefficients (rho, lam) of ``u`` in the unit tangent/normal frame.

    The reconstruction ``rho * T + lam * N`` reproduces ``u`` exactly at the
    samples.  Raises ConstraintViolation when ``u`` breaks the area
    constraint.  The mean of ``rho`` is returned untouched; it is the
    caller's business whether to quotient it away.
    """
    vec = _as_vectors(u, embedding.size)
    _constraint(embedding, vec, AREA_CONSTRAINT_TOL)
    tangent, normal = embedding.frame(embedding.grid)
    rho = np.sum(vec * tangent, axis=1)
    lam = np.sum(vec * normal, axis=1)
    return rho, lam


def pairing(rho, lam, form: CircleForm, resolution: int = DEFAULT_PAIRING_RESOLUTION) -> float:
    """Weighted pairing ``integral(rho * lam * form)`` over one period.

    ``rho`` and ``lam`` may be callables or arrays sampled uniformly; ``rho``
    is expected to have zero mean (not enforced here).  An array paired with
    a callable must hold exactly ``resolution`` samples.
    """
    if callable(rho) or callable(lam):
        grid = np.linspace(0.0, TWO_PI, resolution, endpoint=False)
        rho = rho(grid) if callable(rho) else rho
        lam = lam(grid) if callable(lam) else lam
        if np.shape(rho) != grid.shape or np.shape(lam) != grid.shape:
            raise ValueError(f"an array paired with a callable needs {resolution} samples")
    rho_v = np.asarray(rho, dtype=float)
    lam_v = np.asarray(lam, dtype=float)
    if rho_v.shape != lam_v.shape or rho_v.ndim != 1:
        raise ValueError("sampled rho and lam must share a grid")
    return _against(rho_v * lam_v, form)


def pairing_matrix(form: CircleForm, n: int = 16,
                   resolution: int | None = None) -> tuple[FloatArray, float]:
    """Gram matrix of the pairing over truncated Fourier bases.

    Rows run over the zero-mean modes cos(jt), sin(jt) for j = 1..n; columns
    over the modes of degree below n including the constant.  All basis
    functions are L2-normalized.  Returns the matrix and its smallest
    singular value; a near-zero value signals a direction annihilated by the
    pairing, which is exactly what happens on the constant for a density
    without zeros.
    """
    if resolution is None:
        resolution = max(4096, 16 * n)
    grid = np.linspace(0.0, TWO_PI, resolution, endpoint=False)
    beta = np.asarray(form(grid), dtype=float)
    phase = np.arange(1, n + 1)[:, None] * grid
    # rows cos(t), sin(t), cos(2t), sin(2t), ...
    rho_arr = np.stack([np.cos(phase), np.sin(phase)], axis=1).reshape(2 * n, resolution)
    rho_arr /= np.sqrt(np.pi)
    lam_arr = np.concatenate([np.full((1, resolution), 1.0 / np.sqrt(TWO_PI)),
                              rho_arr[:2 * n - 2]])
    weighted = lam_arr * beta
    matrix = (rho_arr @ weighted.T) * (TWO_PI / resolution)
    sigma = svdvals(matrix)
    return matrix, float(sigma[-1])


def omega_eval(embedding: LoopEmbedding, u, v, form: CircleForm) -> float:
    """The two-form ``integral(omega(u, v) * form)`` at the loop."""
    return _against(_cross(_enforced(embedding, u), _enforced(embedding, v)), form)


@dataclass(frozen=True)
class PointedDecoration:
    """Weights attached to marked parameter values (evaluation couplings)."""

    weights: FloatArray
    marked: FloatArray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        m = np.asarray(self.marked, dtype=float)
        if w.ndim != 1 or w.shape != m.shape:
            raise ValueError("weights and marked parameters must be 1-d and match")
        if np.any(np.diff(m) <= 0.0) or np.any(m < 0.0) or np.any(m >= TWO_PI):
            raise ValueError("marked parameters must be strictly increasing in [0, 2*pi)")
        object.__setattr__(self, "weights", w.copy())
        object.__setattr__(self, "marked", m.copy())


def pointed_omega_eval(embedding: LoopEmbedding, u, v, form: CircleForm,
                       pointed: PointedDecoration) -> float:
    """Two-form plus weighted evaluation couplings at the marked parameters."""
    uu = _enforced(embedding, u)
    vv = _enforced(embedding, v)
    base = _against(_cross(uu, vv), form)
    u_at = periodic_spline(uu)(pointed.marked)
    v_at = periodic_spline(vv)(pointed.marked)
    return base + float(np.sum(pointed.weights * _cross(u_at, v_at)))


def primitive_one_form_eval(embedding: LoopEmbedding, u, form: CircleForm) -> float:
    """The primitive ``alpha(u) = integral(nu_f(u) * form)`` with
    ``nu = (x dy - y dx) / 2``."""
    return _against(0.5 * _cross(embedding.samples, _enforced(embedding, u)), form)


def momentum_map_eval(embedding: LoopEmbedding, h, form: CircleForm) -> float:
    """Momentum pairing ``integral((h o f) * form)`` against a test Hamiltonian."""
    return _against(h(embedding.samples), form)


def momentum_separation(first: DecoratedLoop, second: DecoratedLoop, dictionary) -> float:
    """Largest momentum discrepancy over a dictionary of test Hamiltonians."""
    best = 0.0
    for h in dictionary:
        a = momentum_map_eval(first.embedding, h, first.decoration)
        b = momentum_map_eval(second.embedding, h, second.decoration)
        best = max(best, abs(a - b))
    return best


# -- finite-difference checks of the structural identities -------------------


def closedness_residual(embedding: LoopEmbedding, u, v, w, form: CircleForm,
                        step: float = FD_STEP) -> float:
    """Central-difference exterior derivative of the two-form on constant
    extensions of three constrained fields.

    Constant extensions have vanishing brackets, so the exterior derivative
    reduces to the cyclic sum of directional derivatives of ``omega_f(a, b)``
    along the third field.  In these linear coordinates the coefficients of
    the two-form do not depend on the basepoint, so its values at the two
    displaced basepoints are one and the same number and the residual is 0
    by construction for finite fields.  This is a structural identity, not a
    measurement of discretization error; ``step`` only sets the divisor.
    """
    uu, vv, ww = (_as_vectors(x, embedding.size) for x in (u, v, w))
    # omega_f of the two fields left after dropping u, v, w in turn
    values = _against(np.stack([_cross(vv, ww), _cross(uu, ww), _cross(uu, vv)]), form)
    total = 0.0
    sign = 1.0
    for value in values.tolist():
        total += sign * (value - value) / (2.0 * step)
        sign = -sign
    return abs(total)


def exactness_residual(embedding: LoopEmbedding, u, v, form: CircleForm,
                       step: float = FD_STEP) -> float:
    """Residual of ``d(primitive) == Omega`` via central differences on
    constant extensions."""
    uu = _as_vectors(u, embedding.size)
    vv = _as_vectors(v, embedding.size)
    base = embedding.samples
    # the primitive alpha(v) at base +- step u, alpha(u) at base +- step v,
    # then omega_f(u, v)
    rows = [0.5 * _cross(base + step * uu, vv), 0.5 * _cross(base - step * uu, vv),
            0.5 * _cross(base + step * vv, uu), 0.5 * _cross(base - step * vv, uu),
            _cross(uu, vv)]
    v_plus, v_minus, u_plus, u_minus, omega = _against(np.stack(rows), form).tolist()
    d_alpha_v = (v_plus - v_minus) / (2.0 * step)
    d_alpha_u = (u_plus - u_minus) / (2.0 * step)
    return abs((d_alpha_v - d_alpha_u) - omega)

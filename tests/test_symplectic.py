"""Weighted pairing, the two-form, and its structural identities."""

import numpy as np
import pytest
from scipy.linalg import svdvals

from vortexloop import samples
from vortexloop.circle_forms import TWO_PI
from vortexloop.errors import ConstraintViolation
from vortexloop.flow import PlanarHamiltonian
from vortexloop.loops import DecoratedLoop, LoopEmbedding
from vortexloop.symplectic import (
    PointedDecoration,
    TangentVector,
    area_constraint_residual,
    closedness_residual,
    exactness_residual,
    momentum_map_eval,
    momentum_separation,
    omega_eval,
    pairing,
    pairing_matrix,
    pointed_omega_eval,
    primitive_one_form_eval,
    project_area_constraint,
    tangent_decompose,
)

from conftest import StarCurve, oracle_integral


def star_embedding(seed, n=128):
    curve = StarCurve(np.random.default_rng(seed))
    grid = np.linspace(0.0, TWO_PI, n, endpoint=False)
    return LoopEmbedding(curve(grid))


def projected_field(embedding, rng):
    raw = rng.normal(size=(embedding.size, 2))
    return project_area_constraint(embedding, raw)


# ---------------------------------------------------------------- pairing


def test_pairing_matches_quadpack():
    form = samples.standard_form("mixed")

    def rho(t):
        return np.cos(t)

    def lam(t):
        return np.sin(t) + 0.3

    expected = oracle_integral(lambda t: np.cos(t) * (np.sin(t) + 0.3) * form(t),
                               0.0, TWO_PI)
    assert pairing(rho, lam, form) == pytest.approx(expected, abs=1e-12)

    grid = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
    sampled = pairing(rho(grid), lam(grid), form)
    assert sampled == pytest.approx(expected, abs=1e-12)


def test_pairing_closed_form():
    sin2t = samples.standard_form("sin2t")
    got = pairing(np.cos, np.sin, sin2t)
    assert got == pytest.approx(np.pi / 2, abs=1e-12)


def test_pairing_annihilates_constants_for_flat_density():
    vol = samples.standard_form("volume")
    got = pairing(np.cos, lambda t: np.ones_like(t), vol)
    assert got == pytest.approx(0.0, abs=1e-14)


def test_pairing_sampled_shape_mismatch():
    with pytest.raises(ValueError):
        pairing(np.zeros(64), np.zeros(128), samples.standard_form("sin2t"))
    with pytest.raises(ValueError):
        pairing(np.cos, np.ones(1000), samples.standard_form("sin2t"), resolution=1024)


def test_pairing_matrix_entries_against_quadpack():
    form = samples.standard_form("mixed")
    n = 4
    matrix, sigma = pairing_matrix(form, n=n)
    assert matrix.shape == (2 * n, 2 * n - 1)
    assert sigma == pytest.approx(svdvals(matrix)[-1], abs=1e-14)

    def rho_fn(i):
        j = i // 2 + 1
        if i % 2 == 0:
            return lambda t: np.cos(j * t) / np.sqrt(np.pi)
        return lambda t: np.sin(j * t) / np.sqrt(np.pi)

    def lam_fn(i):
        if i == 0:
            return lambda t: np.full_like(t, 1.0 / np.sqrt(TWO_PI))
        j = (i + 1) // 2
        if i % 2 == 1:
            return lambda t: np.cos(j * t) / np.sqrt(np.pi)
        return lambda t: np.sin(j * t) / np.sqrt(np.pi)

    for i in range(2 * n):
        want = oracle_integral(lambda t: rho_fn(i)(t) * lam_fn(0)(t) * form(t), 0.0, TWO_PI)
        assert matrix[i, 0] == pytest.approx(want, abs=1e-12)
    for j in range(2 * n - 1):
        want = oracle_integral(lambda t: rho_fn(0)(t) * lam_fn(j)(t) * form(t), 0.0, TWO_PI)
        assert matrix[0, j] == pytest.approx(want, abs=1e-12)


def test_pairing_matrix_flat_density_kernel():
    matrix, sigma = pairing_matrix(samples.standard_form("volume"), n=8)
    # the constant column is annihilated; everything else pairs one-to-one
    np.testing.assert_allclose(matrix[:, 0], 0.0, atol=1e-14)
    assert sigma < 1e-12
    sv = svdvals(matrix)
    assert sv[0] == pytest.approx(1.0, abs=1e-12)
    assert sv[-2] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- constraint


def test_project_area_constraint_kills_residual():
    emb = star_embedding(2)
    rng = np.random.default_rng(0)
    raw = rng.normal(size=(emb.size, 2))
    proj = project_area_constraint(emb, raw)
    assert area_constraint_residual(emb, proj) < 1e-14
    again = project_area_constraint(emb, proj)
    np.testing.assert_allclose(again, proj, atol=1e-14)


def test_area_constraint_residual_scale_invariant():
    emb = star_embedding(2)
    rng = np.random.default_rng(1)
    raw = rng.normal(size=(emb.size, 2))
    r1 = area_constraint_residual(emb, raw)
    r2 = area_constraint_residual(emb, 7.5 * raw)
    assert r2 == pytest.approx(r1, rel=1e-12)


def test_tangent_vector_validation():
    emb = star_embedding(4)
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        TangentVector(emb, np.zeros((emb.size + 1, 2)))
    bad = rng.normal(size=(emb.size, 2))
    bad[3, 0] = np.inf
    with pytest.raises(ValueError):
        TangentVector(emb, bad)
    _, normal = emb.frame(emb.grid)
    with pytest.raises(ConstraintViolation):
        TangentVector(emb, normal)  # pure inflation changes the area
    tv = TangentVector(emb, projected_field(emb, rng))
    assert tv.vectors.shape == (emb.size, 2)
    assert tv.embedding is emb


def test_from_split_requires_zero_mean_rho():
    emb = star_embedding(4)
    lam = np.zeros(emb.size)
    with pytest.raises(ConstraintViolation):
        TangentVector.from_split(emb, np.ones(emb.size), lam)
    with pytest.raises(ValueError):
        TangentVector.from_split(emb, np.zeros(emb.size - 1), lam)
    tv = TangentVector.from_split(emb, np.cos, np.sin, project=True)
    assert area_constraint_residual(emb, tv.vectors) < 1e-12


def test_tangent_decompose_round_trip():
    emb = star_embedding(6)
    rng = np.random.default_rng(6)
    u = projected_field(emb, rng)
    rho, lam = tangent_decompose(emb, u)
    tangent, normal = emb.frame(emb.grid)
    rebuilt = rho[:, None] * tangent + lam[:, None] * normal
    np.testing.assert_allclose(rebuilt, u, atol=1e-13)


def test_tangent_decompose_rejects_violation():
    emb = star_embedding(6)
    _, normal = emb.frame(emb.grid)
    with pytest.raises(ConstraintViolation):
        tangent_decompose(emb, normal)


# ---------------------------------------------------------------- two-form


def test_omega_antisymmetric_and_bilinear():
    emb = star_embedding(8)
    rng = np.random.default_rng(8)
    form = samples.standard_form("mixed")
    u = projected_field(emb, rng)
    v = projected_field(emb, rng)
    w = projected_field(emb, rng)

    ab = omega_eval(emb, u, v, form)
    ba = omega_eval(emb, v, u, form)
    assert ab == pytest.approx(-ba, abs=1e-14)

    lhs = omega_eval(emb, 2.0 * u + 0.5 * w, v, form)
    rhs = 2.0 * ab + 0.5 * omega_eval(emb, w, v, form)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_omega_rejects_unconstrained_field():
    emb = star_embedding(8)
    rng = np.random.default_rng(9)
    _, normal = emb.frame(emb.grid)
    v = projected_field(emb, rng)
    with pytest.raises(ConstraintViolation):
        omega_eval(emb, normal, v, samples.standard_form("sin2t"))


def test_primitive_linear_in_field():
    emb = star_embedding(10)
    rng = np.random.default_rng(10)
    form = samples.standard_form("mixed")
    u = projected_field(emb, rng)
    v = projected_field(emb, rng)
    lhs = primitive_one_form_eval(emb, u + 3.0 * v, form)
    rhs = (primitive_one_form_eval(emb, u, form)
           + 3.0 * primitive_one_form_eval(emb, v, form))
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_pointed_decoration_validation():
    with pytest.raises(ValueError):
        PointedDecoration(np.ones(3), np.array([0.5, 0.4, 1.0]))
    with pytest.raises(ValueError):
        PointedDecoration(np.ones(2), np.array([0.5, TWO_PI]))
    with pytest.raises(ValueError):
        PointedDecoration(np.ones(2), np.array([0.5]))


def test_pointed_omega_adds_weighted_couplings():
    emb = star_embedding(12)
    rng = np.random.default_rng(12)
    form = samples.standard_form("mixed")
    u = projected_field(emb, rng)
    v = projected_field(emb, rng)

    grid = emb.grid
    idx = np.array([10, 40, 90])
    pointed0 = PointedDecoration(np.zeros(3), grid[idx])
    base = omega_eval(emb, u, v, form)
    assert pointed_omega_eval(emb, u, v, form, pointed0) == pytest.approx(base, abs=1e-14)

    weights = np.array([0.7, -1.1, 0.4])
    pointed = PointedDecoration(weights, grid[idx])
    cross = u[idx, 0] * v[idx, 1] - u[idx, 1] * v[idx, 0]
    want = base + float(np.sum(weights * cross))
    got = pointed_omega_eval(emb, u, v, form, pointed)
    assert got == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------- momentum


def test_momentum_matches_quadpack_and_far_bump_vanishes():
    emb = star_embedding(14, n=256)
    form = samples.standard_form("mixed")
    h = PlanarHamiltonian.single((0.1, -0.2), 1.1, 0.8)
    got = momentum_map_eval(emb, h, form)
    want = oracle_integral(
        lambda t: float(h(emb.eval(np.atleast_1d(t)))[0] * form(t)), 0.0, TWO_PI,
        knots=emb.grid)
    assert got == pytest.approx(want, abs=1e-9)

    far = PlanarHamiltonian.single((40.0, 40.0), 0.5, 1.0)
    assert momentum_map_eval(emb, far, form) == 0.0


def test_momentum_separation_zero_on_identical_loops():
    emb = star_embedding(14, n=256)
    loop = DecoratedLoop(emb, samples.standard_form("sin2t"))
    bbox = samples.loop_bbox(emb)
    dictionary = samples.bump_dictionary(bbox, 9)
    assert momentum_separation(loop, loop, dictionary) == 0.0


# ------------------------------------------------- structural FD identities


def test_closedness_residual_is_exactly_zero():
    emb = star_embedding(16)
    rng = np.random.default_rng(16)
    form = samples.standard_form("mixed")
    u = projected_field(emb, rng)
    v = projected_field(emb, rng)
    w = projected_field(emb, rng)
    assert closedness_residual(emb, u, v, w, form) == 0.0


def test_exactness_residual_small_and_step_stable():
    emb = star_embedding(18)
    rng = np.random.default_rng(18)
    form = samples.standard_form("mixed")
    u = projected_field(emb, rng)
    v = projected_field(emb, rng)
    # the primitive is linear in the base point, so the central difference
    # is exact at any step; only rounding is left
    assert exactness_residual(emb, u, v, form) < 1e-10
    assert exactness_residual(emb, u, v, form, step=1e-2) < 1e-10

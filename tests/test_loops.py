"""Loop embeddings, invariants, and intertwiners."""

import numpy as np
import pytest

from vortexloop import samples
from vortexloop.circle_forms import (
    TWO_PI,
    CircleForm,
    find_zeros,
    partial_vorticities,
)
from vortexloop.errors import (
    MorseViolation,
    OrientationError,
    ProfileMismatch,
    ValidationFailed,
)
from vortexloop.loops import (
    DecoratedLoop,
    LoopEmbedding,
    circular_match,
    enclosed_area,
    intertwiner,
    orbit_equivalent,
    orbit_invariants,
    pushforward_form,
    reversed_decoration,
)
from vortexloop.symplectic import momentum_map_eval

from conftest import StarCurve, brute_circular_match, oracle_integral


def unit_circle_pts(n=256, radius=1.0, clockwise=False):
    s = np.linspace(0.0, TWO_PI, n, endpoint=False)
    if clockwise:
        s = -s
    return np.column_stack([radius * np.cos(s), radius * np.sin(s)])


# ---------------------------------------------------------------- validation


def test_embedding_rejects_bad_shapes():
    with pytest.raises(ValueError):
        LoopEmbedding(np.zeros((32, 3)))
    with pytest.raises(ValueError):
        LoopEmbedding(unit_circle_pts(8))
    bad = unit_circle_pts(64)
    bad[5, 0] = np.nan
    with pytest.raises(ValueError):
        LoopEmbedding(bad)


def test_embedding_rejects_zero_area():
    s = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    line = np.column_stack([np.cos(s), np.zeros(64)])
    with pytest.raises(ValidationFailed):
        LoopEmbedding(line)


def test_embedding_rejects_self_intersection():
    # limacon with an inner loop: positively oriented but not simple
    t = np.linspace(0.0, TWO_PI, 128, endpoint=False)
    r = 0.5 + np.cos(t)
    pts = np.column_stack([r * np.cos(t), r * np.sin(t)])
    with pytest.raises(ValidationFailed):
        LoopEmbedding(pts)


def test_embedding_rejects_clockwise_without_auto_orient():
    with pytest.raises(OrientationError):
        LoopEmbedding(unit_circle_pts(clockwise=True))


def test_auto_orient_reverses_samples():
    pts = unit_circle_pts(64, clockwise=True)
    emb = LoopEmbedding(pts, auto_orient=True)
    assert emb.auto_reversed
    n = pts.shape[0]
    assert np.array_equal(emb.samples, pts[(-np.arange(n)) % n])
    assert enclosed_area(emb) > 0.0


def test_embedding_rejects_non_immersion():
    # reparametrize the circle through a map whose derivative vanishes to
    # fourth order at t = 0; the fitted parametrization stalls there
    n = 512
    s = np.linspace(0.0, TWO_PI, n, endpoint=False)
    u = (2.0 / 3.0) * (1.5 * s - 2.0 * np.sin(s) + 0.25 * np.sin(2.0 * s))
    pts = np.column_stack([np.cos(u), np.sin(u)])
    with pytest.raises(ValidationFailed):
        LoopEmbedding(pts)


# ---------------------------------------------------------------- geometry


def test_circle_and_ellipse_areas():
    circ = LoopEmbedding.circle(radius=1.3)
    assert enclosed_area(circ) == pytest.approx(np.pi * 1.3**2, rel=1e-8)
    ell = LoopEmbedding.ellipse(1.2, 0.7, center=(0.3, -0.2))
    assert enclosed_area(ell) == pytest.approx(np.pi * 1.2 * 0.7, rel=1e-8)


def test_eval_interpolates_samples():
    emb = LoopEmbedding.circle(n=64)
    np.testing.assert_allclose(emb.eval(emb.grid), emb.samples, atol=1e-14)


def test_enclosed_area_matches_analytic_star():
    curve = StarCurve(np.random.default_rng(7))
    grid = np.linspace(0.0, TWO_PI, 256, endpoint=False)
    emb = LoopEmbedding(curve(grid))
    assert enclosed_area(emb) == pytest.approx(curve.area(), rel=1e-6)


def test_enclosed_area_is_exact_on_the_spline():
    # x y' - y x' is a quintic on each knot interval of the spline, so QUADPACK
    # over each interval gives the area without the package's quadrature
    curve = StarCurve(np.random.default_rng(9))
    n = 32
    knots = np.linspace(0.0, TWO_PI, n + 1)
    emb = LoopEmbedding(curve(knots[:-1]))

    def integrand(s):
        p = emb.eval(s)
        d = emb.derivative(s)
        return 0.5 * (p[0] * d[1] - p[1] * d[0])

    want = sum(oracle_integral(integrand, knots[i], knots[i + 1]) for i in range(n))
    assert enclosed_area(emb) == pytest.approx(want, rel=1e-13)


def test_eval_and_derivative_wrap_their_argument():
    curve = StarCurve(np.random.default_rng(5))
    emb = LoopEmbedding(curve(np.linspace(0.0, TWO_PI, 64, endpoint=False)))
    t = np.linspace(0.0, TWO_PI, 97)
    for j in (-2, 1, 3):
        shifted = t + TWO_PI * j
        wrapped = np.mod(shifted, TWO_PI)
        assert np.max(np.abs(emb.eval(shifted) - emb.eval(wrapped))) < 1e-14
        assert np.max(np.abs(emb.derivative(shifted) - emb.derivative(wrapped))) < 1e-14


def test_resample_preserves_curve():
    curve = StarCurve(np.random.default_rng(12))
    grid = np.linspace(0.0, TWO_PI, 256, endpoint=False)
    emb = LoopEmbedding(curve(grid))
    fine = emb.resample(1024)
    assert enclosed_area(fine) == pytest.approx(enclosed_area(emb), rel=1e-8)
    probe = np.array([0.3, 1.7, 4.4])
    np.testing.assert_allclose(fine.eval(probe), emb.eval(probe), atol=1e-7)


def test_frame_is_orthonormal():
    emb = LoopEmbedding.ellipse(1.1, 0.6)
    s = np.linspace(0.0, TWO_PI, 37)
    tangent, normal = emb.frame(s)
    np.testing.assert_allclose(np.linalg.norm(tangent, axis=-1), 1.0, atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(normal, axis=-1), 1.0, atol=1e-12)
    np.testing.assert_allclose(np.sum(tangent * normal, axis=-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(normal[:, 0], -tangent[:, 1], atol=1e-14)
    np.testing.assert_allclose(normal[:, 1], tangent[:, 0], atol=1e-14)


# ---------------------------------------------------------------- decoration


def test_decorated_loop_requires_zeros():
    emb = LoopEmbedding.circle()
    with pytest.raises(MorseViolation):
        DecoratedLoop(emb, samples.standard_form("volume"))


def test_reversed_decoration_flips_total():
    form = CircleForm("trig", a0=0.1, sin_coeffs=np.array([0.0, 1.0]))
    rev = reversed_decoration(form)
    t = np.linspace(0.0, TWO_PI, 257)
    np.testing.assert_allclose(rev(t), -form(TWO_PI - t), atol=1e-12)
    back = reversed_decoration(rev)
    np.testing.assert_allclose(back(t), form(t), atol=1e-12)
    prof = partial_vorticities(form, find_zeros(form))
    prof_rev = partial_vorticities(rev, find_zeros(rev))
    assert prof_rev.total == pytest.approx(-prof.total, abs=1e-12)
    assert prof.total == pytest.approx(0.2 * np.pi, abs=1e-12)


def test_reversal_rebuild_negates_momentum():
    rng = np.random.default_rng(8)
    curve = StarCurve(rng)
    n = 256
    grid = np.linspace(0.0, TWO_PI, n, endpoint=False)
    pts = curve(grid)
    form = samples.standard_form("mixed")
    loop = DecoratedLoop(LoopEmbedding(pts), form)
    # clockwise traversal of the same point set, index 0 kept in place
    cw = pts[(-np.arange(n)) % n]
    flipped = DecoratedLoop.build(cw, form, auto_orient=True)
    assert flipped.embedding.auto_reversed
    np.testing.assert_array_equal(flipped.embedding.samples, pts)
    h = samples.random_hamiltonian(rng, samples.loop_bbox(loop.embedding))
    # circulation along the clockwise traversal, same rule and grid
    m_cw = float(np.mean(np.asarray(h(cw)) * form(grid)) * TWO_PI)
    m_new = momentum_map_eval(flipped.embedding, h, flipped.decoration)
    assert m_new == pytest.approx(-m_cw, abs=1e-12 + 1e-12 * abs(m_cw))


# ---------------------------------------------------------------- invariants


def test_orbit_invariants_circle_sin2t():
    loop = DecoratedLoop(LoopEmbedding.circle(), samples.standard_form("sin2t"))
    inv = orbit_invariants(loop)
    assert inv.area == pytest.approx(np.pi, rel=1e-8)
    np.testing.assert_allclose(inv.omegas, [1.0, -1.0, 1.0, -1.0], atol=1e-10)
    assert inv.total == pytest.approx(0.0, abs=1e-12)
    assert inv.step == 2
    assert inv.k == 4


def test_orbit_invariants_star_area_oracle():
    curve = StarCurve(np.random.default_rng(3))
    grid = np.linspace(0.0, TWO_PI, 512, endpoint=False)
    loop = DecoratedLoop(LoopEmbedding(curve(grid)), samples.standard_form("sin3t"))
    inv = orbit_invariants(loop)
    assert inv.area == pytest.approx(curve.area(), rel=1e-7)
    assert inv.k == 6
    assert inv.step == 2


def test_circular_match_against_brute_force():
    rng = np.random.default_rng(99)
    for k in (2, 4, 6, 8):
        for _ in range(6):
            p = rng.normal(size=k)
            q = np.roll(p, rng.integers(0, k))
            assert circular_match(p, q) == brute_circular_match(p, q)
            noisy = q + rng.normal(size=k) * 1e-3
            assert circular_match(p, noisy) == brute_circular_match(p, noisy)
            assert circular_match(p, noisy, rel_tol=1.0) == \
                brute_circular_match(p, noisy, rel_tol=1.0)


def test_circular_match_symmetric_profile():
    p = np.tile([1.5, -0.5], 3)
    hits = circular_match(p, p)
    assert hits == [0, 2, 4]
    assert hits == brute_circular_match(p, p)


def test_circular_match_size_mismatch():
    assert circular_match(np.ones(4), np.ones(6)) == []


def test_orbit_equivalent_cases():
    emb = LoopEmbedding.circle()
    sin2t = samples.standard_form("sin2t")
    base = DecoratedLoop(emb, sin2t)
    assert orbit_equivalent(base, base)

    shifted = CircleForm.from_function(lambda t: np.sin(2.0 * (t - np.pi / 2)))
    assert orbit_equivalent(base, DecoratedLoop(emb, shifted))

    bigger = DecoratedLoop(LoopEmbedding.circle(radius=1.1), sin2t)
    assert not orbit_equivalent(base, bigger)

    heavier = CircleForm.from_function(lambda t: 1.15 * np.sin(2.0 * t))
    assert not orbit_equivalent(base, DecoratedLoop(emb, heavier))

    assert not orbit_equivalent(base, DecoratedLoop(emb, samples.standard_form("sin3t")))


# ---------------------------------------------------------------- intertwiner


def test_intertwiner_identity_and_rotation():
    sin2t = samples.standard_form("sin2t")
    loop = DecoratedLoop(LoopEmbedding.circle(), sin2t)
    t = np.linspace(0.0, TWO_PI, 501)

    ident = intertwiner(sin2t, loop, 0)
    assert np.max(np.abs(ident(t) - t)) < 1e-10

    half = intertwiner(sin2t, loop, 2)
    gap = np.mod(half(t) - (t + np.pi) + np.pi, TWO_PI) - np.pi
    assert np.max(np.abs(gap)) < 1e-10


def test_intertwiner_rejects_bad_shift_and_k():
    sin2t = samples.standard_form("sin2t")
    loop = DecoratedLoop(LoopEmbedding.circle(), sin2t)
    with pytest.raises(ProfileMismatch):
        intertwiner(sin2t, loop, 1)
    with pytest.raises(ProfileMismatch):
        intertwiner(samples.standard_form("sin3t"), loop, 0)


def test_intertwiner_recovers_reparametrization():
    rng = np.random.default_rng(41)
    model = samples.random_morse_form(rng)
    gamma = samples.random_monotone_diffeo(rng)
    target_form = samples.pullback_through(gamma, model)
    loop = DecoratedLoop(LoopEmbedding.circle(), target_form)

    model_zeros = find_zeros(model).zeros
    z0 = np.mod(gamma.inverse_eval(model_zeros[0]), TWO_PI)
    gaps = np.mod(loop.zero_set.zeros - z0 + np.pi, TWO_PI) - np.pi
    shift = int(np.argmin(np.abs(gaps)))

    psi = intertwiner(model, loop, shift, grid_size=1024)
    t = np.linspace(0.0, TWO_PI, 2001)
    diff = np.mod(psi(t) - gamma.inverse_eval(t) + np.pi, TWO_PI) - np.pi
    assert np.max(np.abs(diff)) < 1e-8

    pushed = pushforward_form(psi, model)
    prof = partial_vorticities(pushed, find_zeros(pushed))
    scale = np.max(np.abs(loop.profile.omegas))
    np.testing.assert_allclose(prof.omegas, loop.profile.omegas, atol=1e-8 * scale)


def test_pushforward_through_rotation_shifts_density():
    form = samples.standard_form("mixed")
    rho = 0.9
    from vortexloop.circle_forms import CircleDiffeo

    rot = CircleDiffeo.rotation(rho)
    pushed = pushforward_form(rot, form, n=1024)
    grid = np.linspace(0.0, TWO_PI, 1024, endpoint=False)
    np.testing.assert_allclose(pushed(grid), form(grid - rho), atol=1e-9)


def test_pushforward_inverts_pullback():
    from vortexloop.circle_forms import CircleDiffeo

    rng = np.random.default_rng(5)
    form = samples.random_morse_form(rng)
    gamma = samples.random_monotone_diffeo(rng)
    nodes = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
    gamma_cd = CircleDiffeo(gamma(nodes), gamma.derivative(nodes))
    pulled = samples.pullback_through(gamma, form)
    back = pushforward_form(gamma_cd, pulled, n=2048)
    grid = np.linspace(0.0, TWO_PI, 2048, endpoint=False)
    scale = np.max(np.abs(form(grid)))
    np.testing.assert_allclose(back(grid), form(grid), atol=1e-8 * scale)

    total_pull = partial_vorticities(pulled, find_zeros(pulled)).total
    total_orig = partial_vorticities(form, find_zeros(form)).total
    assert total_pull == pytest.approx(total_orig, abs=1e-10)

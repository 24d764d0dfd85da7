"""Loop embeddings, invariants, and intertwiners."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from vortexloop import loops, samples
from vortexloop.circle_forms import (
    TWO_PI,
    CircleForm,
    VorticityProfile,
    ZeroSet,
    _transport,
    find_zeros,
    partial_vorticities,
    symmetry_step,
)
from vortexloop.errors import (
    MorseViolation,
    OrientationError,
    ProfileMismatch,
    ValidationFailed,
    VortexLoopError,
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
from vortexloop.quadrature import periodic_trapezoid, uniform_grid
from vortexloop.symplectic import _constraint, momentum_map_eval

from conftest import (
    StarCurve,
    brute_circular_match,
    brute_polyline_is_simple,
    brute_zero_images_coincide,
    oracle_integral,
    reference_gauss_area,
)


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
    # the spline area of these curves is a rounding residue of either sign
    # (-5.1e-15 for the flat 256-point line), which must not be read as an
    # orientation, with auto_orient or without it
    form = samples.standard_form("sin2t")
    for n in (64, 256, 4096):
        s = np.linspace(0.0, TWO_PI, n, endpoint=False)
        flat = np.column_stack([np.cos(s), np.zeros(n)])
        slanted = np.column_stack([np.cos(s), 0.3 * np.cos(s)]) + np.array([2.0, -1.0])
        point = np.full((n, 2), 0.7)
        for curve in (flat, slanted, point):
            with pytest.raises(ValidationFailed, match="zero signed area"):
                LoopEmbedding(curve)
            for auto_orient in (False, True):
                with pytest.raises(ValidationFailed, match="zero signed area"):
                    DecoratedLoop.build(curve, form, auto_orient=auto_orient)


def test_embedding_rejects_self_intersection():
    # limacon with an inner loop: positively oriented but not simple
    for n in (128, 4096):
        t = np.linspace(0.0, TWO_PI, n, endpoint=False)
        r = 0.5 + np.cos(t)
        pts = np.column_stack([r * np.cos(t), r * np.sin(t)])
        assert not brute_polyline_is_simple(pts)
        with pytest.raises(ValidationFailed):
            LoopEmbedding(pts)


def serpentine(rows):
    """Closed comb of an even number of unit-length horizontal runs.

    Every run spans x in [0, 1], so almost all segment pairs meet in x.  The
    runs alternate direction, joined end to end, and the path returns along
    x = -1 below the first run; 2 * rows + 4 vertices.
    """
    pts = []
    for k in range(rows):
        xs = (0.0, 1.0) if k % 2 == 0 else (1.0, 0.0)
        pts += [(xs[0], float(k)), (xs[1], float(k))]
    top = float(rows - 1)
    pts += [(-1.0, top), (-1.0, 0.5 * top), (-1.0, -1.0), (0.0, -1.0)]
    return np.array(pts)


def test_simplicity_sweep_matches_brute_force_on_random_and_star_polylines():
    rng = np.random.default_rng(2024)
    verdicts = []
    for _ in range(200):
        pts = rng.uniform(-1.0, 1.0, size=(int(rng.integers(4, 40)), 2))
        verdicts.append(loops._polyline_is_simple(pts))
        assert verdicts[-1] == brute_polyline_is_simple(pts)
        n = int(rng.integers(16, 400))
        curve = StarCurve(rng, harmonics=int(rng.integers(1, 8)),
                          budget=rng.uniform(0.1, 1.5))
        pts = curve(np.linspace(0.0, TWO_PI, n, endpoint=False))
        verdicts.append(loops._polyline_is_simple(pts))
        assert verdicts[-1] == brute_polyline_is_simple(pts)
    assert any(verdicts) and not all(verdicts)


def test_simplicity_sweep_accepts_touching_on_a_half_integer_grid():
    # vertices on a half-integer grid make touching exact: shared vertices,
    # collinear overlaps and T-junctions are not proper crossings
    touching = [
        [(0, 0), (1, 1), (2, 0), (2, 2), (1, 1), (0, 2)],
        [(0, 0), (4, 0), (4, 2), (2, 0), (1, 2), (0, 2)],
        [(0, 0), (3, 0), (3, 1), (2, 1), (2, 0), (1, 0), (1, 1), (0, 1)],
        [(0, 0), (2, 0), (2, 1), (1, 0), (0.5, 0.5), (0, 1)],
    ]
    for pts in touching:
        pts = np.array(pts, dtype=float)
        assert loops._polyline_is_simple(pts)
        assert brute_polyline_is_simple(pts)
    rng = np.random.default_rng(11)
    verdicts = []
    for _ in range(400):
        pts = 0.5 * rng.integers(-4, 5, size=(int(rng.integers(4, 16)), 2))
        verdicts.append(loops._polyline_is_simple(pts))
        assert verdicts[-1] == brute_polyline_is_simple(pts)
    assert any(verdicts) and not all(verdicts)


def test_simplicity_sweep_sees_a_crossing_across_the_wrap():
    # segment n-2 (last-but-one vertex to last) crosses segment 0
    n = 64
    pts = unit_circle_pts(n)
    assert loops._polyline_is_simple(pts)
    mid = 0.5 * (pts[0] + pts[1])
    pts[n - 1] = mid + 0.1 * (mid - pts[n - 2])

    def side(p, q, r):
        return np.sign((q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]))

    a, b, c, d = pts[n - 2], pts[n - 1], pts[0], pts[1]
    assert side(a, b, c) * side(a, b, d) < 0 and side(c, d, a) * side(c, d, b) < 0
    assert not brute_polyline_is_simple(pts)
    assert not loops._polyline_is_simple(pts)


def test_simplicity_sweep_on_a_serpentine():
    pts = serpentine(2046)
    n = pts.shape[0]
    assert n == 4096
    assert brute_polyline_is_simple(pts)
    assert loops._polyline_is_simple(pts)
    # pull one vertex down across the run two segments before it
    bad = pts.copy()
    k = 1001
    bad[2 * k] = (0.5, k - 1.5)
    assert not brute_polyline_is_simple(bad)
    assert not loops._polyline_is_simple(bad)


def test_simplicity_sweep_skips_the_predicate_without_candidates(monkeypatch):
    # on a smooth loop no two non-adjacent segments have meeting boxes, so no
    # block keeps a candidate and the orientation predicate never runs
    calls = []
    cross = loops._cross
    monkeypatch.setattr(loops, "_cross", lambda u, v: calls.append(u.shape) or cross(u, v))
    pts = StarCurve(np.random.default_rng(7), harmonics=5, budget=0.6)(uniform_grid(256))
    assert loops._polyline_is_simple(pts)
    assert brute_polyline_is_simple(pts)
    assert calls == []
    # a block that keeps a pair still decides it: the bow tie's diagonals cross
    assert not loops._polyline_is_simple(np.array([(0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)]))
    assert calls


def test_simplicity_sweep_skips_rounding_crossings_between_disjoint_boxes():
    # segments 0 and 3 lie on one line up to rounding, with disjoint boxes;
    # in floating point the orientation signs are noise and the all-pairs
    # test reports a crossing that exact rational arithmetic rules out
    pts = np.array([
        [0.35617560056901365, -0.04628301584198902],
        [-0.44099159580158864, 0.05730437734101375],
        [-0.6095905348192393, -0.4249908528298701],
        [-0.6493284881808967, 0.08437658463162494],
        [-0.9375972121930688, 0.12183548383440775],
        [-0.16184982015603425, 1.0294389016285883],
    ])
    q = [(Fraction(x), Fraction(y)) for x, y in pts]

    def side(p, r, t):
        return (r[0] - p[0]) * (t[1] - p[1]) - (r[1] - p[1]) * (t[0] - p[0])

    n = len(q)
    for i in range(n):
        for j in range(i + 2, n - (i == 0)):
            a, b, c, d = q[i], q[(i + 1) % n], q[j], q[(j + 1) % n]
            assert not (side(a, b, c) * side(a, b, d) < 0
                        and side(c, d, a) * side(c, d, b) < 0)
    assert not brute_polyline_is_simple(pts)
    assert loops._polyline_is_simple(pts)


def test_candidate_pairs_are_all_x_overlaps_in_bounded_blocks():
    def blocks(pts):
        b = np.roll(pts, -1, axis=0)
        return list(loops._x_overlap_pairs(np.minimum(pts, b), np.maximum(pts, b)))

    def overlaps(pts):
        b = np.roll(pts, -1, axis=0)
        lo = np.minimum(pts, b)[:, 0]
        hi = np.maximum(pts, b)[:, 0]
        meet = (lo[:, None] <= hi[None, :]) & (lo[None, :] <= hi[:, None])
        return {(int(i), int(j)) for i, j in zip(*np.nonzero(np.triu(meet, 1)))}

    rng = np.random.default_rng(3)
    for pts in (rng.uniform(-1.0, 1.0, size=(60, 2)),
                0.5 * rng.integers(-4, 5, size=(60, 2)),
                serpentine(40)):
        got = [tuple(sorted(p)) for i, j in blocks(pts) for p in zip(i.tolist(), j.tolist())]
        assert len(got) == len(set(got))
        assert set(got) == overlaps(pts)

    pts = serpentine(2046)
    n = pts.shape[0]
    sizes = [i.size for i, _ in blocks(pts)]
    assert len(sizes) > 1
    assert max(sizes) <= loops._SIMPLE_BLOCK * n
    assert sum(sizes) > n * n // 4


def test_embedding_rejects_clockwise_without_auto_orient():
    with pytest.raises(OrientationError):
        LoopEmbedding(unit_circle_pts(clockwise=True))
    with pytest.raises(OrientationError):
        DecoratedLoop.build(unit_circle_pts(clockwise=True), samples.standard_form("sin2t"))


def test_auto_orient_reverses_samples():
    pts = unit_circle_pts(64, clockwise=True)
    form = samples.standard_form("mixed")
    loop = DecoratedLoop.build(pts, form, auto_orient=True)
    n = pts.shape[0]
    assert np.array_equal(loop.embedding.samples, pts[(-np.arange(n)) % n])
    assert enclosed_area(loop.embedding) > 0.0
    # the density is pulled back with the samples: beta(t) dt -> -beta(2 pi - t) dt
    t = uniform_grid(64)
    np.testing.assert_allclose(loop.decoration(t), -form(TWO_PI - t), rtol=0.0, atol=1e-14)
    # a counter clockwise curve and its density are kept as they are
    kept = DecoratedLoop.build(loop.embedding.samples, form, auto_orient=True)
    assert np.array_equal(kept.embedding.samples, loop.embedding.samples)
    assert kept.decoration is form
    # a malformed array reaches the embedding's own shape check
    with pytest.raises(ValueError, match="N >= 16"):
        DecoratedLoop.build(np.zeros((32, 3)), form, auto_orient=True)


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
    # the area the embedding stored is the spline area of its samples, bit for
    # bit, whatever the memory layout of the input
    assert enclosed_area(emb) == loops._spline_area(emb.samples)
    assert enclosed_area(LoopEmbedding(np.asfortranarray(emb.samples))) == enclosed_area(emb)


@pytest.mark.parametrize("n, count", [(16, 20), (256, 20), (2048, 20), (100, 7)])
def test_spline_area_matches_the_gauss_rule_and_stacks_bit_for_bit(n, count):
    # the spectral form against a Gauss rule on every cell of the spline, on
    # star loops moved up to 50 away; then the same loops stacked, where 7
    # rows of 100 points fill no power-of-two batch of rows or points
    rng = np.random.default_rng(n)
    grid = uniform_grid(n)
    curves = np.stack([StarCurve(rng)(grid) + rng.uniform(-50.0, 50.0, 2) for _ in range(count)])
    single = [loops._spline_area(pts) for pts in curves]
    for pts, area in zip(curves, single):
        assert area == pytest.approx(reference_gauss_area(pts), rel=1e-13)
    assert loops._spline_area(curves).tolist() == single


def test_enclosed_area_is_unchanged_by_a_translation():
    # samples on a 2^-20 lattice move by (1e4, -7e3) without rounding, so both
    # loops have the same spline up to the shift and the same area
    curve = StarCurve(np.random.default_rng(3))
    pts = np.round(curve(uniform_grid(256)) * 2.0**20) / 2.0**20
    moved = pts + np.array([1e4, -7e3])
    assert np.array_equal(moved - np.array([1e4, -7e3]), pts)
    want = enclosed_area(LoopEmbedding(pts))
    assert enclosed_area(LoopEmbedding(moved)) == pytest.approx(want, rel=1e-13)


def test_eval_and_derivative_wrap_their_argument():
    curve = StarCurve(np.random.default_rng(5))
    emb = LoopEmbedding(curve(np.linspace(0.0, TWO_PI, 64, endpoint=False)))
    t = np.linspace(0.0, TWO_PI, 97)
    for j in (-2, 1, 3):
        shifted = t + TWO_PI * j
        wrapped = np.mod(shifted, TWO_PI)
        assert np.max(np.abs(emb.eval(shifted) - emb.eval(wrapped))) < 1e-14
        assert np.max(np.abs(emb.derivative(shifted) - emb.derivative(wrapped))) < 1e-14


def test_frame_is_orthonormal():
    emb = LoopEmbedding.ellipse(1.1, 0.6)
    s = np.linspace(0.0, TWO_PI, 37)
    tangent, normal = emb.frame(s)
    np.testing.assert_allclose(np.linalg.norm(tangent, axis=-1), 1.0, atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(normal, axis=-1), 1.0, atol=1e-12)
    np.testing.assert_allclose(np.sum(tangent * normal, axis=-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(normal[:, 0], -tangent[:, 1], atol=1e-14)
    np.testing.assert_allclose(normal[:, 1], tangent[:, 0], atol=1e-14)


def _broadcast_perp(u):
    """The quarter turn as one broadcast product of the swapped parts with (1, -1)."""
    return u[..., ::-1] * np.array([1.0, -1.0])


def test_quarter_turn_is_the_swap_times_one_minus_one_to_the_bit():
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.5, -2.25])
    flat = np.stack(np.meshgrid(special, special), axis=-1).reshape(-1, 2)
    for u in (flat, flat[:32].reshape(2, 16, 2), np.asfortranarray(flat)):
        kept = u.copy()
        got = loops._perp(u)
        want = _broadcast_perp(u)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert u.tobytes() == kept.tobytes()
        # (y, -x): the sign of every zero and infinity flips in the second part
        assert np.array_equal(got[..., 0], u[..., 1], equal_nan=True)
        finite_or_inf = ~np.isnan(u[..., 0])
        assert np.array_equal(np.signbit(got[..., 1])[finite_or_inf],
                              ~np.signbit(u[..., 0])[finite_or_inf])


@pytest.mark.parametrize("c", [5e-4, -1.0 / 6.0, 0.0, -0.0, 3.0])
def test_turned_update_is_the_update_by_the_quarter_turn_to_the_bit(c):
    # every pair of special parts for the point and the vector, and their order
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.25, 5e-324])
    pairs = np.stack(np.meshgrid(special, special), axis=-1).reshape(-1, 2)
    p = np.repeat(pairs, len(pairs), axis=0)
    g = np.tile(pairs, (len(pairs), 1))
    for point, vector in ((p, g), (p[:96].reshape(2, 48, 2), g[:96].reshape(2, 48, 2))):
        kept = point.copy(), vector.copy()
        # inf - inf and 0 * inf are NaN
        with np.errstate(invalid="ignore"):
            got = loops._turned(loops._columns(point), c, vector,
                                loops._columns(np.empty(point.shape)),
                                loops._columns(np.empty(point.shape)))
            want = point + c * _broadcast_perp(vector)
        assert got.shape == want.shape and got.dtype == want.dtype
        # the sign and payload of a NaN are not specified; every other bit is
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()
        assert point.tobytes() == kept[0].tobytes() and vector.tobytes() == kept[1].tobytes()


def test_frame_and_area_constraint_keep_their_quarter_turn_bits():
    rng = np.random.default_rng(25)
    emb = samples.random_loop(rng, n=256)
    s = rng.uniform(0.0, TWO_PI, 64)
    tangent, normal = emb.frame(s)
    d = emb.derivative(s)
    want = d / np.linalg.norm(d, axis=-1, keepdims=True)
    assert tangent.tobytes() == want.tobytes()
    assert normal.tobytes() == (-_broadcast_perp(want)).tobytes()
    vec = rng.normal(size=(256, 2))
    raw, _, g, gg = _constraint(emb, vec)
    want = _broadcast_perp(emb.derivative(emb.grid))
    assert g.tobytes() == want.tobytes()
    assert raw == periodic_trapezoid(np.sum(vec * want, axis=1))
    assert gg == periodic_trapezoid(np.sum(want * want, axis=1))


# ---------------------------------------------------------------- decoration


def test_decorated_loop_requires_zeros():
    emb = LoopEmbedding.circle()
    with pytest.raises(MorseViolation):
        DecoratedLoop(emb, samples.standard_form("volume"))


def test_decoration_on_another_embedding_keeps_zeros_and_checks_their_images():
    loop = DecoratedLoop(LoopEmbedding.circle(), samples.standard_form("sin2t"))
    ellipse = LoopEmbedding.ellipse(2.0, 0.5)
    moved = loop._with_embedding(ellipse)
    fresh = DecoratedLoop(ellipse, loop.decoration)
    assert moved.embedding is ellipse and loop.embedding is not ellipse
    assert moved.decoration is loop.decoration
    assert moved.zero_set is loop.zero_set and moved.profile is loop.profile
    np.testing.assert_array_equal(moved.zero_set.zeros, fresh.zero_set.zeros)
    np.testing.assert_array_equal(moved.profile.omegas, fresh.profile.omegas)
    # a curve pinched to touch itself where the zeros pi/2 and 3 pi/2 land
    t = uniform_grid(256)
    pts = np.column_stack([2.0 * np.cos(t), np.sin(t) * np.cos(t) ** 2])
    pts[64] = pts[192] = 0.0
    pinched = LoopEmbedding(pts)
    with pytest.raises(ValidationFailed, match="two zero images coincide"):
        DecoratedLoop(pinched, loop.decoration)
    with pytest.raises(ValidationFailed, match="two zero images coincide"):
        loop._with_embedding(pinched)


class _PlantedImages:
    """An embedding stand-in for the zero-image check: the zeros 0, 1, ..., k - 1
    land on the given points, and the curve's samples set its diameter."""

    def __init__(self, samples, images):
        self._samples = samples
        self._images = images

    def eval(self, t):
        return self._images[np.asarray(t, dtype=int)]


def _zero_images_flagged(embedding, zs):
    try:
        loops._check_zero_images(embedding, zs)
    except ValidationFailed:
        return True
    return False


@pytest.mark.parametrize("centre", [0.0, 1e8])
def test_zero_image_sweep_matches_all_pairs_oracle(centre):
    # points on a curve of diameter about 2, so s = 1e-9 diam is about 2e-9, plus
    # planted pairs f * s apart in a random direction, f in {0.5, 1, 2}, or one ulp
    # apart in y at the same x; at centre 1e8 one ulp is 1.5e-8, so s is below it
    # and the planted pairs round onto a grid of ulps
    rng = np.random.default_rng(int(centre) % 1000 + 31)
    verdicts = set()
    for trial in range(120):
        curve = StarCurve(rng)
        samples_ = curve(uniform_grid(256)) + centre
        s = 1e-9 * max(np.ptp(samples_[:, 0]), np.ptp(samples_[:, 1]))
        k = int(rng.integers(2, 40))
        images = curve(rng.uniform(0.0, TWO_PI, k)) + centre
        for _ in range(int(rng.integers(1, 4))):
            base = images[rng.integers(images.shape[0])]
            if trial % 4 == 3:
                planted = np.array([base[0], np.nextafter(base[1], np.inf)])
            else:
                factor = (0.5, 1.0, 2.0)[trial % 4]
                angle = rng.uniform(0.0, TWO_PI)
                planted = base + factor * s * np.array([np.cos(angle), np.sin(angle)])
            images = np.vstack([images, planted])
        images = rng.permutation(images)
        embedding = _PlantedImages(samples_, images)
        zs = ZeroSet(np.arange(images.shape[0], dtype=float), np.ones(images.shape[0]))
        want = brute_zero_images_coincide(embedding, zs)
        assert _zero_images_flagged(embedding, zs) == want
        verdicts.add(want)
    assert verdicts == {False, True}


def test_profile_and_zero_image_questions_stay_small_at_k4000():
    # none of the four builds a k x k table (128 MB each at k = 4000): the symmetry step on a
    # profile whose every even divisor passes the screen, the equiv shifts with half
    # the shifts passing it, the intertwiner's shift check at a near-miss shift, and
    # the zero images of 4000 zeros on a circle
    k = 4000
    alternating = 1.25 * (-1.0) ** np.arange(k)
    p = alternating.copy()
    p[k - 1] -= 2.0 * 1e-9 * 1.25
    near = VorticityProfile(p, float(np.sum(p)))
    circle = LoopEmbedding.circle()
    zs = ZeroSet(uniform_grid(k), np.ones(k))

    def transport():
        with pytest.raises(ProfileMismatch, match="do not match at shift 2"):
            _transport(None, None, near, None, None, near, 2, 1e-9, 64)

    questions = {
        "symmetry_step": lambda: symmetry_step(near),
        "circular_match": lambda: circular_match(alternating, p),
        "_transport": transport,
        "_check_zero_images": lambda: loops._check_zero_images(circle, zs),
    }
    answers = {}
    for name, ask in questions.items():
        tracemalloc.start()
        try:
            answers[name] = ask()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, (name, peak)
    assert answers == {"symmetry_step": k, "circular_match": [], "_transport": None,
                       "_check_zero_images": None}


def test_reversed_decoration_flips_total():
    form = CircleForm.trig(0.1, sin=np.array([0.0, 1.0]))
    rev = reversed_decoration(form)
    t = np.linspace(0.0, TWO_PI, 257)
    np.testing.assert_allclose(rev(t), -form(TWO_PI - t), atol=1e-12)
    back = reversed_decoration(rev)
    np.testing.assert_allclose(back(t), form(t), atol=1e-12)
    prof = partial_vorticities(form, find_zeros(form))
    prof_rev = partial_vorticities(rev, find_zeros(rev))
    assert prof_rev.total == pytest.approx(-prof.total, abs=1e-12)
    assert prof.total == pytest.approx(0.2 * np.pi, abs=1e-12)


@pytest.mark.parametrize("kind", ["trig", "samples"])
def test_reversal_rebuild_negates_momentum(kind):
    rng = np.random.default_rng(8)
    curve = StarCurve(rng)
    n = 256
    grid = np.linspace(0.0, TWO_PI, n, endpoint=False)
    pts = curve(grid)
    form = samples.standard_form("mixed")
    if kind == "samples":
        form = CircleForm.from_samples(form(grid))
    loop = DecoratedLoop(LoopEmbedding(pts), form)
    # clockwise traversal of the same point set, index 0 kept in place
    cw = pts[(-np.arange(n)) % n]
    flipped = DecoratedLoop.build(cw, form, auto_orient=True)
    assert flipped.decoration.kind == kind
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


@pytest.mark.parametrize("factor", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("rel_tol", [1e-9, 1e-6])
def test_circular_match_near_misses_match_brute_force(rel_tol, factor):
    # q is p shifted, and p repeats a block, so several shifts match; then one entry
    # of q moves by factor * tol: the first pair (p_0, q_j) of the planted shift j,
    # which the screen reads, or any other
    rng = np.random.default_rng([int(-np.log10(rel_tol)), int(2 * factor)])
    for trial in range(150):
        k = int(rng.choice([2, 6, 12, 24, 60]))
        tile = int(rng.choice([d for d in range(2, k + 1, 2) if k % d == 0]))
        p = np.tile(rng.uniform(0.5, 2.0, tile) * (-1.0) ** np.arange(tile), k // tile)
        shift = int(rng.integers(k))
        q = np.roll(p, shift)
        tol = rel_tol * np.max(np.abs(p))
        i = shift if trial % 2 else int(rng.integers(k))
        q[i] += factor * tol * rng.choice([-1.0, 1.0])
        assert circular_match(p, q, rel_tol) == brute_circular_match(p, q, rel_tol)


@pytest.mark.parametrize("k", [4, 12, 60])
def test_circular_match_of_a_constant_alternating_profile_with_one_entry_off(k):
    # half the shifts pass the screen (p_0 == q_j) and all of them fail on the one
    # entry of q moved by 2 tol
    p = 1.25 * (-1.0) ** np.arange(k)
    assert circular_match(p, p) == list(range(0, k, 2)) == brute_circular_match(p, p)
    q = p.copy()
    q[k // 2 + 1] += 2.0 * 1e-9 * 1.25
    assert circular_match(p, q) == [] == brute_circular_match(p, q)


def test_profile_tolerance_is_inclusive_at_the_screened_pair():
    # rel_tol 2^-30 of max|p| = 2 is tol = 2^-29 exactly, and 1 + 2^-29 is a double, so the
    # first pair of shift 0, and of the step 2 of q, differs by exactly tol and matches
    rel_tol = 2.0 ** -30
    p = np.tile([1.0, -2.0], 3)
    q = p.copy()
    q[0] += 2.0 ** -29
    assert circular_match(p, q, rel_tol) == [0, 2, 4] == brute_circular_match(p, q, rel_tol)
    assert symmetry_step(VorticityProfile(q, 0.0), rel_tol) == 2
    q[0] = np.nextafter(q[0], 2.0)
    assert circular_match(p, q, rel_tol) == [] == brute_circular_match(p, q, rel_tol)
    assert symmetry_step(VorticityProfile(q, 0.0), rel_tol) == 6


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

    ident = intertwiner(loop, loop, 0)
    assert np.max(np.abs(ident(t) - t)) < 1e-10

    half = intertwiner(loop, loop, 2)
    gap = np.mod(half(t) - (t + np.pi) + np.pi, TWO_PI) - np.pi
    assert np.max(np.abs(gap)) < 1e-10


def test_intertwiner_rejects_bad_shift_and_k():
    sin2t = samples.standard_form("sin2t")
    loop = DecoratedLoop(LoopEmbedding.circle(), sin2t)
    with pytest.raises(ProfileMismatch):
        intertwiner(loop, loop, 1)
    with pytest.raises(ProfileMismatch):
        intertwiner(DecoratedLoop(LoopEmbedding.circle(), samples.standard_form("sin3t")),
                    loop, 0)


def test_intertwiner_recovers_reparametrization():
    rng = np.random.default_rng(41)
    model = samples.random_morse_form(rng)
    gamma = samples.random_monotone_diffeo(rng)
    target_form = samples.pullback_through(gamma, model)
    loop = DecoratedLoop(LoopEmbedding.circle(), target_form)

    model_loop = DecoratedLoop(LoopEmbedding.circle(), model)
    model_zeros = model_loop.zero_set.zeros
    z0 = np.mod(gamma.inverse_eval(model_zeros[0]), TWO_PI)
    gaps = np.mod(loop.zero_set.zeros - z0 + np.pi, TWO_PI) - np.pi
    shift = int(np.argmin(np.abs(gaps)))

    psi = intertwiner(model_loop, loop, shift, grid_size=1024)
    t = np.linspace(0.0, TWO_PI, 2001)
    diff = np.mod(psi(t) - gamma.inverse_eval(t) + np.pi, TWO_PI) - np.pi
    assert np.max(np.abs(diff)) < 1e-8

    # partial vorticities do not change under any orientation-preserving map,
    # so this checks pushforward_form, not psi
    pushed = pushforward_form(psi, model)
    prof = partial_vorticities(pushed, find_zeros(pushed))
    scale = np.max(np.abs(loop.profile.omegas))
    np.testing.assert_allclose(prof.omegas, loop.profile.omegas, atol=1e-8 * scale)
    # the defining relation: target antiderivative through psi minus the
    # model's is constant (2.9e-11 of max|omega| here)
    assert loops._intertwining_residual(model, target_form, psi) <= 1e-10 * scale


@pytest.mark.parametrize("size", [1024, 4096])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_intertwining_residual_is_the_map_at_its_midpoints_bit_for_bit(seed, size):
    # psi evaluated cell by cell at its cell midpoints, against psi(t), which
    # wraps, searches and gathers: on an intertwiner and on a map from bare
    # samples that start a turn on
    rng = np.random.default_rng(seed)
    model = samples.random_morse_form(rng)
    gamma = samples.random_monotone_diffeo(rng)
    target_form = samples.pullback_through(gamma, model)
    model_loop = DecoratedLoop(LoopEmbedding.circle(), model)
    target_loop = DecoratedLoop(LoopEmbedding.circle(), target_form)
    shifts = circular_match(model_loop.profile, target_loop.profile)
    assert shifts
    grid = uniform_grid(size)
    for psi in (intertwiner(model_loop, target_loop, shifts[0], grid_size=size),
                loops.CircleDiffeo(gamma.inverse_eval(grid) + TWO_PI)):
        t = psi.grid + np.pi / psi.size
        want = float(np.ptp(target_form.antiderivative(psi(t)) - model.antiderivative(t)))
        got = loops._intertwining_residual(model, target_form, psi)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_analytic_inverse_raises_when_newton_does_not_converge():
    gamma = samples.random_monotone_diffeo(np.random.default_rng(5))
    s = np.linspace(-20.0, 20.0, 401)
    np.testing.assert_allclose(gamma(gamma.inverse_eval(s)), s, rtol=0.0, atol=1e-13)
    with pytest.raises(VortexLoopError, match="did not converge"):
        gamma.inverse_eval(np.nan)


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

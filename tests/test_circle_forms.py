import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import TWO_PI, brute_symmetry_step, oracle_zeros, oracle_integral, oracle_profile
from vortexloop.circle_forms import (
    CircleDiffeo,
    _invert_batch,
    _newton_bracketed,
    CircleForm,
    VorticityProfile,
    cumulative,
    find_zeros,
    invert_cumulative,
    partial_vorticities,
    pullback_form,
    stabilizer_generator,
    symmetry_step,
)
from vortexloop.errors import MorseViolation, NoSymmetry, ProfileMismatch, VortexLoopError
from vortexloop.samples import (
    near_degenerate_form,
    random_morse_form,
    standard_form,
    symmetric_form,
    symmetric_form_profile,
)


def circle_dist(a, b):
    d = np.abs(np.mod(a, TWO_PI) - np.mod(b, TWO_PI))
    return np.minimum(d, TWO_PI - d)


# -- evaluation ---------------------------------------------------------------


@pytest.mark.parametrize("degree", [0, 1, 5, 25, 100])
def test_trig_evaluation_matches_naive_fourier_sum(degree):
    rng = np.random.default_rng(degree)
    # unequal lengths: the shorter coefficient list is zero-padded to the degree
    n_cos, n_sin = (degree, degree // 2) if degree % 2 == 0 else (degree // 2, degree)
    a0 = rng.normal()
    cos_c = rng.normal(size=n_cos)
    sin_c = rng.normal(size=n_sin)
    form = CircleForm("trig", a0=a0, cos_coeffs=cos_c, sin_coeffs=sin_c)
    assert form.degree == degree
    t = rng.uniform(-10.0, 10.0, size=40)
    value, slope, integral = np.full_like(t, a0), np.zeros_like(t), a0 * t
    for j, a in enumerate(cos_c, start=1):
        value += a * np.cos(j * t)
        slope -= j * a * np.sin(j * t)
        integral += a * np.sin(j * t) / j
    for j, b in enumerate(sin_c, start=1):
        value += b * np.sin(j * t)
        slope += j * b * np.cos(j * t)
        integral += b * (1.0 - np.cos(j * t)) / j
    m1 = (np.sum(np.arange(1, n_cos + 1) * np.abs(cos_c))
          + np.sum(np.arange(1, n_sin + 1) * np.abs(sin_c)))
    tol = 1e-13 * max(1.0, m1)
    # rounding in z**j grows like j * eps, so the value bound grows with m1 too
    assert np.max(np.abs(form(t) - value)) < 1e-13 * max(1.0, 1e-2 * m1)
    assert np.max(np.abs(form.derivative(t) - slope)) < tol
    assert np.max(np.abs(form.antiderivative(t) - integral)) < tol
    for method, expected in [(form, value), (form.derivative, slope),
                             (form.antiderivative, integral)]:
        out = method(float(t[0]))
        assert type(out) is float
        assert abs(out - expected[0]) < tol


def test_derivative_matches_central_differences():
    form = standard_form("mixed")
    t = np.linspace(0.0, TWO_PI, 17)
    step = 1e-6
    fd = (form(t + step) - form(t - step)) / (2 * step)
    assert np.max(np.abs(form.derivative(t) - fd)) < 1e-8


def test_antiderivative_differences_match_quadpack():
    form = standard_form("mixed")
    for a, b in [(0.0, 1.0), (1.5, 5.9), (-2.0, 9.0)]:
        assert abs(form.integrate(a, b) - oracle_integral(form, a, b)) < 1e-11


def test_antiderivative_period_increment_is_total_vorticity():
    form = CircleForm("trig", a0=0.7, cos_coeffs=[0.2], sin_coeffs=[0.0, 1.0])
    t = np.linspace(-5.0, 5.0, 11)
    inc = form.antiderivative(t + TWO_PI) - form.antiderivative(t)
    assert np.max(np.abs(inc - 0.7 * TWO_PI)) < 1e-12


def test_sampled_form_interpolates_its_nodes():
    rng = np.random.default_rng(1)
    vals = rng.normal(size=64)
    form = CircleForm.from_samples(vals)
    grid = np.arange(64) * (TWO_PI / 64)
    assert np.max(np.abs(form(grid) - vals)) < 1e-13


def test_sampled_form_wraps_its_argument():
    # the spline wraps any real parameter onto the period itself
    rng = np.random.default_rng(2)
    form = CircleForm.from_samples(rng.normal(size=48))
    t = np.linspace(0.0, TWO_PI, 97)
    for j in (-2, 1, 3):
        shifted = t + TWO_PI * j
        wrapped = np.mod(shifted, TWO_PI)
        assert np.max(np.abs(form(shifted) - form(wrapped))) < 1e-14
        assert np.max(np.abs(form.derivative(shifted) - form.derivative(wrapped))) < 1e-14


def test_sampled_antiderivative_matches_quadpack():
    form = CircleForm.from_samples(np.sin(2 * np.arange(256) * (TWO_PI / 256)))
    got = form.integrate(0.3, 2.9)
    want = oracle_integral(form, 0.3, 2.9, knots=np.arange(257) * (TWO_PI / 256))
    assert abs(got - want) < 1e-9


def test_from_function_reproduces_callable():
    fn = lambda t: np.sin(2 * t) + 0.25 * np.cos(3 * t)
    form = CircleForm.from_function(fn, degree=4)
    t = np.linspace(0.0, TWO_PI, 101)
    assert np.max(np.abs(form(t) - fn(t))) < 1e-12


# -- zeros and profiles -------------------------------------------------------


def test_sin2t_zero_fixture():
    zs = find_zeros(standard_form("sin2t"))
    want = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
    assert np.max(np.abs(zs.zeros - want)) < 1e-10
    assert np.max(np.abs(zs.derivatives - np.array([2.0, -2.0, 2.0, -2.0]))) < 1e-10


def test_mixed_zero_fixture_against_closed_form():
    # zeros of sin(2t) + 0.3 cos(t) = cos(t) (2 sin(t) + 0.3) solve
    # cos t = 0 or sin t = -0.15
    form = standard_form("mixed")
    zs = find_zeros(form)
    want = np.array([np.pi / 2, np.pi + np.arcsin(0.15), 3 * np.pi / 2,
                     TWO_PI - np.arcsin(0.15)])
    assert np.max(np.abs(zs.zeros - want)) < 1e-12
    want_der = np.array([-2.3, 1.955, -1.7, 1.955])
    assert np.max(np.abs(zs.derivatives - want_der)) < 1e-12
    prof = partial_vorticities(form, zs)
    frozen = np.array([-1.3225, 0.7225, -0.7225, 1.3225])
    assert np.max(np.abs(prof.omegas - frozen)) < 1e-12


def test_zero_finder_agrees_with_dense_scan_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        form = random_morse_form(rng)
        zs = find_zeros(form)
        want = oracle_zeros(form)
        assert zs.zeros.size == want.size
        assert np.max(circle_dist(zs.zeros, want)) < 1e-10


def test_profiles_against_quadpack_oracle():
    rng = np.random.default_rng(8)
    for _ in range(6):
        form = random_morse_form(rng)
        zs = find_zeros(form)
        prof = partial_vorticities(form, zs)
        want = oracle_profile(form, zs.zeros)
        assert np.max(np.abs(prof.omegas - want)) < 1e-10
        # signs must alternate for a transversally vanishing density
        signs = np.sign(prof.omegas)
        assert np.all(signs * np.roll(signs, -1) == -1.0)


def test_near_degenerate_zero_is_rejected_with_location():
    with pytest.raises(MorseViolation) as err:
        find_zeros(near_degenerate_form())
    assert "6.28" in str(err.value)


def test_morse_tolerance_is_adjustable():
    form = near_degenerate_form(flatness=1e-9)
    zs = find_zeros(form, morse_tol=1e-12)
    assert zs.k == 4


# -- symmetry step ------------------------------------------------------------


def test_symmetry_steps_of_fixtures():
    cases = [("sin2t", 2), ("sin3t", 2), ("mixed", 4)]
    for name, want in cases:
        prof = partial_vorticities(standard_form(name))
        assert symmetry_step(prof) == want


def test_symmetric_family_profile_and_step():
    form = symmetric_form(eps=0.05, b=0.2)
    prof = partial_vorticities(form)
    assert np.max(np.abs(prof.omegas - symmetric_form_profile(0.2))) < 1e-12
    assert symmetry_step(prof) == 2


@pytest.mark.parametrize("rel_tol", [1e-9, 1e-6, 1e-3])
@pytest.mark.parametrize("noise", [0.0, 1e-12, 1e-9, 1e-6])
def test_symmetry_step_matches_brute_oracle(noise, rel_tol):
    # tiled alternating profiles plus noise; noise at rel_tol puts the
    # deviations on both sides of the tolerance
    rng = np.random.default_rng([int(-np.log10(rel_tol)), int(-np.log10(noise or 1e-99))])
    verdicts = set()
    for _ in range(200):
        k = int(rng.choice([2, 4, 6, 8, 12, 16, 24]))
        tile = int(rng.choice([d for d in range(2, k + 1, 2) if k % d == 0]))
        base = rng.uniform(0.5, 2.0, tile) * (-1.0) ** np.arange(tile)
        omegas = np.tile(base, k // tile) + noise * rng.uniform(-1.0, 1.0, k)
        got = symmetry_step(VorticityProfile(omegas, float(np.sum(omegas))), rel_tol)
        assert got == brute_symmetry_step(omegas, rel_tol)
        if tile < k:
            verdicts.add(got < k)
    if noise == rel_tol:  # at the boundary some tiled profiles match and some do not
        assert verdicts == {False, True}


# -- cumulative integrals -----------------------------------------------------


def test_cumulative_inversion_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(5):
        form = random_morse_form(rng)
        zs = find_zeros(form)
        ext = np.append(zs.zeros, zs.zeros[0] + TWO_PI)
        for i in range(zs.k):
            a, b = ext[i], ext[i + 1]
            omega = cumulative(form, a, b)
            for frac in (0.15, 0.5, 0.85):
                t = invert_cumulative(form, (a, b), frac * omega)
                assert a - 1e-12 <= t <= b + 1e-12
                assert abs(cumulative(form, a, t) - frac * omega) < 1e-11


@pytest.mark.parametrize("kind", ["trig", "samples"])
def test_batched_inversion_over_all_segments_matches_brentq_oracle(kind):
    rng = np.random.default_rng(31)
    form = random_morse_form(rng, min_zeros=4)
    if kind == "samples":
        form = CircleForm.from_samples(form(np.linspace(0.0, TWO_PI, 64, endpoint=False)))
    zs = find_zeros(form)
    omegas = partial_vorticities(form, zs).omegas
    starts = zs.zeros
    lengths = np.diff(np.append(starts, starts[0] + TWO_PI))
    # both ends of every segment exactly and two interior targets, in
    # shuffled segment order; one segment gets no entries at all
    empty = int(rng.integers(zs.k))
    seg = np.repeat(np.delete(np.arange(zs.k), empty), 4)
    frac = rng.uniform(0.05, 0.95, seg.size)
    frac[0::4], frac[1::4] = 0.0, 1.0
    order = rng.permutation(seg.size)
    seg, frac = seg[order], frac[order]
    s = frac * omegas[seg]
    assert np.any(s == 0.0) and np.any(s == omegas[seg])

    got = _invert_batch(form, starts, lengths, omegas, s, seg)
    for x, j, f, target in zip(got, seg, frac, s):
        a, length = starts[j], lengths[j]
        if f in (0.0, 1.0):
            assert x == f * length
        else:
            want = brentq(lambda y: oracle_integral(form, a, a + y) - target, 0.0, length,
                          xtol=1e-14, rtol=8.9e-16)
            assert abs(x - want) < 1e-10


# -- safeguarded Newton kernel ------------------------------------------------


def test_kernel_matches_brentq_oracle_on_rising_falling_and_grid_zeros():
    # zeros at 0 (exact, given as a zero-width bracket), pi (rising) and
    # +-arccos(0.3) (both falling)
    f = lambda t: np.sin(t) * (np.cos(t) - 0.3)
    df = lambda t: np.cos(t) * (np.cos(t) - 0.3) - np.sin(t) ** 2
    lo = np.array([0.0, 2.9, 1.0, 4.8])
    hi = np.array([0.0, 3.3, 1.5, 5.3])
    roots = _newton_bracketed(f, df, 0.0, lo, hi, np.array([1.0, 1.0, -1.0, -1.0]))
    want = oracle_zeros(f)
    assert want.size == 4
    assert np.max(np.abs(np.sort(roots) - want)) < 1e-13


def test_kernel_escapes_two_cycle_at_bracket_end():
    # The derivative is reported at half the true slope, so every Newton step
    # overshoots onto the mirror point: 1.5 -> 0.5 -> 1.5, each landing on the
    # end of the closed bracket with the same step.  Accepting those steps
    # never shrinks the bracket; the same two-cycle, with residuals of
    # +-6.7e-16 on a 1.3e-13 bracket, occurred at the rounding floor inside
    # the intertwiner (test_intertwiner_recovers_reparametrization).
    root = _newton_bracketed(lambda t: t - 1.0, lambda t: np.full_like(t, 0.5),
                             0.0, [0.0], [3.0])
    assert abs(root[0] - 1.0) < 1e-13


def test_kernel_raises_on_nan_density():
    with pytest.raises(VortexLoopError, match="did not converge"):
        _newton_bracketed(lambda t: np.full_like(t, np.nan), np.ones_like, 0.0,
                          [0.0, 1.0], [0.5, 1.5])


# -- stabilizers and transport ------------------------------------------------


def test_sin2t_stabilizer_is_rotation_by_pi():
    psi = stabilizer_generator(standard_form("sin2t"))
    t = np.linspace(0.0, TWO_PI, 257)
    assert np.max(circle_dist(psi(t), t + np.pi)) < 1e-12


def test_sin3t_stabilizer_has_order_three():
    psi = stabilizer_generator(standard_form("sin3t"))
    cubed = psi.compose(psi).compose(psi)
    t = np.linspace(0.0, TWO_PI, 257)
    assert np.max(circle_dist(cubed(t), t)) < 1e-11


def test_nonrigid_stabilizer_squares_to_identity():
    form = symmetric_form(eps=0.05, b=0.2)
    psi = stabilizer_generator(form)
    t = np.linspace(0.0, TWO_PI, 1001)
    # genuinely non-rigid: far from every rigid rotation
    off = [np.max(circle_dist(psi(t), t + c)) for c in np.linspace(0, TWO_PI, 64)]
    assert min(off) > 1e-2
    squared = psi.compose(psi)
    assert np.max(circle_dist(squared(t), t)) < 1e-10


def test_stabilizer_satisfies_transport_relation():
    # beta(psi(t)) psi'(t) = beta(t) defines the stabilizer
    form = symmetric_form(eps=0.05, b=0.2)
    psi = stabilizer_generator(form)
    t = np.linspace(0.0, TWO_PI, 777)
    lhs = form(np.mod(psi(t), TWO_PI)) * psi.derivative(t)
    assert np.max(np.abs(lhs - form(t))) < 1e-8


def test_trivial_profile_has_no_stabilizer():
    with pytest.raises(NoSymmetry):
        stabilizer_generator(standard_form("mixed"))


def test_stabilizer_with_explicit_step():
    mixed = standard_form("mixed")
    with pytest.raises(ProfileMismatch):
        stabilizer_generator(mixed, 2)
    with pytest.raises(ValueError):
        stabilizer_generator(mixed, 3)
    with pytest.raises(NoSymmetry):
        stabilizer_generator(mixed, 4)
    form = symmetric_form(eps=0.05, b=0.2)
    np.testing.assert_array_equal(stabilizer_generator(form, 2).samples,
                                  stabilizer_generator(form).samples)


# -- circle diffeomorphisms ---------------------------------------------------


def test_identity_and_rotation_are_exact():
    ident = CircleDiffeo.identity()
    rot = CircleDiffeo.rotation(0.7)
    t = np.linspace(-3.0, 9.0, 41)
    assert np.max(np.abs(ident(t) - t)) < 1e-13
    assert np.max(np.abs(rot(t) - (t + 0.7))) < 1e-12
    assert np.max(np.abs(rot.derivative(t) - 1.0)) < 1e-12


def test_inverse_round_trip():
    psi = stabilizer_generator(symmetric_form(eps=0.05, b=0.2))
    inv = psi.inverse()
    t = np.linspace(0.0, TWO_PI, 513)
    assert np.max(circle_dist(psi(inv(t)), t)) < 1e-11
    assert np.max(circle_dist(inv(psi(t)), t)) < 1e-11


def test_inverse_round_trip_without_derivative_data():
    # bare samples: PCHIP interpolation, the inverse solved on the forward map
    psi = CircleDiffeo.from_function(lambda s: s + 0.3 * np.sin(s) + 0.2, size=256)
    inv = psi.inverse()
    assert inv.sample_derivatives is None
    assert np.max(circle_dist(psi(inv.samples), inv.grid)) < 1e-13
    t = np.linspace(0.0, TWO_PI, 1001)
    assert np.max(circle_dist(psi(inv(t)), t)) < 1e-5
    assert np.max(circle_dist(inv(psi(t)), t)) < 1e-5


def test_compose_matches_nested_evaluation():
    psi = stabilizer_generator(standard_form("sin3t"))
    rot = CircleDiffeo.rotation(0.4)
    comp = rot.compose(psi)
    t = np.linspace(0.0, TWO_PI, 333)
    assert np.max(circle_dist(comp(t), rot(psi(t)))) < 1e-10


def test_diffeo_rejects_nonmonotone_samples():
    bad = np.array([0.0, 1.0, 0.5, 2.0])
    with pytest.raises(Exception):
        CircleDiffeo(bad)


def test_winding_is_respected():
    rot = CircleDiffeo.rotation(0.3)
    assert abs(rot(TWO_PI + 0.1) - (TWO_PI + 0.4)) < 1e-12
    assert abs(rot(-TWO_PI) - (-TWO_PI + 0.3)) < 1e-12


# -- pullbacks ----------------------------------------------------------------


def test_pullback_through_rotation_shifts_density():
    form = standard_form("mixed")
    rot = CircleDiffeo.rotation(0.9)
    pulled = pullback_form(rot, form)
    t = np.linspace(0.0, TWO_PI, 257)
    assert np.max(np.abs(pulled(t) - form(np.mod(t + 0.9, TWO_PI)))) < 1e-9


def test_pullback_preserves_total_vorticity():
    form = CircleForm("trig", a0=0.3, sin_coeffs=[0.0, 1.0])
    psi = CircleDiffeo.rotation(1.1)
    pulled = pullback_form(psi, form)
    got = pulled.integrate(0.0, TWO_PI)
    assert abs(got - 0.3 * TWO_PI) < 1e-9

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import (
    TWO_PI,
    brute_symmetry_step,
    near_degenerate_form,
    oracle_integral,
    oracle_profile,
    oracle_zeros,
    reference_inverse_hermite,
    reference_power_sum,
    reference_trig_grid,
)
from vortexloop import circle_forms
from vortexloop.circle_forms import (
    _HORNER_MIN_POINTS,
    CircleDiffeo,
    _invert_batch,
    _newton_bracketed,
    _power_sum,
    _rounding_floor,
    CircleForm,
    VorticityProfile,
    ZeroSet,
    cumulative,
    find_zeros,
    invert_cumulative,
    partial_vorticities,
    pullback_form,
    stabilizer_generator,
    symmetry_step,
)
from vortexloop.errors import (
    AlternationViolation,
    MorseViolation,
    NoSymmetry,
    OutOfRange,
    ProfileMismatch,
    VortexLoopError,
)
from vortexloop.io import form_to_dict
from vortexloop.quadrature import uniform_grid
from vortexloop.samples import (
    random_monotone_diffeo,
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
    form = CircleForm.trig(a0, cos_c, sin_c)
    assert form.degree == degree

    def naive(t):
        value, slope, integral = np.full_like(t, a0), np.zeros_like(t), a0 * t
        for j, a in enumerate(cos_c, start=1):
            value += a * np.cos(j * t)
            slope -= j * a * np.sin(j * t)
            integral += a * np.sin(j * t) / j
        for j, b in enumerate(sin_c, start=1):
            value += b * np.sin(j * t)
            slope += j * b * np.cos(j * t)
            integral += b * (1.0 - np.cos(j * t)) / j
        return value, slope, integral

    t = rng.uniform(-10.0, 10.0, size=40)
    value, slope, integral = naive(t)
    m1 = (np.sum(np.arange(1, n_cos + 1) * np.abs(cos_c))
          + np.sum(np.arange(1, n_sin + 1) * np.abs(sin_c)))
    tol = 1e-13 * max(1.0, m1)
    # rounding in z**j grows like j * eps, so the value bound grows with m1 too
    value_tol = 1e-13 * max(1.0, 1e-2 * m1)
    assert np.max(np.abs(form(t) - value)) < value_tol
    assert np.max(np.abs(form.derivative(t) - slope)) < tol
    assert np.max(np.abs(form.antiderivative(t) - integral)) < tol
    # the uniform-grid evaluator; on 8 and 16 points the higher harmonics alias
    for n in (8, 16, 4096):
        grid_value, grid_slope, _ = naive(uniform_grid(n))
        assert np.max(np.abs(form._on_uniform_grid(n, 0) - grid_value)) < value_tol
        assert np.max(np.abs(form._on_uniform_grid(n, 1) - grid_slope)) < tol
    for method, expected in [(form, value), (form.derivative, slope),
                             (form.antiderivative, integral)]:
        out = method(float(t[0]))
        assert type(out) is float
        assert abs(out - expected[0]) < tol


@pytest.mark.parametrize("degree", [0, 1, 3, 25, 100, 511, 512, 1024, 4095, 5000])
def test_trig_grid_is_the_reference_evaluator_bit_for_bit(degree):
    # the coefficients go into zero bins and fold only when they outnumber the
    # bins; n below the degree aliases, and one of cos and sin may be shorter
    rng = np.random.default_rng(degree)
    for n_cos, n_sin in ((degree, degree), (degree, degree // 3), (degree // 2, degree)):
        form = CircleForm.trig(rng.normal(), rng.normal(size=n_cos), rng.normal(size=n_sin))
        for n in (1, 2, 3, 7, 64, 1000, 1024, 4096, 8 * degree + 3):
            for order in (0, 1):
                got = form._on_uniform_grid(n, order)
                want = reference_trig_grid(form, n, order)
                assert got.shape == want.shape == (n,)
                assert got.tobytes() == want.tobytes(), (n_cos, n_sin, n, order)


@pytest.mark.parametrize("n_cos, n_sin", [(5, 2), (2, 5), (3, 0), (0, 3)])
def test_trig_padding_keeps_the_sign_of_zero(n_cos, n_sin):
    # the shorter list is padded with +0.0 and the imaginary parts -b_j with -0.0, as
    # np.pad builds them; trig_coefficients and form_to_dict expose both signs
    a = np.array([1.5, 0.0, -0.0, -2.0, 0.25])[:n_cos]
    b = np.array([-0.0, 0.5, 0.0, 3.0, -1.0])[:n_sin]
    form = CircleForm.trig(0.5, a, b)
    m = max(n_cos, n_sin)
    want = np.pad(a, (0, m - a.size)).astype(complex)
    want.imag = -np.pad(b, (0, m - b.size))
    assert form._coeffs.tobytes() == want.tobytes()
    _, cos, sin = form.trig_coefficients
    assert cos.tobytes() == want.real.tobytes()
    assert sin.tobytes() == (-want.imag).tobytes()
    doc = form_to_dict(form)["coeffs"]
    assert np.signbit(doc["cos"]).tolist() == np.signbit(want.real).tolist()
    assert np.signbit(doc["sin"]).tolist() == np.signbit(-want.imag).tolist()


def long_double_power_sum(coeffs, t, minus_one):
    """``Re sum_j coeffs[j-1] z**j`` (or ``z**j - 1``) with ``z = e^{it}``, in long double.

    ``cos(jt) - 1`` is taken as ``-2 sin^2(jt/2)``, so the oracle itself has
    no cancellation near a whole number of turns.
    """
    t = np.asarray(t, dtype=np.longdouble)
    out = np.zeros_like(t)
    for j, c in enumerate(coeffs, start=1):
        real = -2.0 * np.sin(j * t / 2) ** 2 if minus_one else np.cos(j * t)
        out += np.longdouble(c.real) * real - np.longdouble(c.imag) * np.sin(j * t)
    return out


@pytest.mark.parametrize("points", [12, _HORNER_MIN_POINTS - 1, _HORNER_MIN_POINTS, 4096])
@pytest.mark.parametrize("degree", [1, 3, 25, 100])
def test_power_sum_matches_long_double_oracle(degree, points):
    rng = np.random.default_rng(1000 * degree + points)
    form = CircleForm.trig(rng.normal(), rng.normal(size=degree), rng.normal(size=degree))
    t = rng.uniform(-20.0, 20.0, points)
    # 1e-9 either side of 0, of 2 pi, and of whole turns several periods away
    t[:8] = TWO_PI * np.array([0, 0, 1, 1, 3, 3, -5, -5]) + np.array([1e-9, -1e-9] * 4)
    eps = np.finfo(float).eps
    j = np.arange(1, degree + 1)
    for coeffs, tails in [(form._coeffs, None), (form._dcoeffs, None),
                          (form._icoeffs, form._itails)]:
        got = _power_sum(coeffs, t, tails)
        err = np.abs(got - long_double_power_sum(coeffs, t, tails is not None)).astype(float)
        bound = 8.0 * eps * np.sum(j * np.abs(coeffs))
        if tails is not None and points >= _HORNER_MIN_POINTS:
            # (z - 1) sum_k d_k z**k: the error shrinks with |z - 1| = 2 |sin(t/2)|,
            # where Horner on z**j less sum_j c_j would keep an error of order eps
            bound = bound * np.abs(2.0 * np.sin(t / 2))
        assert np.all(err <= bound), float(np.max(err / bound))


@pytest.mark.parametrize("points", [120, _HORNER_MIN_POINTS - 1, _HORNER_MIN_POINTS, 4096])
@pytest.mark.parametrize("degree", [1, 3, 25, 100])
def test_power_sum_is_the_complex_exponential_route_bit_for_bit(degree, points):
    # the unit phase is cos t + i sin t, which numpy's exp(1j * t) equals to the
    # bit, but at t = -0.0: there 1j * t is -0.0 + 0.0j, whose exponential has
    # the imaginary part +0.0, where sin(-0.0) is -0.0.  A sum at -0.0 may then
    # be a zero of the other sign, so it is compared by value
    rng = np.random.default_rng(100 * degree + points)
    form = CircleForm.trig(rng.normal(), rng.normal(size=degree), rng.normal(size=degree))
    special = np.concatenate([[0.0, 1e8, -1e8, 5e-324, -5e-324, 2.5e-310],
                              0.5 * np.pi * np.arange(-8, 9), [-0.0]])
    t = rng.uniform(-4.0 * np.pi, 4.0 * np.pi, points)
    t[:special.size] = special
    negative_zero = (t == 0.0) & np.signbit(t)
    assert negative_zero.sum() == 1
    for coeffs, tails in [(form._coeffs, None), (form._dcoeffs, None),
                          (form._icoeffs, form._itails)]:
        got = _power_sum(coeffs, t, tails)
        want = reference_power_sum(coeffs, t, tails)
        assert got.view(np.uint64)[~negative_zero].tolist() == (
            want.view(np.uint64)[~negative_zero].tolist())
        assert got[negative_zero] == want[negative_zero]
        # and on points of any shape, a single one included
        plain = np.where(negative_zero, 0.0, t)
        for shaped in (plain[:points // 2 * 2].reshape(2, -1), plain[points // 3]):
            assert_same_bits(_power_sum(coeffs, shaped, tails),
                             reference_power_sum(coeffs, shaped, tails))


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _parabola_cells(rng, size):
    """Cells of F(t) = (t - z)^2 on [z, z + h] or -(t - z)^2 + h^2 on [z - h, z]
    rising to a zero of F' at z: a segment that ends at a zero of the density."""
    z = rng.uniform(0.0, TWO_PI, size)
    h = rng.uniform(1e-3, 0.1, size)
    left = rng.random(size) < 0.5
    t0, t1 = np.where(left, z, z - h), np.where(left, z + h, z)
    y0, y1 = np.where(left, 0.0, -h * h), np.where(left, h * h, 0.0)
    d0, d1 = np.where(left, 0.0, 2.0 * h), np.where(left, 2.0 * h, 0.0)
    y = y0 + rng.uniform(0.0, 1.0, size) * (y1 - y0)
    return y, y0, y1, t0, t1, d0, d1


def test_inverse_hermite_is_the_three_way_formula_bit_for_bit():
    rng = np.random.default_rng(44)
    size = 512
    # cells of a smooth rising F, whose cubic start stays inside
    t0 = np.sort(rng.uniform(0.0, TWO_PI, size))
    t1 = t0 + rng.uniform(1e-3, 0.1, size)
    y0 = rng.normal(size=size)
    d0, d1 = rng.uniform(0.5, 2.0, size), rng.uniform(0.5, 2.0, size)
    y1 = y0 + (t1 - t0) * 0.5 * (d0 + d1)
    y = y0 + rng.uniform(-0.1, 1.1, size) * (y1 - y0)
    smooth = y, y0, y1, t0, t1, d0, d1
    parabola = _parabola_cells(rng, size)
    # end slopes 0 and inf, in every pairing, a flat cell (dy == 0), and a
    # slope of 1e-20 beside a zero, whose square-root form leaves the cell too
    odd = [np.array(v, dtype=float) for v in zip(*[
        (0.3, 0.0, 1.0, 2.0, 2.5, 0.0, np.inf),
        (0.3, 0.0, 1.0, 2.0, 2.5, np.inf, 0.0),
        (0.3, 0.0, 1.0, 2.0, 2.5, 0.0, 0.0),
        (0.3, 0.0, 1.0, 2.0, 2.5, np.inf, np.inf),
        (0.3, 0.0, 1.0, 2.0, 2.5, 0.0, 1e-20),
        (0.3, 0.0, 1.0, 2.0, 2.5, 1e-20, 0.0),
        (0.5, 0.5, 0.5, 1.0, 1.1, 1.0, 1.0),
        (0.5, 0.5, 0.5, 1.0, 1.1, 0.0, 0.0),
        (0.5, 0.5, 0.5, 1.0, 1.1, 0.0, 2.0),
        (0.0, 0.0, 1.0, 1.0, 1.1, 30.0, 1.0),
        (1.0, 0.0, 1.0, 1.0, 1.1, 1.0, 30.0),
    ])]
    cases = {"smooth": smooth, "parabola": parabola, "odd": odd,
             "mixed": [np.concatenate(v) for v in zip(smooth, parabola, odd)]}
    for name, cells in cases.items():
        got = circle_forms._inverse_hermite(*cells)
        assert_same_bits(got, reference_inverse_hermite(*cells))
        assert np.all((got >= cells[3]) & (got <= cells[4])), name
    # every parabola cell takes the square-root form, exact there up to rounding
    y, y0, y1, t0, t1, d0, _ = parabola
    left = d0 == 0.0
    root = np.sqrt(np.abs(y - np.where(left, y0, y1)))
    exact = np.where(left, t0 + root, t1 - root)
    assert np.max(np.abs(circle_forms._inverse_hermite(*parabola) - exact)) < 1e-15
    # and the cells beside a slope of 1e-20 take the linear interpolant
    linear = odd[3] + 0.3 * (odd[4] - odd[3])
    assert_same_bits(circle_forms._inverse_hermite(*odd)[4:6], linear[4:6])


@pytest.mark.parametrize("degree", [3, 25])
def test_inversions_start_at_the_three_way_formula(monkeypatch, degree):
    # the starts of a batched inversion, whose segments end at zeros of the
    # density, and of a circle map's inverse
    starts, inverse_hermite = [], circle_forms._inverse_hermite

    def spy(*cells):
        starts.append(inverse_hermite(*cells))
        assert_same_bits(starts[-1], reference_inverse_hermite(*cells))
        return starts[-1]

    monkeypatch.setattr(circle_forms, "_inverse_hermite", spy)
    rng = np.random.default_rng(degree)
    form = random_morse_form(rng, degree)
    zs = find_zeros(form)
    omegas = partial_vorticities(form, zs).omegas
    seg = np.sort(rng.integers(zs.k, size=4096))
    ext = np.append(zs.zeros, zs.zeros[0] + TWO_PI)
    _invert_batch(form, zs.zeros, np.diff(ext), omegas,
                  rng.uniform(0.0, 1.0, seg.size) * omegas[seg], seg)
    gamma = random_monotone_diffeo(rng)
    grid = uniform_grid(4096)
    CircleDiffeo(gamma(grid), gamma.derivative(grid)).inverse()
    assert len(starts) == 2


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
    form = CircleForm.trig(0.7, cos=[0.2], sin=[0.0, 1.0])
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


def test_each_constructor_validates_its_own_kind():
    with pytest.raises(TypeError):
        CircleForm("trig", a0=1.0)
    for bad in [dict(a0=np.nan), dict(cos=[1.0, np.inf]), dict(sin=[0.0, -np.inf])]:
        with pytest.raises(ValueError, match="^trig coefficients must be finite$"):
            CircleForm.trig(**bad)
    with pytest.raises(ValueError, match="at least 8 values"):
        CircleForm.from_samples(np.ones(7))
    with pytest.raises(ValueError, match="^sample values must be finite$"):
        CircleForm.from_samples(np.append(np.ones(7), np.nan))
    sampled = CircleForm.from_samples(np.ones(8))
    with pytest.raises(ValueError, match="trig-series forms only"):
        sampled.degree
    with pytest.raises(ValueError, match="^not a trig-series form$"):
        sampled.trig_coefficients
    with pytest.raises(ValueError, match="^not a sampled form$"):
        CircleForm.trig(1.0).sample_values


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


def test_steep_sampled_profile_matches_quadpack():
    # 256 samples of a seeded degree-80 density: a quadrature that ignores the
    # spline knots is off by 1.6e-4 over the period, so the period check must
    # integrate the spline exactly
    rng = np.random.default_rng(0)
    j = np.arange(1, 81)
    trig = CircleForm.trig(cos=rng.standard_normal(80) / j, sin=rng.standard_normal(80) / j)
    h = TWO_PI / 256
    form = CircleForm.from_samples(trig(np.arange(256) * h))
    prof = partial_vorticities(form, find_zeros(form))
    assert prof.k == 28 == oracle_zeros(form).size
    zs = find_zeros(form).zeros
    ext = np.append(zs, zs[0] + TWO_PI)
    want = [oracle_integral(form, a, b, knots=np.arange(513) * h)
            for a, b in zip(ext[:-1], ext[1:])]
    assert np.max(np.abs(prof.omegas - want)) <= 1e-9 * np.max(np.abs(prof.omegas))


@pytest.mark.parametrize("kind", ["trig", "samples"])
def test_period_check_catches_a_drifting_antiderivative(monkeypatch, kind):
    form = standard_form("sin2t")
    if kind == "samples":
        form = CircleForm.from_samples(form(np.arange(256) * (TWO_PI / 256)))
    exact = CircleForm.antiderivative
    monkeypatch.setattr(CircleForm, "antiderivative",
                        lambda self, t: exact(self, t) + 1e-6 * np.asarray(t))
    with pytest.raises(AlternationViolation, match="antiderivative is inconsistent"):
        partial_vorticities(form, find_zeros(form))


def test_partial_vorticities_reject_a_bad_zero_set():
    form = CircleForm.trig(1.0, sin=(0.0, 0.5))  # positive everywhere
    with pytest.raises(MorseViolation, match="at least two zeros"):
        partial_vorticities(form, ZeroSet(np.array([1.0]), np.array([1.0])))
    with pytest.raises(AlternationViolation, match="do not alternate in sign"):
        partial_vorticities(form, ZeroSet(np.array([1.0, 4.0]), np.array([1.0, -1.0])))


def test_close_zero_pair_is_never_reported_as_two():
    # f = delta - u + u^2 with u = 1 - cos(t - c) has zeros near c +- pi/2 and a
    # pair at c +- sqrt(2 delta) = c +- 1e-3, inside one cell of a 1024-point scan
    delta, c = 5e-7, 100.5 * TWO_PI / 1024
    form = CircleForm.trig(delta + 0.5, cos=(-np.cos(c), 0.5 * np.cos(2 * c)),
                           sin=(-np.sin(c), 0.5 * np.sin(2 * c)))
    t = np.linspace(0.0, TWO_PI, 64)
    u = 1.0 - np.cos(t - c)
    np.testing.assert_allclose(form(t), delta - u + u * u, rtol=0.0, atol=1e-15)
    try:
        zs = find_zeros(form)
    except MorseViolation:
        return
    assert zs.k == 4


@pytest.mark.xfail(strict=True, reason="a zero pair inside one scan cell leaves no sign "
                   "change, and the scan does not yet certify such cells")
def test_close_zero_pair_inside_one_cell_of_the_4096_point_scan():
    # the pair at c +- sqrt(2 delta) = c +- 3.2e-4 sits inside the scan cell
    # around c; today find_zeros returns only the zeros near c +- pi/2
    delta, c = 5e-8, 402.5 * TWO_PI / 4096
    form = CircleForm.trig(delta + 0.5, cos=(-np.cos(c), 0.5 * np.cos(2 * c)),
                           sin=(-np.sin(c), 0.5 * np.sin(2 * c)))
    try:
        zs = find_zeros(form)
    except MorseViolation:
        return
    assert zs.k == 4


@pytest.mark.parametrize("degree", [3, 25, 100])
def test_grid_evaluator_leaves_zeros_bit_identical(monkeypatch, degree):
    # grid values only pick scan cells and scales, and a root between grid
    # points is refined on the power sum, so the FFT and the power sum on the
    # grid give the same zeros
    a0, cos, sin = random_morse_form(np.random.default_rng(degree), degree).trig_coefficients
    fast = find_zeros(CircleForm.trig(a0, cos, sin))

    def power_sum_grid(self, n, order=0):
        grid = uniform_grid(n)
        return self(grid) if order == 0 else self.derivative(grid)

    monkeypatch.setattr(CircleForm, "_on_uniform_grid", power_sum_grid)
    reference = find_zeros(CircleForm.trig(a0, cos, sin))
    assert fast.k >= 2
    assert np.array_equal(fast.zeros, reference.zeros)
    assert np.array_equal(fast.derivatives, reference.derivatives)


@pytest.mark.parametrize("kind", ["trig", "samples"])
def test_a_density_evaluates_each_grid_once(monkeypatch, kind):
    # the values for the scan and max_abs, the slopes for max_abs_derivative
    form = standard_form("mixed")
    if kind == "samples":
        form = CircleForm.from_samples(form(uniform_grid(1024)))
    orders = []
    on_grid = CircleForm._on_uniform_grid
    monkeypatch.setattr(CircleForm, "_on_uniform_grid",
                        lambda self, n, order=0: (orders.append(order), on_grid(self, n, order))[1])
    first = find_zeros(form)
    again = find_zeros(form)
    form.max_abs()
    form.max_abs_derivative()
    assert sorted(orders) == [0, 1]
    assert np.array_equal(first.zeros, again.zeros)


@pytest.mark.parametrize("kind", ["trig", "samples"])
def test_zeros_of_a_morse_density_build_no_grid_of_slopes(monkeypatch, kind):
    # every zero's slope clears morse_tol of twice the proven bound on |f'|,
    # so find_zeros evaluates only the values on the density's grid
    def build():
        form = standard_form("mixed")
        return form if kind == "trig" else CircleForm.from_samples(form(uniform_grid(1024)))

    orders = []
    on_grid = CircleForm._on_uniform_grid
    monkeypatch.setattr(CircleForm, "_on_uniform_grid",
                        lambda self, n, order=0: (orders.append(order), on_grid(self, n, order))[1])
    form = build()
    zs = find_zeros(form)
    assert orders == [0]
    # a tolerance that the bound's test flags and the grid's passes: the
    # slopes' grid is built and the same zeros stand
    slope = float(np.min(np.abs(zs.derivatives)))
    bound, dscale = 2.0 * form._derivative_bound(), form.max_abs_derivative()
    assert dscale < bound
    orders.clear()
    again = find_zeros(build(), morse_tol=slope / np.sqrt(bound * dscale))
    assert orders == [0, 1]
    assert np.array_equal(again.zeros, zs.zeros)


def test_near_degenerate_zero_is_rejected_with_location():
    # the message names the zero, its slope and the grid's max|f'|, built
    # only once the bound on |f'| flags the zero
    trig = near_degenerate_form()
    for form, t, slope in ((trig, "6.283185290", "2.000e-09"),
                           (CircleForm.from_samples(trig(uniform_grid(1024))), "6.283185303",
                            "8.143e-09")):
        with pytest.raises(MorseViolation) as err:
            find_zeros(form)
        assert str(err.value) == (f"near-degenerate zero at t={t}: |derivative| = {slope} is "
                                  "below 1.0e-08 of scale 2.000e+00")


def test_identically_zero_density_is_rejected():
    with pytest.raises(MorseViolation, match="^density is identically zero$"):
        find_zeros(CircleForm.trig(0.0))


def test_touching_zero_on_the_scan_grid_is_rejected():
    # 1 - cos t touches zero at t = 0, a scan grid point, without changing sign;
    # at 1e-160 the product of its two neighbours underflows to zero
    for amplitude in (1.0, 1e-160):
        with pytest.raises(MorseViolation, match=r"^degenerate zero near t=0\.000000000: "
                                                 "no transversal crossing$"):
            find_zeros(CircleForm.trig(amplitude, cos=(-amplitude,)))


@pytest.mark.parametrize("amplitude", [1.0, 1e-155, 1e-160])
def test_sign_changes_survive_an_underflowing_product(amplitude):
    # amplitude (cos(t - 1.3) - cos(t0 - 1.3)) vanishes at t0, a scan grid point
    # where it rounds to about amplitude * 1e-17, and at 2.6 - t0; the products
    # of neighbouring grid values underflow to zero at both small amplitudes
    t0 = 100 * TWO_PI / 4096
    form = CircleForm.trig(-amplitude * np.cos(t0 - 1.3), cos=(amplitude * np.cos(1.3),),
                           sin=(amplitude * np.sin(1.3),))
    zs = find_zeros(form)
    assert zs.k == 2
    np.testing.assert_allclose(zs.zeros, [t0, 2.6 - t0], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("a0, cos, sin", [
    pytest.param(1e308, (1e308,), (), id="infinite"),
    pytest.param(1e308, (-1e308, 1e308), (1e308,) * 3, id="nan-and-infinite"),
    pytest.param(0.0, (0.0, 1e308), (), id="derivative"),
    pytest.param(0.0, (1.7e308, 0.8e308), (), id="antiderivative-tail"),
])
def test_overflowing_density_is_rejected(a0, cos, sin):
    # finite coefficients whose grid values, derivative coefficients j c_j or
    # antiderivative tail sums are not finite (the last two are rejected on
    # construction): no zero count can be read, and no numpy warning is raised.
    # The values 1e308 cos 2t are finite, and that density was accepted with NaN
    # derivatives at its zeros.
    with pytest.raises(MorseViolation, match="^density overflows: "):
        find_zeros(CircleForm.trig(a0, cos, sin))


def test_morse_tolerance_is_adjustable():
    form = near_degenerate_form(flatness=1e-9)
    zs = find_zeros(form, morse_tol=1e-12)
    assert zs.k == 4


# -- symmetry step ------------------------------------------------------------


def test_symmetry_steps_of_fixtures():
    cases = [("sin2t", 2), ("sin3t", 2), ("mixed", 4)]
    for name, want in cases:
        form = standard_form(name)
        prof = partial_vorticities(form, find_zeros(form))
        assert symmetry_step(prof) == want


@pytest.mark.parametrize("factor", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("rel_tol", [1e-9, 1e-6])
def test_symmetry_step_near_misses_match_brute_oracle(rel_tol, factor):
    # a planted step l, then one entry moved by factor * tol: either the first pair
    # (omega_0, omega_l) of the planted step, which the screen reads, or any other
    rng = np.random.default_rng([int(-np.log10(rel_tol)), int(2 * factor)])
    for trial in range(120):
        k = int(rng.choice([4, 6, 8, 12, 16, 24]))
        tile = int(rng.choice([d for d in range(2, k, 2) if k % d == 0]))
        omegas = np.tile(rng.uniform(0.5, 2.0, tile) * (-1.0) ** np.arange(tile), k // tile)
        tol = rel_tol * np.max(np.abs(omegas))
        i = tile if trial % 2 else int(rng.integers(k))
        omegas[i] += factor * tol * rng.choice([-1.0, 1.0])
        got = symmetry_step(VorticityProfile(omegas, float(np.sum(omegas))), rel_tol)
        assert got == brute_symmetry_step(omegas, rel_tol)


@pytest.mark.parametrize("k", [4, 12, 24, 60])
def test_symmetry_step_of_a_constant_alternating_profile_with_one_entry_off(k):
    # every even divisor passes the screen (omega_0 == omega_l) and then fails on the
    # one entry moved by 2 tol, so the trivial step k is the answer
    omegas = 1.25 * (-1.0) ** np.arange(k)
    assert symmetry_step(VorticityProfile(omegas, 0.0)) == 2
    omegas[k - 1] -= 2.0 * 1e-9 * 1.25
    assert symmetry_step(VorticityProfile(omegas, float(np.sum(omegas)))) == k
    if k <= 24:
        assert brute_symmetry_step(omegas) == k


def test_symmetric_family_profile_and_step():
    form = symmetric_form()
    prof = partial_vorticities(form, find_zeros(form))
    assert np.max(np.abs(prof.omegas - symmetric_form_profile())) < 1e-12
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
    # spans beyond one period, reversed or flat segments and unreachable targets
    form = standard_form("sin2t")
    with pytest.raises(ValueError, match="t must lie in"):
        cumulative(form, 0.0, TWO_PI + 1e-6)
    with pytest.raises(ValueError, match="segment must be increasing"):
        invert_cumulative(form, (1.0, 0.5), 0.1)
    with pytest.raises(OutOfRange, match="zero vorticity"):
        invert_cumulative(form, (0.0, np.pi), 0.1)
    with pytest.raises(OutOfRange, match="outside the reachable range"):
        invert_cumulative(form, (0.0, np.pi / 2), 1.5)


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


def _counting_antiderivative(form):
    """Wrap ``form.antiderivative`` on the instance; return the list of point counts per call."""
    points = []
    antiderivative = form.antiderivative
    form.antiderivative = lambda t: (points.append(np.size(t)), antiderivative(t))[1]
    return points


def test_batched_inversion_stops_at_the_rounding_floor_where_the_density_is_small():
    # Roots where |density| is 0.0035-0.0045, just inside both ends of every
    # segment of a degree-20 density.  The antiderivative's rounding there
    # moves a root by more than 1e-13, so a solve that stops only on a 1e-13
    # step or bracket stops halving its steps and bisects the rest of its
    # panel: 39 kernel iterations on this form without the residual floor.
    form = random_morse_form(np.random.default_rng(3), 20)
    zs = find_zeros(form)
    omegas = partial_vorticities(form, zs).omegas
    starts = zs.zeros
    lengths = np.diff(np.append(starts, starts[0] + TWO_PI))
    density = np.array([0.0035, 0.004, 0.0045])
    head = density[None, :] / np.abs(zs.derivatives)[:, None]
    tail = lengths[:, None] - density[None, :] / np.abs(np.roll(zs.derivatives, -1))[:, None]
    seg = np.repeat(np.arange(zs.k), 6)
    x = np.concatenate([head, tail], axis=1).ravel()
    s = np.array([form.integrate(starts[j], starts[j] + y) for j, y in zip(seg, x)])

    points = _counting_antiderivative(form)
    got = _invert_batch(form, starts, lengths, omegas, s, seg)
    assert len(points) - 1 <= 16  # one table, then one call per kernel iteration

    want = np.array([brentq(lambda y: oracle_integral(form, starts[j], starts[j] + y) - target,
                            0.0, lengths[j], xtol=1e-15, rtol=8.9e-16)
                     for j, target in zip(seg, s)])
    # conditioning: the antiderivative's rounding over the density at the root
    scale = np.max(np.abs(form.antiderivative(starts[0] + uniform_grid(4096))))
    rounding = 8.0 * np.finfo(float).eps * (scale + 1.0)
    assert np.all(np.abs(got - want) <= rounding / np.abs(form(starts[seg] + want)))


def _images_of_a_reparametrized_grid(form, zs):
    """4096 targets, the images of a monotone reparametrization of the grid
    as in one transport: the segment lengths, and the targets' points,
    segments and cumulative integrals."""
    starts = zs.zeros
    ext = np.append(starts, starts[0] + TWO_PI)
    grid = uniform_grid(4096)
    x = np.sort(np.mod(grid + 0.3 * np.sin(grid) + 0.1, TWO_PI))
    x = np.where(x < starts[0], x + TWO_PI, x)
    seg = np.clip(np.searchsorted(ext, x, side="right") - 1, 0, zs.k - 1)
    return np.diff(ext), x, seg, form.antiderivative(x) - form.antiderivative(starts[seg])


@pytest.mark.parametrize("seed", [1, 5, 7])
def test_batched_inversion_evaluates_few_points_per_target(seed):
    # 4096 targets, the images of a monotone reparametrization of the grid,
    # as in one transport; the count includes the table of 257 points per
    # segment.  Targets in a panel that ends at a zero of the density start
    # from the square-root seed, so no entry needs more than a few iterations.
    form = random_morse_form(np.random.default_rng(seed))
    zs = find_zeros(form)
    omegas = partial_vorticities(form, zs).omegas
    starts = zs.zeros
    lengths, x, seg, s = _images_of_a_reparametrized_grid(form, zs)

    points = _counting_antiderivative(form)
    got = _invert_batch(form, starts, lengths, omegas, s, seg)
    assert sum(points) <= 2.6 * s.size
    assert len(points) - 1 <= 6
    assert np.max(np.abs(starts[seg] + got - x)) < 1e-10


def _ended_by_the_bound(monkeypatch, form):
    """Invert ``_images_of_a_reparametrized_grid`` and tell which entries the
    kernel's bound ended.  The kernel runs once without its bound and once
    with it: the bound only ends entries early, so an entry the bound ended
    is one left at a point the second run never evaluated, unless the first
    run, too, left it there unevaluated (by its bracket or step width)."""
    runs = []
    kernel = circle_forms._newton_bracketed

    def traced(f, df, target, lo, hi, sign, bound=None, **kwargs):
        for b in (None, bound):
            seen = []
            t = kernel(lambda u: (seen.append(u.copy()), f(u))[1], df, target, lo, hi, sign,
                       bound=b, **kwargs)
            runs.append((t, ~np.isin(t, np.concatenate(seen))))
        runs.append((target, sign, kwargs["floor"]))
        return t

    zs = find_zeros(form)
    starts = zs.zeros
    omegas = partial_vorticities(form, zs).omegas
    lengths, x, seg, s = _images_of_a_reparametrized_grid(form, zs)
    monkeypatch.setattr(circle_forms, "_newton_bracketed", traced)
    got = _invert_batch(form, starts, lengths, omegas, s, seg)
    assert np.max(np.abs(starts[seg] + got - x)) < 1e-10
    (t_plain, unevaluated_plain), (t, unevaluated), (target, sign, floor) = runs
    by_bound = unevaluated & ~(unevaluated_plain & (t_plain == t))
    return t, by_bound, target, sign, floor


@pytest.mark.parametrize("kind", ["trig", "samples"])
@pytest.mark.parametrize("degree", [3, 25, 100])
def test_entries_ended_by_the_bound_have_residuals_within_the_floor(monkeypatch, kind, degree):
    # The bound ends an entry at a Newton step whose Taylor remainder and
    # rounding to a double take at most half the floor together, so what is
    # left of the residual there is the rounding of the antiderivative at the
    # step's start.  A trig residual is taken in long double: the package's own
    # antiderivative rounds by up to 0.84 of the floor at degree 100 (seed 0
    # draws of this generator), so evaluated there it can pass the floor
    # (1.02 of it seen) even where the long double residual does not.  A
    # spline is defined by its double cells, so its residual is evaluated.
    form = random_morse_form(np.random.default_rng(degree), degree)
    if kind == "samples":
        form = CircleForm.from_samples(form(uniform_grid(max(256, 8 * degree))))
    t, by_bound, target, sign, floor = _ended_by_the_bound(monkeypatch, form)
    assert np.sum(by_bound) >= 0.4 * t.size
    if kind == "trig":
        a0 = np.longdouble(form.trig_coefficients[0])
        anti = a0 * t[by_bound] + long_double_power_sum(form._icoeffs, t[by_bound], True)
    else:
        anti = form.antiderivative(t[by_bound])
    resid = (sign[by_bound] * anti - target[by_bound]).astype(float)
    assert np.max(np.abs(resid)) <= floor


def test_kernel_goes_on_past_a_newton_step_beyond_its_bound():
    # F = sin^2 t is the antiderivative of sin 2t, which vanishes at 0.  From
    # a start at 0.05 the first Newton step toward the root 1e-3 is about 0.024,
    # so K delta^2 (K = 2) is far above the floor and the kernel evaluates F
    # at the step's end; close to the root the steps shrink until the bound
    # ends the entry.
    form = standard_form("sin2t")
    calls = []
    f = lambda t: (calls.append(t.copy()), form.antiderivative(t))[1]
    root = 1e-3
    floor = _rounding_floor([1.0])
    t = _newton_bracketed(f, form, np.sin(root) ** 2, [0.0], [0.1], start=[0.05],
                          floor=floor, bound=form._derivative_bound())
    assert form._derivative_bound() == 2.0
    first_step = 0.05 - (np.sin(0.05) ** 2 - np.sin(root) ** 2) / np.sin(0.1)
    assert abs(calls[1][0] - first_step) < 1e-15
    assert 2.0 * (first_step - 0.05) ** 2 > floor
    assert len(calls) >= 3
    assert abs(np.sin(t[0]) ** 2 - np.sin(root) ** 2) <= floor
    assert abs(t[0] - root) < 1e-12


def test_bound_inversion_evaluates_about_one_point_per_target():
    # A degree-25 density with 30 zeros: one call tabulates the 30 segments,
    # then the kernel evaluates the antiderivative about once per target
    # (1.26 times here; without the bound each target takes two or more).
    # |density| reaches 9 here, so at many targets |density| * ulp(t) passes
    # the floor and the rounding of a step's end to a double alone can leave
    # a residual above half of it: the kernel evaluates those once more, and
    # with Taylor's remainder alone the count would be 1.15.
    form = random_morse_form(np.random.default_rng(25), 25)
    zs = find_zeros(form)
    starts = zs.zeros
    omegas = partial_vorticities(form, zs).omegas
    lengths, _, seg, s = _images_of_a_reparametrized_grid(form, zs)

    points = _counting_antiderivative(form)
    _invert_batch(form, starts, lengths, omegas, s, seg)
    assert points[0] == zs.k * 257
    assert sum(points[1:]) <= 1.3 * s.size


# -- safeguarded Newton kernel ------------------------------------------------


def _midpoint_kernel(f, df, target, lo, hi, sign=1.0):
    """``_newton_bracketed`` with its midpoint start and no residual floor,
    written out on its own as the reference for the kernel's default path."""
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    target = np.broadcast_to(np.asarray(target, dtype=float), lo.shape)
    sign = np.broadcast_to(np.asarray(sign, dtype=float), lo.shape)
    t = 0.5 * (lo + hi)
    step = hi - lo
    active = np.nonzero(step > 1e-13)[0]
    while active.size:
        ta, sg = t[active], sign[active]
        resid = sg * f(ta) - target[active]
        lo_a = np.where(resid < 0.0, ta, lo[active])
        hi_a = np.where(resid >= 0.0, ta, hi[active])
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = ta - resid / (sg * df(ta))
        take = (newton >= lo_a) & (newton <= hi_a) & (np.abs(newton - ta) <= 0.5 * step[active])
        t_next = np.where(take, newton, 0.5 * (lo_a + hi_a))
        step_a = np.abs(t_next - ta)
        lo[active], hi[active], t[active], step[active] = lo_a, hi_a, t_next, step_a
        active = active[~((hi_a - lo_a <= 1e-13) | (step_a <= 1e-13))]
    return t


def _sin_cos_case():
    # zeros at 0 (exact, given as a zero-width bracket), pi (rising) and
    # +-arccos(0.3) (both falling)
    f = lambda t: np.sin(t) * (np.cos(t) - 0.3)
    df = lambda t: np.cos(t) * (np.cos(t) - 0.3) - np.sin(t) ** 2
    lo = np.array([0.0, 2.9, 1.0, 4.8])
    hi = np.array([0.0, 3.3, 1.5, 5.3])
    return f, df, 0.0, lo, hi, np.array([1.0, 1.0, -1.0, -1.0])


def test_kernel_matches_brentq_oracle_on_rising_falling_and_grid_zeros():
    f, df, target, lo, hi, sign = _sin_cos_case()
    roots = _newton_bracketed(f, df, target, lo, hi, sign)
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
    with pytest.raises(VortexLoopError, match="did not converge"):
        _newton_bracketed(lambda t: np.full_like(t, np.nan), np.ones_like, 0.0,
                          [0.0, 1.0], [0.5, 1.5], start=[0.1, 1.1], floor=1.0)


def test_kernel_default_path_is_the_midpoint_kernel_bit_for_bit():
    case = _sin_cos_case()
    np.testing.assert_array_equal(_newton_bracketed(*case), _midpoint_kernel(*case))
    two_cycle = (lambda t: t - 1.0, lambda t: np.full_like(t, 0.5), 0.0, [0.0], [3.0])
    np.testing.assert_array_equal(_newton_bracketed(*two_cycle), _midpoint_kernel(*two_cycle))


def test_kernel_clips_its_start_into_the_bracket():
    seen = []
    f = lambda t: (seen.append(t.copy()), t - 1.0)[1]
    roots = _newton_bracketed(f, np.ones_like, 0.0, [0.0, 0.5], [3.0, 2.0], start=[10.0, -5.0])
    np.testing.assert_array_equal(seen[0], [3.0, 0.5])
    np.testing.assert_array_equal(roots, [1.0, 1.0])


def test_kernel_stops_at_once_on_a_residual_at_its_floor():
    calls = []
    f = lambda t: (calls.append(t.size), t - 1.0)[1]
    # an exact zero, at the midpoint and at a given start, without a floor
    assert _newton_bracketed(f, np.ones_like, 0.0, [0.0], [2.0])[0] == 1.0
    assert _newton_bracketed(f, np.ones_like, 0.0, [0.0], [3.0], start=[1.0])[0] == 1.0
    assert calls == [1, 1]
    # a residual inside the floor keeps the point it was evaluated at
    start = 1.0 + 1e-10
    assert _newton_bracketed(f, np.ones_like, 0.0, [0.0], [3.0], start=[start],
                             floor=1e-9)[0] == start
    assert calls == [1, 1, 1]


def test_kernel_bound_ends_only_newton_steps():
    # f = t - 1 has f'' = 0, so K = 0 bounds it.  From the lower end of a
    # 1e-8 bracket whose root lies by its upper end, the first Newton step is
    # longer than half the bracket and the kernel bisects instead: a
    # bisection step zeroes no linear part, so the bound must not end it,
    # though K * delta**2 is 0.
    root = _newton_bracketed(lambda t: t - 1.0, np.ones_like, 0.0, [1.0 - 1e-8],
                             [1.0 + 1e-10], start=[1.0 - 1e-8], floor=1e-15, bound=0.0)
    assert root[0] == 1.0


@pytest.mark.parametrize("slope", [40.0, 0.01])
def test_kernel_bound_counts_the_rounding_of_the_step_end(slope):
    # A line of slope 40 near t = 10.3: rounding the Newton point to a double
    # alone can leave a residual of 40 * ulp(10.3) / 2 = 3.6e-14, above half
    # the floor of 1e-14, so the kernel evaluates there though K = 0.  At
    # slope 0.01 the bound ends the entry at its first Newton step.
    calls = []
    f = lambda t: (calls.append(t.copy()), slope * (t - 10.3))[1]
    root = _newton_bracketed(f, lambda t: np.full_like(t, slope), 0.0, [10.0], [11.0],
                             floor=1e-14, bound=0.0)
    newton = 10.5 - slope * (10.5 - 10.3) / slope
    assert abs(root[0] - 10.3) <= 1e-14
    if slope == 40.0:
        assert len(calls) >= 2 and calls[1][0] == newton
    else:
        assert len(calls) == 1 and root[0] == newton


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
    form = symmetric_form()
    psi = stabilizer_generator(form)
    t = np.linspace(0.0, TWO_PI, 1001)
    # genuinely non-rigid: far from every rigid rotation
    off = [np.max(circle_dist(psi(t), t + c)) for c in np.linspace(0, TWO_PI, 64)]
    assert min(off) > 1e-2
    squared = psi.compose(psi)
    assert np.max(circle_dist(squared(t), t)) < 1e-10


def test_stabilizer_satisfies_transport_relation():
    # beta(psi(t)) psi'(t) = beta(t) defines the stabilizer
    form = symmetric_form()
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
    form = symmetric_form()
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
    psi = stabilizer_generator(symmetric_form())
    inv = psi.inverse()
    t = np.linspace(0.0, TWO_PI, 513)
    assert np.max(circle_dist(psi(inv(t)), t)) < 1e-11
    assert np.max(circle_dist(inv(psi(t)), t)) < 1e-11


def test_inverse_round_trip_without_derivative_data():
    # bare samples: harmonic-mean slopes, the inverse solved on the forward map
    psi = CircleDiffeo.from_function(lambda s: s + 0.3 * np.sin(s) + 0.2, size=256)
    inv = psi.inverse()
    slopes = inv.sample_derivatives
    assert np.all(np.isfinite(slopes)) and np.all(slopes > 0.0)
    assert np.max(circle_dist(psi(inv.samples), inv.grid)) < 1e-13
    t = np.linspace(0.0, TWO_PI, 1001)
    assert np.max(circle_dist(psi(inv(t)), t)) < 1e-5
    assert np.max(circle_dist(inv(psi(t)), t)) < 1e-5


@pytest.mark.parametrize("seed", [1, 5, 7])
def test_inverse_evaluates_about_one_forward_point_per_node(monkeypatch, seed):
    # the intertwiner's grid of 4096 nodes with exact nodal slopes
    analytic = random_monotone_diffeo(np.random.default_rng(seed))
    grid = uniform_grid(4096)
    psi = CircleDiffeo(analytic(grid), analytic.derivative(grid))
    points = []
    forward = CircleDiffeo.__call__
    monkeypatch.setattr(CircleDiffeo, "__call__",
                        lambda self, t: (points.append(np.size(t)), forward(self, t))[1])
    inv = psi.inverse()
    monkeypatch.undo()
    assert sum(points) <= 1.2 * psi.size
    assert np.max(circle_dist(inv.samples, analytic.inverse_eval(grid))) < 1e-12


def test_bare_sample_diffeo_is_c1_across_the_wrap():
    # one-sided end slopes would make the derivative jump by 7e-4 at t = 0
    psi = CircleDiffeo.from_function(
        lambda s: s + 0.3 * np.sin(s) + 0.1 * np.cos(2.0 * s + 0.4) + 0.2, size=64)
    assert abs(psi.derivative(0.0) - psi.derivative(-1e-13)) < 1e-12
    assert abs(psi.derivative(TWO_PI) - psi.derivative(TWO_PI - 1e-13)) < 1e-12


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
    # the four samples above are rejected for their count; eight reach the order check
    grid = uniform_grid(8)
    with pytest.raises(ValueError, match="must be strictly increasing"):
        CircleDiffeo(grid[[0, 2, 1, 3, 4, 5, 6, 7]])
    with pytest.raises(ValueError, match="^diffeomorphism samples must be finite$"):
        CircleDiffeo(np.append(grid[:-1], np.nan))
    with pytest.raises(ValueError, match="must match the samples in shape"):
        CircleDiffeo(grid, np.ones(7))
    for slopes in (np.zeros(8), -np.ones(8)):
        with pytest.raises(ValueError, match="finite and positive"):
            CircleDiffeo(grid, slopes)


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
    form = CircleForm.trig(0.3, sin=[0.0, 1.0])
    psi = CircleDiffeo.rotation(1.1)
    pulled = pullback_form(psi, form)
    got = pulled.integrate(0.0, TWO_PI)
    assert abs(got - 0.3 * TWO_PI) < 1e-9

"""Hamiltonian bump fields and loop advection."""

import numpy as np
import pytest

from vortexloop import flow, loops, samples
from vortexloop.circle_forms import TWO_PI
from vortexloop.errors import MorseViolation, StepRejected, ValidationFailed, VortexLoopError
from vortexloop.flow import (
    _SIMPLE_STRIDE,
    PlanarBump,
    PlanarHamiltonian,
    _Work,
    _complex_points,
    _midpoint_step,
    _rk4_step,
    _step_schedule,
    advect,
    equivariance_residual,
    hamiltonian_vector_field,
)
from vortexloop.loops import DecoratedLoop, LoopEmbedding, orbit_equivalent
from vortexloop.quadrature import uniform_grid

from conftest import (
    DenseBumpField,
    brute_bump_gradient,
    brute_bump_value,
    fd_gradient,
    near_degenerate_form,
    reference_advect,
    reference_midpoint_step,
    reference_rk4_step,
)


def circle_loop(n=128, form_name="sin2t"):
    return DecoratedLoop(LoopEmbedding.circle(n=n), samples.standard_form(form_name))


def assert_same_bits(got, want):
    """Same shape, dtype and bytes; unlike assert_array_equal this sees the
    sign of a zero and the bits of a NaN."""
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------- hamiltonian


def test_bump_rejects_nonpositive_width():
    with pytest.raises(ValueError):
        PlanarBump((0.0, 0.0), -0.5, 1.0)
    with pytest.raises(ValueError):
        PlanarHamiltonian.single((0.0, 0.0), 0.0, 1.0)


def test_bump_rejects_non_finite_width_and_amplitude():
    for sigma, amplitude in [(np.nan, 1.0), (np.inf, 1.0), (0.5, np.nan), (0.5, -np.inf)]:
        with pytest.raises(ValueError, match="finite"):
            PlanarBump((0.0, 0.0), sigma, amplitude)


def test_bump_rejects_non_finite_centre():
    for center in [(np.nan, 0.0), (np.inf, 0.0), (0.0, -np.inf), (1.0,), (0.0, 1.0, 2.0)]:
        with pytest.raises(ValueError, match="centre"):
            PlanarBump(center, 1.0, 1.0)
    with pytest.raises(ValueError, match="centre"):
        PlanarHamiltonian.single((np.inf, 0.0), 1.0, 1.0)


def _ring(rng, bumps, lo, hi, size):
    """Points at rho in [lo, hi) of a random bump among ``bumps``."""
    b = [bumps[i] for i in rng.integers(len(bumps), size=size)]
    center = np.array([x.center for x in b])
    rho = rng.uniform(lo, hi, size) * np.array([x.sigma for x in b])
    angle = rng.uniform(0.0, TWO_PI, size)
    return center + rho[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])


def _region_points(rng, bumps, region):
    """Points within 5 sigma of every bump ("core"), in the 5-6 sigma band of
    some bump ("band"), beyond 6 sigma of every bump ("far"), all three
    ("mixed"), or core points and one NaN ("nan") or two infinite
    coordinates ("inf")."""
    # centres within 0.5 of the origin and sigma >= 0.5: a disc of radius 1.5 is in every core
    radius = np.sqrt(rng.uniform(0.0, 1.0, 48)) * 1.5
    angle = rng.uniform(0.0, TWO_PI, 48)
    core = radius[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
    if region == "core":
        return core
    if region == "nan":
        return np.vstack([core, [[np.nan, 0.0]]])
    if region == "inf":
        return np.vstack([core, [[np.inf, 0.5], [0.5, -np.inf]]])
    band = _ring(rng, bumps, 5.0, 6.0, 48) if bumps else core
    if region == "band":
        return band
    far = _ring(rng, bumps or [PlanarBump((0.0, 0.0), 1.0, 1.0)], 9.0, 20.0, 48)
    if region == "far":
        return far
    return rng.permutation(np.vstack([core, band, far]))


@pytest.mark.parametrize("region", ["core", "band", "far", "mixed", "nan", "inf"])
@pytest.mark.parametrize("n_bumps", range(4))
def test_bump_kernel_equals_dense_blend_bit_for_bit(region, n_bumps):
    rng = np.random.default_rng(31 * n_bumps + len(region))
    bumps = [PlanarBump(tuple(rng.uniform(-0.5, 0.5, 2)), rng.uniform(0.5, 1.2),
                        rng.uniform(-2.0, 2.0)) for _ in range(n_bumps)]
    h, ref = PlanarHamiltonian(bumps), DenseBumpField(bumps)
    pts = _region_points(rng, bumps, region)
    # the blend is skipped exactly when every point lies within 5 sigma of every bump
    assert (h._terms(pts)[1] is None) == (region == "core" or not n_bumps)
    # an infinite offset times a zero weight is NaN, which numpy warns of
    with np.errstate(invalid="ignore" if region == "inf" else "warn"):
        for probe in (pts, pts[:48].reshape(2, 24, 2), pts[0]):
            assert_same_bits(h(probe), ref(probe))
            assert_same_bits(h.gradient(probe), ref.gradient(probe))
            assert h.gradient(probe).shape == probe.shape


def test_gradient_with_a_zero_offset_part_equals_dense_blend():
    # within 5 sigma the weight multiplies each offset as a complex number,
    # whose cross term 0 * y can give a zero part either sign; the sum over
    # the bumps must end on the sign the real products give
    pts = np.array([[0.5, -1.0], [0.5, 0.5], [-0.25, -0.25], [1.0, -0.25], [0.5, -0.25]])
    for amplitude in (1.3, -1.3, 0.0):
        bumps = [PlanarBump((0.5, -0.25), 0.75, amplitude)]
        h, ref = PlanarHamiltonian(bumps), DenseBumpField(bumps)
        assert h._terms(pts)[1] is None
        assert_same_bits(h.gradient(pts), ref.gradient(pts))


def test_gradient_takes_any_point_layout():
    rng = np.random.default_rng(5)
    bumps = [PlanarBump(tuple(rng.uniform(-0.5, 0.5, 2)), rng.uniform(0.5, 1.2),
                        rng.uniform(-2.0, 2.0)) for _ in range(2)]
    h, ref = PlanarHamiltonian(bumps), DenseBumpField(bumps)
    pts = _region_points(rng, bumps, "mixed")
    stack = pts[:96].reshape(3, 32, 2)
    layouts = {
        "every other row": pts[::2],
        "fortran order": np.asfortranarray(pts),
        "transposed (2, M)": np.ascontiguousarray(pts.T).T,
        "integers": np.rint(4.0 * pts).astype(int),
        "one point": pts[7],
        "stack": stack,
        "empty": np.empty((0, 2)),
    }
    for name, probe in layouts.items():
        got = h.gradient(probe)
        assert got.shape == np.shape(probe), name
        assert_same_bits(got, ref.gradient(probe))
    # the complex view copies only when the last axis is not contiguous
    assert np.shares_memory(_complex_points(layouts["every other row"]), pts)
    assert np.shares_memory(_complex_points(stack), stack)
    for name in ("fortran order", "transposed (2, M)"):
        assert not np.shares_memory(_complex_points(layouts[name]), layouts[name])


# offsets of exactly 5 sigma whose point minus centre is exact, also one ulp further out
@pytest.mark.parametrize("center, sigma, offset", [
    ((0.0, 0.0), 0.5, (2.5, 0.0)),
    ((0.5, 4.0), 0.25, (0.0, -1.25)),
    ((1.0, 2.0), 1.0, (3.0, 4.0)),
])
def test_bump_kernel_at_five_sigma_equals_dense_blend(center, sigma, offset):
    bumps = [PlanarBump(center, sigma, 1.3)]
    h, ref = PlanarHamiltonian(bumps), DenseBumpField(bumps)
    at = np.asarray(center) + np.asarray(offset)
    past = np.nextafter(at, at + np.sign(offset))
    for pts, skipped in ((at[None, :], True), (past[None, :], False)):
        assert (h._terms(pts)[1] is None) == skipped
        assert_same_bits(h(pts), ref(pts))
        assert_same_bits(h.gradient(pts), ref.gradient(pts))


def _probe_points(rng, bumps):
    """Uniform points plus, per bump, points in its core, in its 5-6 sigma
    blend band, beyond 6 sigma, and its centre."""
    parts = [rng.uniform(-8.0, 8.0, (64, 2))]
    for b in bumps:
        rho = np.concatenate([rng.uniform(0.0, 5.0, 16), rng.uniform(5.0, 6.0, 16),
                              rng.uniform(6.0, 9.0, 16)])
        angle = rng.uniform(0.0, TWO_PI, rho.size)
        ring = np.column_stack([np.cos(angle), np.sin(angle)]) * (b.sigma * rho)[:, None]
        parts += [np.asarray(b.center) + ring, np.asarray(b.center)[None, :]]
    return np.vstack(parts)


@pytest.mark.parametrize("seed", range(8))
def test_bump_kernel_matches_per_bump_oracle(seed):
    rng = np.random.default_rng(seed)
    for n_bumps in range(4):  # 0 is the empty Hamiltonian: exact zeros everywhere
        bumps = [PlanarBump(tuple(rng.uniform(-2.0, 2.0, 2)), rng.uniform(0.2, 1.2),
                            rng.uniform(-2.0, 2.0)) for _ in range(n_bumps)]
        h = PlanarHamiltonian(bumps)
        pts = _probe_points(rng, bumps)
        want_v = brute_bump_value(h, pts)
        want_g = brute_bump_gradient(h, pts)
        value, grad = h(pts), h.gradient(pts)
        assert value.shape == want_v.shape and grad.shape == want_g.shape
        np.testing.assert_allclose(value, want_v, rtol=0.0,
                                   atol=2e-15 * np.max(np.abs(want_v), initial=0.0))
        np.testing.assert_allclose(grad, want_g, rtol=0.0,
                                   atol=2e-15 * np.max(np.abs(want_g), initial=0.0))
        assert np.all(np.isfinite(grad))

        outside = np.ones(len(pts), dtype=bool)
        for b in bumps:
            outside &= np.hypot(*(pts - np.asarray(b.center)).T) > 6.0 * b.sigma
        assert outside.any()
        assert np.all(value[outside] == 0.0)
        assert np.all(grad[outside] == 0.0)

        stacked = pts[-64:].reshape(2, 32, 2)
        np.testing.assert_array_equal(h(stacked), value[-64:].reshape(2, 32))
        np.testing.assert_array_equal(h.gradient(stacked), grad[-64:].reshape(2, 32, 2))
        assert h(pts[0]).shape == ()
        np.testing.assert_array_equal(h.gradient(pts[0]), grad[0])


def test_value_matches_gaussian_inside_core():
    h = PlanarHamiltonian.single((0.3, -0.2), 0.7, 1.4)
    pts = np.array([[0.3, -0.2], [0.8, 0.1], [1.5, -1.0]])
    d = pts - [0.3, -0.2]
    r2 = np.sum(d * d, axis=1)
    np.testing.assert_allclose(h(pts), 1.4 * np.exp(-0.5 * r2 / 0.49), atol=1e-15)


def test_value_and_gradient_vanish_beyond_cutoff():
    h = PlanarHamiltonian.single((0.0, 0.0), 0.5, 2.0)
    far = np.array([[3.01, 0.0], [0.0, -4.0], [2.2, 2.2]])  # r > 6 sigma
    assert np.all(h(far) == 0.0)
    assert np.all(h.gradient(far) == 0.0)


def test_gradient_matches_finite_differences():
    h = PlanarHamiltonian([
        PlanarBump((0.2, 0.1), 0.6, 0.9),
        PlanarBump((-0.4, 0.5), 0.4, -1.2),
    ])
    probes = [
        np.array([0.25, 0.2]),    # core of the first bump
        np.array([-0.3, 0.4]),    # core of the second
        np.array([0.2 + 0.6 * 5.5, 0.1]),  # inside the blend band
        np.array([0.0, 0.0]),
    ]
    for p in probes:
        want = fd_gradient(h, p)
        np.testing.assert_allclose(h.gradient(p[None, :])[0], want, atol=2e-9)


def test_gradient_finite_at_bump_center():
    h = PlanarHamiltonian.single((0.1, 0.2), 0.5, 1.0)
    g = h.gradient(np.array([[0.1, 0.2]]))
    np.testing.assert_allclose(g, 0.0, atol=1e-15)


def test_vector_field_rotates_gradient():
    h = PlanarHamiltonian.single((0.0, 0.0), 0.8, 1.0)
    pts = np.array([[0.3, 0.4], [-0.5, 0.2]])
    g = h.gradient(pts)
    x = hamiltonian_vector_field(h, pts)
    np.testing.assert_allclose(x[:, 0], g[:, 1], atol=1e-15)
    np.testing.assert_allclose(x[:, 1], -g[:, 0], atol=1e-15)


class _FixedGradient:
    """A gradient that ignores the points: every pair of signed zeros, NaNs,
    infinities and finite values."""

    def __init__(self):
        nan = np.frombuffer(np.uint64(0x7FF8000000000123).tobytes(), dtype=float)[0]
        parts = [0.0, -0.0, nan, -nan, np.inf, -np.inf, 1.5, -2.5]
        self.value = np.array([(a, b) for a in parts for b in parts])

    def gradient(self, points):
        return self.value


def test_vector_field_is_the_swapped_gradient_times_one_minus_one_to_the_bit():
    h = _FixedGradient()
    want = h.value[:, ::-1] * np.array([1.0, -1.0])
    assert_same_bits(hamiltonian_vector_field(h, h.value), want)


# ---------------------------------------------------------------- scheduling


def test_advect_rejects_bad_steps():
    loop = circle_loop()
    h = PlanarHamiltonian.single((0.0, 0.0), 0.8, 0.1)
    with pytest.raises(ValueError):
        advect(loop, h, 1.0, 0.0)
    with pytest.raises(ValueError):
        advect(loop, h, 1.0, -0.1)
    with pytest.raises(ValueError):
        advect(loop, h, -1.0, 0.1)
    with pytest.raises(ValueError):
        advect(loop, h, 0.05, 0.1)
    with pytest.raises(ValueError):
        advect(loop, h, 1.0, 0.1, scheme="euler")


def test_zero_duration_is_identity():
    loop = circle_loop()
    h = PlanarHamiltonian.single((0.0, 0.0), 0.8, 0.1)
    report = advect(loop, h, 0.0, 0.1)
    assert report.steps == 0
    assert report.area_drift == 0.0
    assert report.max_local_error == 0.0
    np.testing.assert_array_equal(report.loop.embedding.samples,
                                  loop.embedding.samples)


def test_partial_final_step_covers_duration():
    loop = circle_loop()
    h = PlanarHamiltonian([])  # empty sum: the zero field
    assert advect(loop, h, 0.25, 0.1).steps == 3
    assert advect(loop, h, 0.2, 0.1).steps == 2


def test_outside_support_is_fixed_pointwise():
    loop = circle_loop()
    far = PlanarHamiltonian.single((30.0, 0.0), 0.5, 3.0)
    report = advect(loop, far, 1.0, 0.1)
    np.testing.assert_array_equal(report.loop.embedding.samples,
                                  loop.embedding.samples)
    assert report.area_drift == 0.0
    assert report.hamiltonian_drift == 0.0


# ---------------------------------------------------------------- advection


def test_radial_flow_rotates_circle():
    r0, sig, amp, duration = 1.0, 0.8, 0.5, 0.5
    loop = circle_loop(form_name="mixed")
    h = PlanarHamiltonian.single((0.0, 0.0), sig, amp)
    report = advect(loop, h, duration, 0.005)
    # radial h spins each circle rigidly; solve the angle from h'(r)
    hp = -amp * (r0 / sig**2) * np.exp(-0.5 * (r0 / sig) ** 2)
    theta = -hp / r0 * duration
    c, s = np.cos(theta), np.sin(theta)
    expected = loop.embedding.samples @ np.array([[c, s], [-s, c]])
    np.testing.assert_allclose(report.loop.embedding.samples, expected, atol=1e-12)
    radii = np.hypot(*report.loop.embedding.samples.T)
    np.testing.assert_allclose(radii, r0, atol=1e-13)


def test_conservation_on_random_loop():
    rng = np.random.default_rng(33)
    loop = samples.random_decorated_loop(rng)
    h = samples.random_hamiltonian(rng, samples.loop_bbox(loop.embedding))
    report = advect(loop, h, 0.5, 2e-3)
    assert report.area_drift < 1e-8
    assert report.profile_drift == 0.0
    assert report.hamiltonian_drift < 1e-8
    assert orbit_equivalent(loop, report.loop)
    assert report.steps == 250
    assert 0.0 <= report.max_local_error < 1e-3


def test_advect_carries_the_zero_set_and_profile_over(monkeypatch):
    loop = circle_loop(form_name="mixed")
    loop.profile  # found on the input loop, before the zero search is cut off

    def unreachable(*args, **kwargs):
        raise AssertionError("the decoration is unchanged; its zeros are known")

    monkeypatch.setattr(loops, "find_zeros", unreachable)
    monkeypatch.setattr(loops, "partial_vorticities", unreachable)
    report = advect(loop, PlanarHamiltonian.single((0.2, 0.1), 0.7, 0.3), 0.05, 0.01)
    assert report.loop.zero_set is loop.zero_set and report.loop.profile is loop.profile
    assert report.profile_drift == 0.0


def test_advect_keeps_the_input_loops_morse_tolerance():
    # a near-flat zero passes only the looser tolerance the loop was built with;
    # the evolved loop keeps that zero set instead of searching at the default
    flat = near_degenerate_form(flatness=1e-9)
    with pytest.raises(MorseViolation):
        DecoratedLoop(LoopEmbedding.circle(), flat)
    loop = DecoratedLoop(LoopEmbedding.circle(), flat, morse_tol=1e-12)
    report = advect(loop, PlanarHamiltonian.single((0.2, 0.1), 0.7, 0.3), 0.05, 0.01)
    assert report.loop.zero_set is loop.zero_set and report.loop.zero_set.k == 4
    assert report.profile_drift == 0.0


def test_implicit_midpoint_scheme():
    rng = np.random.default_rng(34)
    loop = samples.random_decorated_loop(rng)
    h = samples.random_hamiltonian(rng, samples.loop_bbox(loop.embedding))
    report = advect(loop, h, 0.2, 0.01, scheme="implicit-midpoint")
    assert report.steps == 20
    assert report.area_drift < 1e-5
    assert report.profile_drift == 0.0


def test_step_rejected_on_violent_field():
    loop = circle_loop(n=32)
    h = PlanarHamiltonian.single((0.5, 0.0), 0.3, 40.0)
    with pytest.raises(StepRejected, match="exceeds"):
        advect(loop, h, 1.0, 0.1)


class _NanGradient(PlanarHamiltonian):
    """Zero Hamiltonian, with no bumps, whose gradient is NaN everywhere."""

    def __init__(self):
        super().__init__([])

    def gradient(self, points, out=None):
        grad = np.empty(np.shape(points)) if out is None else out
        grad.fill(np.nan)
        return grad


def test_non_finite_step_estimate_is_rejected():
    # NaN > error_limit is False, so a NaN estimate must not pass as small
    with pytest.raises(StepRejected, match="step 0: local error estimate nan"):
        advect(circle_loop(n=32), _NanGradient(), 0.3, 0.1)


def test_midpoint_solve_that_does_not_converge_is_rejected():
    # a bump centred on the curve, where the field turns at the rate
    # A / sigma^2 = L: dt L = 2 passes the step condition, but the iteration's
    # contraction factor there is dt L / 2 = 1
    loop = circle_loop(n=32)
    h = PlanarHamiltonian.single((1.0, 0.0), 0.3, 1.8)
    with pytest.raises(StepRejected, match="did not converge"):
        advect(loop, h, 1.0, 0.1, scheme="implicit-midpoint")


def test_non_finite_midpoint_solve_is_rejected():
    with pytest.raises(StepRejected, match="did not converge in 60 iterations; last update nan"):
        advect(circle_loop(n=32), _NanGradient(), 0.3, 0.1, scheme="implicit-midpoint")


def test_collision_raises_validation_failed():
    # differential swirl around an off-center bump folds the coarse polyline
    loop = circle_loop(n=32)
    h = PlanarHamiltonian.single((1.0, 0.0), 0.25, 2.0)
    with pytest.raises(ValidationFailed, match=r"self-intersects after (\d+) steps") as err:
        advect(loop, h, 2.0, 0.002)
    # found mid-run, at a multiple of the stride, long before the 1000th step
    done = int(err.value.args[0].rsplit(" ", 2)[1])
    assert done % _SIMPLE_STRIDE == 0 and done < 1000


def test_collision_at_the_last_step_fails_the_evolved_loop_validation():
    # the collision above, stopped at the step the stride check finds it: the
    # stride check skips the last step, so the evolved loop's own validation
    # must catch the crossing
    loop = circle_loop(n=32)
    h = PlanarHamiltonian.single((1.0, 0.0), 0.25, 2.0)
    assert len(_step_schedule(0.22, 0.002)) == 110
    with pytest.raises(ValidationFailed, match="^evolved loop failed validation after 110 steps: "
                                               "loop polyline self-intersects$"):
        advect(loop, h, 0.22, 0.002)


def test_observer_sees_every_step():
    loop = circle_loop()
    h = PlanarHamiltonian.single((0.2, 0.1), 0.7, 0.3)
    seen = []
    report = advect(loop, h, 0.3, 0.1,
                    observer=lambda i, t, pts: seen.append((i, t, pts)))
    assert [i for i, _, _ in seen] == [0, 1, 2, 3]
    times = [t for _, t, _ in seen]
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(0.3, abs=1e-12)
    np.testing.assert_array_equal(seen[0][2], loop.embedding.samples)
    np.testing.assert_array_equal(seen[-1][2], report.loop.embedding.samples)
    assert report.steps == 3


# ---------------------------------------------------------------- one step at a time


class _CountingHamiltonian(PlanarHamiltonian):
    """Counts gradient calls and the points they were given, in a dict that
    the run copies of ``advect`` share."""

    def __init__(self, bumps):
        super().__init__(bumps)
        self.counts = {"calls": 0, "points": 0}

    def gradient(self, points, out=None):
        self.counts["calls"] += 1
        self.counts["points"] += np.size(points) // 2
        return super().gradient(points, out)


def _random_case(seed=34, n=256):
    rng = np.random.default_rng(seed)
    loop = samples.random_decorated_loop(rng, n=n)
    h = samples.random_hamiltonian(rng, samples.loop_bbox(loop.embedding))
    return loop, _CountingHamiltonian(h.bumps)


def _separate_steps(pts, h, steps, stepper):
    """Each step by its own stepper call from the gradient at its start: the reference."""
    for dt in steps:
        work = _Work(h, pts)
        (pts, _, _), _ = stepper(work.start, h.gradient(pts), dt, work)
    return pts


@pytest.mark.parametrize("scheme, stepper", [("rk4", _rk4_step),
                                             ("implicit-midpoint", _midpoint_step)])
def test_advect_matches_nested_step_doubling_with_a_partial_step(scheme, stepper):
    # each step is taken once, so advect is its separate stepper calls
    loop, h = _random_case(n=128)
    report = advect(loop, h, 0.025, 0.01, scheme)  # steps 0.01, 0.01 and a partial 0.005
    assert report.steps == 3
    want = _separate_steps(loop.embedding.samples, h, [0.01, 0.01, 0.025 - 0.02], stepper)
    assert_same_bits(report.loop.embedding.samples, want)
    assert 0.0 < report.max_local_error <= 1e-3


def test_rk4_advection_makes_four_field_calls_per_step():
    loop, h = _random_case()
    report = advect(loop, h, 0.05, 1e-3)
    n = loop.embedding.size
    assert report.steps == 50
    # k1 at the start, then per step stages 2-4 and the field at the step's
    # end, which is the next step's k1; every call on the n samples
    assert h.counts["calls"] == 4 * report.steps + 1 == 201
    assert h.counts["points"] == (4 * report.steps + 1) * n == 51456


@pytest.mark.parametrize("dt, calls", [(1e-3, 21), (1e-2, 26)])
def test_midpoint_advection_field_calls_per_step(dt, calls):
    loop, h = _random_case(n=128)
    seen = []
    advect(loop, h, 5 * dt, dt, "implicit-midpoint",
           observer=lambda i, t, pts: seen.append(pts))
    advect_calls, advect_points = h.counts["calls"], h.counts["points"]

    # the iterations of each step, solved alone from the field at its start
    iterations = []
    for pts in seen[:-1]:
        g1 = h.gradient(pts)
        h.counts["calls"] = 0
        work = _Work(h, pts)
        _midpoint_step(work.start, g1, dt, work)
        iterations.append(h.counts["calls"])
    # the field at the start, then each step's iterations and the field at its end
    want = 1 + sum(count + 1 for count in iterations)
    # 3 iterations per solve at 1e-3, as in every benchmark solve; at 1e-2, 4
    assert advect_calls == want == calls
    assert advect_points == calls * loop.embedding.size


class _NanOnPoints(PlanarHamiltonian):
    """Bumps whose gradient is NaN on every (M, 2) row of points equal to ``target``."""

    def __init__(self, bumps, target):
        super().__init__(bumps)
        self._target = target

    def gradient(self, points, out=None):
        grad = super().gradient(points, out).reshape((-1,) + self._target.shape)
        hit = np.all(np.reshape(points, grad.shape) == self._target, axis=(1, 2))
        grad[hit] = np.nan
        return grad.reshape(np.shape(points))


@pytest.mark.parametrize("scheme, stepper", [("rk4", reference_rk4_step),
                                             ("implicit-midpoint", reference_midpoint_step)])
@pytest.mark.parametrize("nan_step", [0, 2, 4, 5])
def test_a_failed_step_raises_after_the_steps_before_it(scheme, stepper, nan_step):
    # the field is NaN at the points reached after ``nan_step`` steps.  A step
    # is accepted only once the field at its end is known, so a NaN there
    # rejects the step before (its estimate is NaN), after the steps before
    # that one were accepted and observed.  Step 4 is the partial last step,
    # so nan_step 5 rejects it by the field at its end.  At nan_step 0 the
    # start's field is NaN: the estimate of the first RK4 step is NaN, and
    # the first midpoint solve does not converge
    loop, h = _random_case(n=128)
    steps = _step_schedule(0.0045, 1e-3)
    assert len(steps) == 5

    def vector_field(field):
        return lambda pts: hamiltonian_vector_field(field, pts)

    clean, _ = reference_advect(loop.embedding.samples, vector_field(h), steps, stepper)
    nan = _NanOnPoints(h.bumps, clean[nan_step])

    def outcome(run):
        seen = []
        try:
            run(seen)
        except VortexLoopError as exc:
            return seen, (type(exc), str(exc))
        return seen, None

    got, got_error = outcome(lambda seen: advect(
        loop, nan, 0.0045, 1e-3, scheme, observer=lambda i, t, pts: seen.append((i, pts))))
    want, want_error = outcome(lambda seen: reference_advect(
        loop.embedding.samples, vector_field(nan), steps, stepper, seen))
    assert got_error == want_error
    assert [i for i, _ in got] == list(range(len(want))) == list(range(max(nan_step, 1)))
    for (_, pts), ref in zip(got, want, strict=True):
        assert_same_bits(pts, ref)
    assert got_error[0] is StepRejected
    if scheme == "implicit-midpoint" and nan_step == 0:
        assert "did not converge" in got_error[1]
    else:
        assert got_error[1].startswith(f"step {max(nan_step - 1, 0)}: local error estimate nan")


# ---------------------------------------------------------------- one cutoff decision per run


@pytest.mark.parametrize("region", ["core", "band", "mixed"])
@pytest.mark.parametrize("n_bumps", [1, 2, 3])
def test_speed_bound_is_at_least_the_largest_gradient(region, n_bumps):
    rng = np.random.default_rng(70 + n_bumps)
    # signs alternate, and one more bump of amplitude 0 adds nothing to the bound
    bumps = [PlanarBump(tuple(rng.uniform(-0.5, 0.5, 2)), rng.uniform(0.3, 1.2),
                        (-1.0) ** i * rng.uniform(0.1, 2.0)) for i in range(n_bumps)]
    bumps.append(PlanarBump((0.2, -0.1), 0.4, 0.0))
    h = PlanarHamiltonian(bumps)
    core = np.vstack([_ring(rng, bumps, 0.0, 5.0, 4096), _ring(rng, bumps, 0.999, 1.001, 1024)]
                     + [[b.center] for b in bumps])
    band = _ring(rng, bumps, 5.0, 6.0, 4096)
    pts = {"core": core, "band": band,
           "mixed": np.vstack([core, band, _ring(rng, bumps, 6.0, 9.0, 1024)])}[region]
    largest = np.max(np.hypot(*h.gradient(pts).T))
    assert h._speed_bound == pytest.approx(sum(abs(b.amplitude) / b.sigma for b in bumps),
                                           rel=1e-15)
    assert largest <= h._speed_bound
    if region != "band":
        # one bump alone nearly reaches e^(-1/2) |A| / sigma at rho = 1
        assert largest > 0.5 * max(abs(b.amplitude) / b.sigma for b in bumps) * np.exp(-0.5)


@pytest.mark.parametrize("travel, certified", [
    (0.9, True), (0.99, True), (1.0, False), (1.05, False)])
def test_a_run_is_certified_only_within_five_sigma_less_its_travel(travel, certified):
    # V = 0.25 / 0.5 = 0.5 and the points reach 1.5 of the centre, 5 sigma = 2.5
    h = PlanarHamiltonian.single((1.0, -1.0), 0.5, -0.25)
    angle = uniform_grid(64)
    pts = np.array([1.0, -1.0]) + 1.5 * np.column_stack([np.cos(angle), np.sin(angle)])
    steps = [2.0 * travel / 8] * 8
    run = h._for_run(pts, steps)
    # certified or not, the run gets a copy with tables of its own
    assert run is not h and run._arrays is not None and h._arrays is None
    assert run._inside_cutoff == certified and not h._inside_cutoff
    assert run.bumps is h.bumps


@pytest.mark.parametrize("scheme", ["rk4", "implicit-midpoint"])
def test_a_run_that_could_reach_the_band_keeps_the_check(scheme):
    # every point starts within 3.4 sigma, but T V = 0.5 * 1.5 could take it
    # 2.5 sigma further; the bump turns the circle about its centre, so it
    # stays inside
    bumps = [PlanarBump((0.0, 0.0), 0.3, 0.45)]
    h = PlanarHamiltonian(bumps)
    loop = circle_loop(n=128)
    start = loop.embedding.samples
    steps = _step_schedule(0.5, 1e-2)
    assert np.max(_rho(start, bumps)) < 5.0 and 5.0 < np.max(_rho(start, bumps)) + 0.5 * 1.5 / 0.3
    assert not h._for_run(start, steps)._inside_cutoff
    assert h._for_run(start, steps[:10])._inside_cutoff
    seen = []
    report = advect(loop, h, 0.5, 1e-2, scheme, observer=lambda i, t, pts: seen.append(pts))
    stepper = {"rk4": reference_rk4_step, "implicit-midpoint": reference_midpoint_step}[scheme]
    want, max_est = reference_advect(start, DenseBumpField(bumps).vector_field, steps, stepper)
    assert len(seen) == len(want) == 51
    for got, ref in zip(seen, want, strict=True):
        assert_same_bits(got, ref)
    assert np.float64(report.max_local_error).tobytes() == np.float64(max_est).tobytes()


@pytest.mark.parametrize("centre", [(0.0, 0.0), (1.0, 0.0)])
@pytest.mark.parametrize("scheme", ["rk4", "implicit-midpoint"])
def test_an_uncertified_run_builds_its_tables_once_with_the_same_bits(scheme, centre,
                                                                      monkeypatch):
    # a bump at the circle's centre that the run could leave, and one on the
    # circle whose samples lie within 5 sigma, in the band and beyond 6 sigma
    bumps = [PlanarBump(centre, 0.3, 0.45)]
    h = PlanarHamiltonian(bumps)
    loop = circle_loop(n=128)
    start = loop.embedding.samples
    if centre != (0.0, 0.0):
        assert np.min(_rho(start, bumps)) < 5.0 < 6.0 < np.max(_rho(start, bumps))
    assert not h._for_run(start, _step_schedule(0.5, 1e-2))._inside_cutoff

    def run():
        seen = []
        report = advect(loop, h, 0.5, 1e-2, scheme, observer=lambda i, t, pts: seen.append(pts))
        return seen, report

    made = {"field": 0, "other": 0}
    in_field = []
    term_arrays, gradient = flow._term_arrays, PlanarHamiltonian.gradient

    def counted(b, m):
        made["field" if in_field else "other"] += 1
        return term_arrays(b, m)

    def spy(self, points, out=None):
        in_field.append(True)
        try:
            return gradient(self, points, out)
        finally:
            in_field.pop()

    monkeypatch.setattr(flow, "_term_arrays", counted)
    monkeypatch.setattr(PlanarHamiltonian, "gradient", spy)
    copied, copied_report = run()
    # no field call builds tables: the run's copy, and the momentum at the start
    # and the end on the plain instance, build one set each
    assert made == {"field": 0, "other": 3}
    # the route of an uncertified run before it had a copy: the plain instance
    monkeypatch.setattr(PlanarHamiltonian, "_for_run", lambda self, pts, steps: self)
    plain, plain_report = run()
    assert made["field"] >= 4 * 50 + 1
    assert len(copied) == len(plain) == 51
    for got, want in zip(copied, plain, strict=True):
        assert_same_bits(got, want)
    for key in ("area_drift", "profile_drift", "hamiltonian_drift", "max_local_error"):
        assert_same_bits(np.float64(getattr(copied_report, key)),
                         np.float64(getattr(plain_report, key)))


@pytest.mark.parametrize("scheme", ["rk4", "implicit-midpoint"])
def test_a_certified_run_is_the_checked_run_byte_for_byte(scheme, monkeypatch):
    loop, counting = _random_case(seed=35)
    h = PlanarHamiltonian(counting.bumps)
    assert h._for_run(loop.embedding.samples, _step_schedule(0.05, 1e-3))._inside_cutoff

    def run():
        seen = []
        report = advect(loop, h, 0.05, 1e-3, scheme, observer=lambda i, t, pts: seen.append(pts))
        return seen, report

    # every field call of the run still goes through PlanarHamiltonian.gradient,
    # on a Hamiltonian that knows its points are within 5 sigma
    gradient = PlanarHamiltonian.gradient
    inside = []

    def spy(self, points, out=None):
        inside.append(self._inside_cutoff)
        return gradient(self, points, out)

    monkeypatch.setattr(PlanarHamiltonian, "gradient", spy)
    fast, fast_report = run()
    calls = len(inside)
    assert calls > 2 * 50 and all(inside) and not h._inside_cutoff
    monkeypatch.setattr(PlanarHamiltonian, "_for_run", lambda self, pts, steps: self)
    inside.clear()
    checked, checked_report = run()
    assert len(inside) == calls and not any(inside)
    assert len(fast) == len(checked) == 51
    for got, want in zip(fast, checked, strict=True):
        assert_same_bits(got, want)
    for key in ("area_drift", "profile_drift", "hamiltonian_drift", "max_local_error"):
        assert_same_bits(np.float64(getattr(fast_report, key)),
                         np.float64(getattr(checked_report, key)))
    assert fast_report.steps == checked_report.steps == 50


class _DuckHamiltonian:
    """A value and a gradient, but not a PlanarHamiltonian."""

    def __call__(self, points):
        return np.zeros(np.shape(points)[:-1])

    def gradient(self, points, out=None):
        raise AssertionError("advect evaluated a field that is not a PlanarHamiltonian")


def test_advect_takes_only_planar_hamiltonians():
    loop = circle_loop(n=32)
    bump = PlanarHamiltonian.single((0.2, 0.1), 0.7, 0.3)
    for h in (_DuckHamiltonian(), bump.gradient, None):
        for scheme in ("rk4", "implicit-midpoint"):
            with pytest.raises(TypeError, match="^h must be a PlanarHamiltonian$"):
                advect(loop, h, 0.3, 0.1, scheme)


def test_a_subclass_run_is_certified_by_its_bumps_and_keeps_its_gradient():
    loop, h = _random_case()
    start = loop.embedding.samples
    run = h._for_run(start, _step_schedule(0.05, 1e-3))
    # the run copy keeps the class, so its gradient is the override, and shares its counts
    assert type(run) is _CountingHamiltonian and run._inside_cutoff and not h._inside_cutoff
    assert run.counts is h.counts
    plain = PlanarHamiltonian(h.bumps)
    report, want = advect(loop, h, 0.05, 1e-3), advect(loop, plain, 0.05, 1e-3)
    assert h.counts["calls"] == 4 * 50 + 1
    assert_same_bits(report.loop.embedding.samples, want.loop.embedding.samples)


# ---------------------------------------------------------------- the run's arrays


@pytest.mark.parametrize("region", ["core", "band", "far", "mixed"])
def test_gradient_into_out_is_the_fresh_gradient_bit_for_bit(region):
    # within 5 sigma of both bumps, in the 5-6 sigma band of one, beyond 6
    # sigma of both, and all three; on a plain instance and on a run copy,
    # which writes its terms into arrays of its own
    rng = np.random.default_rng(60 + len(region))
    bumps = [PlanarBump(tuple(rng.uniform(-0.5, 0.5, 2)), rng.uniform(0.5, 1.2),
                        rng.uniform(-2.0, 2.0)) for _ in range(2)]
    h = PlanarHamiltonian(bumps)
    pts = _region_points(rng, bumps, region)
    core = np.vstack([_region_points(rng, bumps, "core") for _ in range(3)])[:len(pts)]
    # certified for core points of the same count, the run copy skips the
    # blend at every point it is given, with out or without
    run = h._for_run(core, [])
    assert run is not h and run._inside_cutoff
    for field in (h, run):
        want = field.gradient(pts)
        buf = np.full(pts.shape, np.nan)
        assert field.gradient(pts, out=buf) is buf
        assert_same_bits(buf, want)
        # a second call into the same array, after one at other points
        field.gradient(core, out=buf)
        assert_same_bits(field.gradient(pts, out=buf), want)
        assert_same_bits(field.gradient(core), field.gradient(core, np.empty(core.shape)))
    if region == "core":
        assert_same_bits(run.gradient(pts, out=np.empty(pts.shape)), h.gradient(pts))
    with pytest.raises(ValueError):
        h.gradient(pts, out=np.empty(pts.shape, dtype=np.float32))


@pytest.mark.parametrize("scheme", ["rk4", "implicit-midpoint"])
def test_a_run_writes_every_field_into_five_arrays(scheme, monkeypatch):
    loop, counting = _random_case(seed=35)
    h = PlanarHamiltonian(counting.bumps)
    gradient = PlanarHamiltonian.gradient
    results = []

    # every result is kept, so a fresh array could not reuse the memory of an earlier one
    def spy(self, points, out=None):
        results.append(gradient(self, points, out))
        return results[-1]

    monkeypatch.setattr(PlanarHamiltonian, "gradient", spy)
    assert advect(loop, h, 0.1, 1e-3, scheme).steps == 100
    assert len(results) >= 4 * 100 + 1
    assert len({r.__array_interface__["data"][0] for r in results}) <= 5


@pytest.mark.parametrize("n_bumps", [1, 2, 3])
def test_a_certified_copy_takes_the_plain_gaussian_arithmetic_to_the_bit(n_bumps):
    # the copy reads the points' complex view and writes into out with no
    # check; a plain instance checks and, every point within 5 sigma, takes
    # the same arithmetic
    loop, bumps = _oracle_case("core", n_bumps)
    pts = loop.embedding.samples
    h = PlanarHamiltonian(bumps)
    run = h._for_run(pts, _step_schedule(0.1, 1e-3))
    assert run._inside_cutoff and h._terms(pts)[1] is None
    want = h.gradient(pts)
    out = np.full(pts.shape, np.nan)
    assert run.gradient(pts, out) is out
    assert np.array_equal(out.view(np.uint64), want.view(np.uint64))
    # again into the same array, after a call at other points
    run.gradient(np.ascontiguousarray(pts[::-1]), out)
    run.gradient(pts, out)
    assert np.array_equal(out.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("scheme", ["rk4", "implicit-midpoint"])
@pytest.mark.parametrize("n_bumps", [1, 2, 3])
def test_steppers_on_the_run_views_are_the_real_arithmetic_steps(scheme, n_bumps):
    # each stepper as advect calls it: on a certified copy and the views of
    # one _Work, made before the first step; three steps and a partial last one
    stepper, reference = {"rk4": (_rk4_step, reference_rk4_step),
                          "implicit-midpoint": (_midpoint_step, reference_midpoint_step)}[scheme]
    loop, bumps = _oracle_case("core", n_bumps)
    start = loop.embedding.samples
    steps = _step_schedule(0.0035, 1e-3)
    assert len(steps) == 4 and steps[-1] < 1e-3
    run = PlanarHamiltonian(bumps)._for_run(start, steps)
    assert run._inside_cutoff
    field = DenseBumpField(bumps).vector_field
    work = _Work(run, start.copy())
    triples = {id(t) for t in (work.start, work.stage, work.total, work.estimate, work.end,
                               work.first, work.iterate)}
    points, want = work.start, start
    g = run.gradient(points[0], work.grads[0])
    for dt in steps:
        end, e = stepper(points, g, dt, work)
        g = run.gradient(end[0], work.grads[4])
        want, want_e = reference(want, dt, field)
        assert end is work.end
        assert_same_bits(end[0], want)
        # the step's estimate, max|e - (dt / 6) g5| on gradients and on fields
        est = np.max(np.abs(e - (dt / 6.0) * g))
        assert_same_bits(est, np.max(np.abs(want_e - (dt / 6.0) * field(want))))
        work.grads.insert(0, work.grads.pop())
        points, work.end = end, points
    assert {id(t) for t in (points, work.stage, work.total, work.estimate, work.end,
                            work.first, work.iterate)} == triples


@pytest.mark.parametrize("scheme", ["rk4", "implicit-midpoint"])
def test_a_large_run_is_the_real_arithmetic_steps_bit_for_bit(scheme):
    # n = 4096, where the (B, M) complex offsets reach 128 kB; three steps and a partial last one
    rng = np.random.default_rng(36)
    loop = samples.random_decorated_loop(rng, n=4096)
    h = samples.random_hamiltonian(rng, samples.loop_bbox(loop.embedding))
    start = loop.embedding.samples
    steps = _step_schedule(0.0035, 1e-3)
    assert len(steps) == 4 and steps[-1] < 1e-3
    assert h._for_run(start, steps)._inside_cutoff
    seen = []
    report = advect(loop, h, 0.0035, 1e-3, scheme, observer=lambda i, t, pts: seen.append(pts))
    stepper = {"rk4": reference_rk4_step, "implicit-midpoint": reference_midpoint_step}[scheme]
    want, max_est = reference_advect(start, DenseBumpField(h.bumps).vector_field, steps, stepper)
    assert len(seen) == len(want) == 5
    for got, ref in zip(seen, want, strict=True):
        assert_same_bits(got, ref)
    assert_same_bits(report.loop.embedding.samples, want[-1])
    assert np.float64(report.max_local_error).tobytes() == np.float64(max_est).tobytes()
    assert 0.0 < max_est


# ---------------------------------------------------------------- error estimates


def _smooth_case():
    loop = circle_loop(n=64)
    bumps = [PlanarBump((0.6, 0.2), 0.7, 1.0)]
    return loop, PlanarHamiltonian(bumps), DenseBumpField(bumps).vector_field


def _true_end(pts, field, dt, substeps=256):
    """The flow over ``dt`` by RK4 substeps, far below the error of one step."""
    for _ in range(substeps):
        pts, _ = reference_rk4_step(pts, dt / substeps, field)
    return pts


def test_midpoint_estimate_tends_to_the_true_local_error():
    # a third of the differences from the explicit midpoint and from the
    # trapezoid step is the leading error term; step doubling reads about 0.75
    loop, h, field = _smooth_case()
    start = loop.embedding.samples
    ratios = []
    for dt in [0.04, 0.02, 0.01, 0.005]:
        report = advect(loop, h, dt, dt, "implicit-midpoint")
        true = np.max(np.abs(report.loop.embedding.samples - _true_end(start, field, dt)))
        ratios.append(report.max_local_error / true)
    gaps = np.abs(np.array(ratios) - 1.0)
    assert np.all(np.diff(gaps) < 0.0)
    assert 0.9 <= ratios[-1] <= 1.1


def test_rk4_estimate_is_third_order():
    # (dt / 6)(k4 - k5) is the difference from the embedded third-order
    # solution, O(dt^4): halving dt divides it by about 16 (step doubling's
    # difference of two fifth-order steps would divide by 32)
    loop, h, _ = _smooth_case()
    ests = [advect(loop, h, dt, dt).max_local_error for dt in [0.04, 0.02, 0.01, 0.005]]
    for coarse, fine in zip(ests, ests[1:]):
        assert 15.0 <= coarse / fine <= 17.0


def test_midpoint_step_whose_solve_converges_but_whose_estimate_exceeds_is_rejected():
    loop = circle_loop(n=32)
    bumps = [PlanarBump((0.6, 0.2), 0.7, 3.0)]
    start = loop.embedding.samples
    field = DenseBumpField(bumps).vector_field
    end, e = reference_midpoint_step(start, 0.1, field)  # converges
    est = np.max(np.abs(e - (0.1 / 6.0) * field(end)))
    assert est > 1e-3
    seen = []
    with pytest.raises(StepRejected, match=f"^step 0: local error estimate {est:.3e} exceeds 0.001$"):
        advect(loop, PlanarHamiltonian(bumps), 1.0, 0.1, "implicit-midpoint",
               observer=lambda i, t, pts: seen.append(i))
    assert seen == [0]


# ---------------------------------------------------------------- against real-arithmetic steps


def _oracle_case(region, n_bumps):
    """A 256-point loop and bumps whose field reaches it everywhere within 5
    sigma ("core"), or a circle of radius 1 with narrow bumps centred on it,
    so that it also has points in a 5-6 sigma band and points beyond 6 sigma
    of every bump ("band"); two of those far points, (0, 1) and (-1, 0), get
    the coordinate 0 as -0.0."""
    rng = np.random.default_rng(40 + n_bumps)
    if region == "core":
        loop = samples.random_decorated_loop(rng, n=256)
        pts = loop.embedding.samples
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        bumps = [PlanarBump(tuple(rng.uniform(lo, hi)), rng.uniform(1.0, 1.2),
                            rng.uniform(0.1, 0.3) * rng.choice([-1.0, 1.0]))
                 for _ in range(n_bumps)]
        return loop, bumps
    pts = LoopEmbedding.circle(n=256).samples
    pts[64, 0] = pts[128, 1] = -0.0
    angles = (0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0)[:n_bumps]
    bumps = [PlanarBump((np.cos(a), np.sin(a)), rng.uniform(0.06, 0.08),
                        rng.uniform(0.003, 0.006) * rng.choice([-1.0, 1.0])) for a in angles]
    return DecoratedLoop(LoopEmbedding(pts), samples.standard_form("sin2t")), bumps


def _rho(pts, bumps):
    """Distance in widths from each point to its nearest bump centre."""
    return np.min([np.hypot(*(pts - b.center).T) / b.sigma for b in bumps], axis=0)


@pytest.mark.parametrize("scheme", ["rk4", "implicit-midpoint"])
@pytest.mark.parametrize("n_bumps", [1, 2, 3])
@pytest.mark.parametrize("region", ["core", "band"])
def test_advect_is_bit_for_bit_the_real_arithmetic_steps(region, n_bumps, scheme):
    loop, bumps = _oracle_case(region, n_bumps)
    h = PlanarHamiltonian(bumps)
    start = loop.embedding.samples
    rho = _rho(start, bumps)
    if region == "core":
        assert rho.max() < 5.0 and h._terms(start)[1] is None
    else:
        assert np.any((rho >= 5.0) & (rho < 6.0)) and np.any(rho < 5.0)
    seen = []
    report = advect(loop, h, 0.0205, 1e-3, scheme,
                    observer=lambda i, t, pts: seen.append(pts))
    stepper = {"rk4": reference_rk4_step, "implicit-midpoint": reference_midpoint_step}[scheme]
    want, max_est = reference_advect(start, DenseBumpField(bumps).vector_field,
                                     _step_schedule(0.0205, 1e-3), stepper)
    assert report.steps == len(want) - 1 == 21
    for got, ref in zip(seen, want, strict=True):
        assert_same_bits(got, ref)
    assert_same_bits(report.loop.embedding.samples, want[-1])
    assert np.float64(report.max_local_error).tobytes() == np.float64(max_est).tobytes()
    assert 0.0 < max_est
    far = rho > 6.0
    if region == "band":
        # beyond 6 sigma of every bump a point never moves.  There the field is
        # (+0, -0): x = -0.0 gains +0 and ends +0.0, y = -0.0 gains -0 and
        # stays -0.0, and advect matched both signs above
        assert far[64] and far[128] and far.sum() > 100
        np.testing.assert_array_equal(want[-1][far], start[far])
        assert not np.signbit(want[-1][64, 0]) and np.signbit(want[-1][128, 1])
        band = (rho >= 5.0) & (rho < 6.0)
        assert np.any(want[-1][band] != start[band])


def test_observer_gets_copies_that_do_not_steer_the_run():
    loop, h = _random_case(n=128)
    kept = []

    def spoil(i, t, pts):
        kept.append(pts.copy())
        assert pts.dtype == np.float64 and pts.shape == (128, 2)
        pts[:] = np.nan

    report = advect(loop, h, 0.005, 1e-3, observer=spoil)
    clean = []
    again = advect(loop, h, 0.005, 1e-3, observer=lambda i, t, pts: clean.append(pts))
    assert len(kept) == len(clean) == 6
    for got, want in zip(kept, clean):
        assert_same_bits(got, want)
    assert_same_bits(report.loop.embedding.samples, again.loop.embedding.samples)
    assert report.max_local_error == again.max_local_error
    # every snapshot is its own array
    for a in range(len(clean)):
        for b in range(a):
            assert not np.shares_memory(clean[a], clean[b])


# ---------------------------------------------------------------- step condition and the exact turn


def _hessian_norms(h, pts, step):
    """|Hess h| at each point, by central differences of the gradient."""
    cols = [(h.gradient(pts + e) - h.gradient(pts - e)) / (2.0 * step)
            for e in (np.array([step, 0.0]), np.array([0.0, step]))]
    a, b, d = cols[0][:, 0], 0.5 * (cols[0][:, 1] + cols[1][:, 0]), cols[1][:, 1]
    return np.abs(0.5 * (a + d)) + np.hypot(0.5 * (a - d), b)


@pytest.mark.parametrize("region", ["core", "band", "mixed"])
@pytest.mark.parametrize("n_bumps", [1, 2, 3])
def test_jacobian_bound_is_at_least_the_largest_jacobian(region, n_bumps):
    rng = np.random.default_rng(80 + n_bumps)
    bumps = [PlanarBump(tuple(rng.uniform(-0.5, 0.5, 2)), rng.uniform(0.3, 1.2),
                        (-1.0) ** i * rng.uniform(0.1, 2.0)) for i in range(n_bumps)]
    bumps.append(PlanarBump((0.2, -0.1), 0.4, 0.0))
    h = PlanarHamiltonian(bumps)
    # rho near sqrt 3 too, where the radial eigenvalue (rho^2 - 1) exp(-rho^2 / 2) peaks
    core = np.vstack([_ring(rng, bumps, 0.0, 5.0, 4096), _ring(rng, bumps, 1.7, 1.8, 1024)]
                     + [[b.center] for b in bumps])
    band = _ring(rng, bumps, 5.0, 6.0, 4096)
    pts = {"core": core, "band": band,
           "mixed": np.vstack([core, band, _ring(rng, bumps, 6.0, 9.0, 1024)])}[region]
    largest = np.max(_hessian_norms(h, pts, 1e-6))
    bound = sum(abs(b.amplitude) / b.sigma**2 for b in bumps)
    assert h._jacobian_bound == pytest.approx(bound, rel=1e-15)
    assert largest <= h._jacobian_bound * (1.0 + 1e-6)
    if region != "band":
        # at a bump's centre its Hessian is -A / sigma^2 times the identity
        assert largest > 0.5 * max(abs(b.amplitude) / b.sigma**2 for b in bumps)


@pytest.mark.parametrize("scheme", ["rk4", "implicit-midpoint"])
def test_step_condition_rejects_dt_l_above_two_root_two(scheme):
    # L = 300 / 0.5^2 + 100 / 0.25^2 = 2800, from two bumps far from the
    # loop: its points never move, and only dt L decides
    bumps = [PlanarBump((10.0, 0.0), 0.5, 300.0), PlanarBump((10.0, 3.0), 0.25, -100.0)]
    h = PlanarHamiltonian(bumps)
    assert h._jacobian_bound == 2800.0
    loop = circle_loop(n=64)
    # dt L = 2.8, with a partial last step
    report = advect(loop, h, 0.0105, 1e-3, scheme)
    assert report.steps == 11 and report.max_local_error == 0.0
    assert_same_bits(report.loop.embedding.samples, loop.embedding.samples)
    seen = []
    with pytest.raises(StepRejected, match=r"^step condition: dt L = 2\.856e\+00 exceeds 2\.8284,"):
        advect(loop, h, 0.0105, 1.02e-3, scheme, observer=lambda *args: seen.append(args))
    assert seen == []
    # the longest step counts, not the partial last one
    with pytest.raises(StepRejected, match="step condition"):
        advect(loop, h, 1.5e-3, 1.02e-3, scheme)


def _exact_turn(pts, center, sigma, amplitude, duration):
    """The flow of one bump A exp(-r^2 / 2 sigma^2) at points within 5 sigma of
    its centre: each turns about the centre by (A / sigma^2) exp(-r^2 / 2 sigma^2) T."""
    d = pts - center
    angle = amplitude / sigma**2 * np.exp(-0.5 * np.sum(d * d, axis=1) / sigma**2) * duration
    cos, sin = np.cos(angle), np.sin(angle)
    return center + np.column_stack([cos * d[:, 0] - sin * d[:, 1], sin * d[:, 0] + cos * d[:, 1]])


def _turn_error(report, center, sigma, amplitude, duration, start):
    want = _exact_turn(start, np.asarray(center), sigma, amplitude, duration)
    return float(np.max(np.hypot(*(report.loop.embedding.samples - want).T)))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("scheme, order", [("rk4", 4), ("implicit-midpoint", 2)])
def test_one_bump_runs_turn_every_point_by_the_exact_angle(seed, scheme, order):
    rng = np.random.default_rng(90 + seed)
    loop = samples.random_decorated_loop(rng, n=256)
    start = loop.embedding.samples
    center = tuple(rng.uniform(start.min(axis=0), start.max(axis=0)))
    sigma = np.max(np.hypot(*(start - center).T)) / 4.0 * rng.uniform(1.0, 1.5)
    dt = 1e-3
    amplitude = rng.uniform(0.2, 0.5) * rng.choice([-1.0, 1.0]) * sigma**2 / dt
    h = PlanarHamiltonian.single(center, sigma, amplitude)
    # the sign of the turn is that of the field: X = (A / sigma^2) e^(-r^2 / 2 sigma^2) (-dy, dx)
    d = start - center
    rate = amplitude / sigma**2 * np.exp(-0.5 * np.sum(d * d, axis=1) / sigma**2)
    np.testing.assert_allclose(hamiltonian_vector_field(h, start),
                               rate[:, None] * np.column_stack([-d[:, 1], d[:, 0]]),
                               rtol=1e-12, atol=1e-15 * np.max(np.abs(rate)))
    errors = [_turn_error(advect(loop, h, 0.02, step, scheme), center, sigma, amplitude, 0.02,
                          start) for step in (dt, dt / 2.0)]
    # accepted, and off the exact turn by the scheme's global error, which
    # halving dt divides by about 2^order
    assert 0.0 < errors[1] < errors[0] < {4: 1e-3, 2: 5e-2}[order]
    assert 0.8 * 2**order <= errors[0] / errors[1] <= 1.2 * 2**order


def test_the_exact_turn_tells_the_rejected_run_from_the_accepted_one():
    # r = 1 + 0.2 cos 3t under one bump at (0.3, 0.1), sigma = 0.5, T = 0.01, dt = 1e-3
    t = uniform_grid(256)
    r = 1.0 + 0.2 * np.cos(3.0 * t)
    loop = DecoratedLoop(LoopEmbedding(np.column_stack([r * np.cos(t), r * np.sin(t)])),
                         samples.standard_form("sin2t"))
    start = loop.embedding.samples
    center, sigma = (0.3, 0.1), 0.5
    # A = 100, dt L = 0.4: accepted by both schemes, and close to the exact turn
    h = PlanarHamiltonian.single(center, sigma, 100.0)
    rk4 = _turn_error(advect(loop, h, 0.01, 1e-3), center, sigma, 100.0, 0.01, start)
    midpoint = _turn_error(advect(loop, h, 0.01, 1e-3, "implicit-midpoint"),
                           center, sigma, 100.0, 0.01, start)
    assert rk4 < 1e-4 and midpoint < 1e-2
    # A = 5e4, dt L = 200: the first RK4 stage carries every point past 6 sigma,
    # so the estimate reads small and the real-arithmetic steps accept the run,
    # off the exact turn by orders of magnitude more; advect now rejects it
    bumps = [PlanarBump(center, sigma, 5e4)]
    steps = _step_schedule(0.01, 1e-3)
    ref, max_est = reference_advect(start, DenseBumpField(bumps).vector_field, steps,
                                    reference_rk4_step)
    wrong = np.max(np.hypot(*(ref[-1] - _exact_turn(start, np.asarray(center), sigma, 5e4,
                                                     0.01)).T))
    assert max_est <= 1e-3 and wrong > 1.0
    assert wrong > 1e5 * rk4 and wrong > 1e2 * midpoint
    for scheme in ("rk4", "implicit-midpoint"):
        with pytest.raises(StepRejected, match=r"^step condition: dt L = 2\.000e\+02"):
            advect(loop, PlanarHamiltonian(bumps), 0.01, 1e-3, scheme)


# ---------------------------------------------------------------- two routes


def test_equivariance_residual_zero_duration():
    rng = np.random.default_rng(21)
    loop = samples.random_decorated_loop(rng)
    bbox = samples.loop_bbox(loop.embedding)
    h = samples.random_hamiltonian(rng, bbox)
    h_test = samples.random_hamiltonian(rng, bbox)
    assert equivariance_residual(loop, h, h_test, 0.0, 0.1) == 0.0


def test_equivariance_residual_small_on_gentle_flow():
    rng = np.random.default_rng(21)
    loop = samples.random_decorated_loop(rng)
    bbox = samples.loop_bbox(loop.embedding)
    h = samples.random_hamiltonian(rng, bbox)
    h_test = samples.random_hamiltonian(rng, bbox)
    assert equivariance_residual(loop, h, h_test, 0.5, 2e-3) < 1e-9

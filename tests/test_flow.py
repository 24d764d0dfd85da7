"""Hamiltonian bump fields and loop advection."""

import numpy as np
import pytest

from vortexloop import samples
from vortexloop.circle_forms import TWO_PI
from vortexloop.errors import StepRejected, ValidationFailed
from vortexloop.flow import (
    FlowReport,
    PlanarBump,
    PlanarHamiltonian,
    advect,
    equivariance_residual,
    hamiltonian_vector_field,
)
from vortexloop.loops import DecoratedLoop, LoopEmbedding, orbit_equivalent

from conftest import fd_gradient


def circle_loop(n=128, form_name="sin2t"):
    return DecoratedLoop(LoopEmbedding.circle(n=n), samples.standard_form(form_name))


# ---------------------------------------------------------------- hamiltonian


def test_bump_rejects_nonpositive_width():
    with pytest.raises(ValueError):
        PlanarBump((0.0, 0.0), -0.5, 1.0)
    with pytest.raises(ValueError):
        PlanarHamiltonian.single((0.0, 0.0), 0.0, 1.0)


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
    assert not h.support_mask(far).any()
    near = np.array([[0.3, 0.1], [2.7, 0.0]])  # inside core and blend band
    assert h.support_mask(near).all()


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


def test_midpoint_solve_that_does_not_converge_is_rejected():
    loop = circle_loop(n=32)
    h = PlanarHamiltonian.single((0.5, 0.0), 0.3, 40.0)
    with pytest.raises(StepRejected, match="did not converge"):
        advect(loop, h, 1.0, 0.1, scheme="implicit-midpoint")


def test_collision_raises_validation_failed():
    # differential swirl around an off-center bump folds the coarse polyline
    loop = circle_loop(n=32)
    h = PlanarHamiltonian.single((1.0, 0.0), 0.25, 2.0)
    with pytest.raises(ValidationFailed, match="self-intersects"):
        advect(loop, h, 2.0, 0.002, error_limit=1e9)


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

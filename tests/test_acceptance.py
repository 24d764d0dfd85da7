"""Acceptance suite: eight criteria, one test and one printed verdict each.

Each criterion pins its tolerances as literals and asserts its runtime
budget.  Constructions are seeded, so reruns are reproducible.
"""

import json
import time
from contextlib import contextmanager

import numpy as np

from vortexloop import io, loops, samples
from vortexloop.circle_forms import (
    TWO_PI,
    CircleForm,
    find_zeros,
    partial_vorticities,
    stabilizer_generator,
    symmetry_step,
)
from vortexloop.cli import main
from vortexloop.flow import (
    PlanarBump,
    PlanarHamiltonian,
    advect,
    equivariance_residual,
)
from vortexloop.loops import (
    DecoratedLoop,
    LoopEmbedding,
    intertwiner,
    orbit_equivalent,
    pushforward_form,
)
from vortexloop.symplectic import (
    closedness_residual,
    exactness_residual,
    momentum_separation,
    omega_eval,
    pairing,
    pairing_matrix,
    project_area_constraint,
    tangent_decompose,
)
from scipy.linalg import svdvals

from conftest import StarCurve, bump_dictionary, near_degenerate_form


def circ_gap(a, b):
    return np.abs(np.mod(np.asarray(a) - np.asarray(b) + np.pi, TWO_PI) - np.pi)


@contextmanager
def criterion(number, budget_s):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {number}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {number} runtime {elapsed:.1f}s over budget"
    print(f"criterion {number}: PASS ({elapsed:.1f}s < {budget_s:.0f}s)")


def test_criterion_1_analytic_fixtures():
    with criterion(1, 1.0):
        sin2t = samples.standard_form("sin2t")
        zs = find_zeros(sin2t)
        np.testing.assert_allclose(
            zs.zeros, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2], atol=1e-10)
        prof = partial_vorticities(sin2t, zs)
        np.testing.assert_allclose(prof.omegas, [1.0, -1.0, 1.0, -1.0], atol=1e-10)
        assert symmetry_step(prof) == 2

        psi = stabilizer_generator(sin2t)
        t = np.linspace(0.0, TWO_PI, 1001)
        assert np.max(circ_gap(psi(t), t + np.pi)) < 1e-9

        sin3t = samples.standard_form("sin3t")
        zs3 = find_zeros(sin3t)
        prof3 = partial_vorticities(sin3t, zs3)
        assert prof3.k == 6
        want = np.array([2.0 / 3.0, -2.0 / 3.0] * 3)
        np.testing.assert_allclose(prof3.omegas, want, atol=1e-10)

        psi3 = stabilizer_generator(sin3t)
        triple = psi3(psi3(psi3(t)))
        assert np.max(circ_gap(triple, t)) < 1e-8


def test_criterion_2_constructive_intertwiner():
    with criterion(2, 30.0):
        rng = np.random.default_rng(11)
        emb = LoopEmbedding.circle()
        probe = np.linspace(0.0, TWO_PI, 4097)
        worst_sup = 0.0
        worst_prof = 0.0
        worst_relation = 0.0
        for _ in range(100):
            model = samples.random_morse_form(rng)
            gamma = samples.random_monotone_diffeo(rng)
            target_form = samples.pullback_through(gamma, model)
            loop = DecoratedLoop(emb, target_form)

            model_loop = DecoratedLoop(emb, model)
            model_prof = model_loop.profile
            z0 = np.mod(gamma.inverse_eval(model_loop.zero_set.zeros[0]), TWO_PI)
            shift = int(np.argmin(circ_gap(loop.zero_set.zeros, z0)))

            psi = intertwiner(model_loop, loop, shift)
            worst_sup = max(worst_sup,
                            float(np.max(circ_gap(psi(probe),
                                                  gamma.inverse_eval(probe)))))

            scale = float(np.max(np.abs(loop.profile.omegas)))
            # the defining relation: target antiderivative through psi minus
            # the model's is constant
            worst_relation = max(worst_relation,
                                 loops._intertwining_residual(model, target_form, psi) / scale)

            # partial vorticities do not change under any orientation-preserving
            # map, so this checks pushforward_form, not psi
            pushed = pushforward_form(psi, model)
            pushed_prof = partial_vorticities(pushed, find_zeros(pushed))
            dev = np.max(np.abs(pushed_prof.omegas - loop.profile.omegas))
            shifted_model = np.roll(model_prof.omegas, shift)
            dev = max(dev, np.max(np.abs(shifted_model - loop.profile.omegas)))
            worst_prof = max(worst_prof, float(dev) / scale)

        assert worst_sup < 1e-8
        assert worst_prof < 1e-8
        assert worst_relation <= 1e-10


def test_criterion_3_nondegeneracy_contrast():
    with criterion(3, 5.0):
        _, sigma_min = pairing_matrix(samples.standard_form("sin2t"), n=16)
        assert sigma_min > 1e-6

        matrix, sigma_vol = pairing_matrix(samples.standard_form("volume"), n=16)
        relative = sigma_vol / float(svdvals(matrix)[0])
        assert relative < 1e-10


def test_criterion_4_symplectic_identities():
    with criterion(4, 60.0):
        rng = np.random.default_rng(29)
        worst_route = 0.0
        for _ in range(100):
            emb = samples.random_loop(rng, n=128)
            form = samples.random_morse_form(rng)
            u = project_area_constraint(emb, rng.normal(size=(128, 2)))
            v = project_area_constraint(emb, rng.normal(size=(128, 2)))
            route_a = omega_eval(emb, u, v, form)
            rho_u, lam_u = tangent_decompose(emb, u)
            rho_v, lam_v = tangent_decompose(emb, v)
            route_b = pairing(rho_u, lam_v, form) - pairing(rho_v, lam_u, form)
            worst_route = max(worst_route, abs(route_a - route_b))
        assert worst_route < 1e-9

        worst_closed = 0.0
        worst_exact = 0.0
        for _ in range(20):
            emb = samples.random_loop(rng, n=128)
            form = samples.random_morse_form(rng)
            u = project_area_constraint(emb, rng.normal(size=(128, 2)))
            v = project_area_constraint(emb, rng.normal(size=(128, 2)))
            w = project_area_constraint(emb, rng.normal(size=(128, 2)))
            worst_closed = max(worst_closed,
                               closedness_residual(emb, u, v, w, form, step=1e-4))
            worst_exact = max(worst_exact,
                              exactness_residual(emb, u, v, form, step=1e-4))
        assert worst_closed < 1e-5
        assert worst_exact < 1e-5


def test_criterion_5_coadjoint_orbit_invariance():
    with criterion(5, 120.0):
        rng = np.random.default_rng(3)
        for _ in range(20):
            loop = samples.random_decorated_loop(rng)
            h = samples.random_hamiltonian(rng, samples.loop_bbox(loop.embedding))
            report = advect(loop, h, 1.0, 1e-3, "rk4")
            assert report.area_drift < 1e-8
            assert report.profile_drift == 0.0
            assert report.hamiltonian_drift < 1e-8
            assert orbit_equivalent(loop, report.loop)

        # refinement study on a strong two-bump shear, resolved finely enough
        # in space that the quadrature floor sits below every drift measured
        rng5 = np.random.default_rng(5)
        loop = samples.random_decorated_loop(rng5, n=4096)
        c = loop.embedding.samples.mean(axis=0)
        h = PlanarHamiltonian([
            PlanarBump((c[0] + 0.4, c[1]), 0.6, 2.0),
            PlanarBump((c[0] - 0.5, c[1] + 0.3), 0.7, -1.5),
        ])
        dts = np.array([0.0125, 0.00625, 0.003125])
        drifts = np.array([advect(loop, h, 1.0, dt, "rk4").area_drift
                           for dt in dts])
        slope = np.polyfit(np.log(dts), np.log(drifts), 1)[0]
        assert 3.7 <= slope <= 4.3


def test_criterion_6_momentum_injectivity():
    with criterion(6, 120.0):
        rng = np.random.default_rng(23)
        n = 256
        grid = np.arange(n) * (TWO_PI / n)
        sin2t = samples.standard_form("sin2t")

        # equivalent pairs, rigid: rotate the circle parameter by half a turn,
        # which is a stabilizer reparametrization for a pi-periodic density
        worst_equiv = 0.0
        for _ in range(25):
            curve = StarCurve(rng)
            pts = curve(grid)
            first = DecoratedLoop(LoopEmbedding(pts), sin2t)
            second = DecoratedLoop(LoopEmbedding(np.roll(pts, -n // 2, axis=0)), sin2t)
            dictionary = bump_dictionary(
                samples.loop_bbox(first.embedding, second.embedding), 50)
            worst_equiv = max(worst_equiv,
                              momentum_separation(first, second, dictionary))

        # equivalent pairs, non-rigid stabilizer of an asymmetric-looking
        # density with a hidden half-turn symmetry
        form = samples.symmetric_form()
        psi = stabilizer_generator(form, grid_size=1024)
        warped = np.mod(psi(grid), TWO_PI)
        for _ in range(25):
            curve = StarCurve(rng)
            first = DecoratedLoop(LoopEmbedding(curve(grid)), form)
            second = DecoratedLoop(LoopEmbedding(curve(warped)), form)
            dictionary = bump_dictionary(
                samples.loop_bbox(first.embedding, second.embedding), 50)
            worst_equiv = max(worst_equiv,
                              momentum_separation(first, second, dictionary))
        assert worst_equiv < 1e-8

        # non-equivalent pairs: four distinct ways to break the orbit label
        min_sep = np.inf
        for i in range(50):
            curve = StarCurve(rng)
            pts = curve(grid)
            first = DecoratedLoop(LoopEmbedding(pts), sin2t)
            mode = i % 4
            if mode == 0:
                second = DecoratedLoop(LoopEmbedding(pts + [0.15, -0.1]), sin2t)
            elif mode == 1:
                centroid = pts.mean(axis=0)
                second = DecoratedLoop(
                    LoopEmbedding(centroid + 1.07 * (pts - centroid)), sin2t)
            elif mode == 2:
                heavier = CircleForm.from_samples(1.15 * sin2t(grid))
                second = DecoratedLoop(LoopEmbedding(pts), heavier)
            else:
                turned = CircleForm.from_samples(sin2t(grid + 0.5))
                second = DecoratedLoop(LoopEmbedding(pts), turned)
            dictionary = bump_dictionary(
                samples.loop_bbox(first.embedding, second.embedding), 50)
            min_sep = min(min_sep, momentum_separation(first, second, dictionary))
        assert min_sep > 1e-4


def test_criterion_7_equivariance():
    with criterion(7, 120.0):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(20):
            loop = samples.random_decorated_loop(rng)
            bbox = samples.loop_bbox(loop.embedding)
            h_flow = samples.random_hamiltonian(rng, bbox)
            h_test = samples.random_hamiltonian(rng, bbox)
            worst = max(worst,
                        equivariance_residual(loop, h_flow, h_test, 0.5, 2e-3))
        assert worst < 1e-7

        # refinement at coarse steps, where integrator error is above the
        # quadrature floor and the fourth-order decay is visible
        rng5 = np.random.default_rng(5)
        loop = samples.random_decorated_loop(rng5)
        bbox = samples.loop_bbox(loop.embedding)
        h_flow = samples.random_hamiltonian(rng5, bbox)
        h_test = samples.random_hamiltonian(rng5, bbox)
        dts = np.array([0.5, 0.25, 0.125])
        resid = np.array([equivariance_residual(loop, h_flow, h_test, 1.0, dt)
                          for dt in dts])
        slope = np.polyfit(np.log(dts), np.log(resid), 1)[0]
        assert 3.7 <= slope <= 4.3


def test_criterion_8_cli_determinism_and_contract(tmp_path, capsys):
    with criterion(8, 60.0):
        code1 = main(["verify", "--suite", "all", "--seed", "0"])
        out1 = capsys.readouterr().out
        code2 = main(["verify", "--suite", "all", "--seed", "0"])
        out2 = capsys.readouterr().out
        assert code1 == 0 and code2 == 0
        assert out1 == out2
        assert json.loads(out1)["passed"] is True

        # exit-code contract over a fixture set
        circle = DecoratedLoop(LoopEmbedding.circle(), samples.standard_form("sin2t"))
        loop_file = tmp_path / "loop.json"
        io.dump(io.loop_to_dict(circle), loop_file)

        scaled = DecoratedLoop(LoopEmbedding.circle(radius=1.1),
                               samples.standard_form("sin2t"))
        scaled_file = tmp_path / "scaled.json"
        io.dump(io.loop_to_dict(scaled), scaled_file)

        broken_file = tmp_path / "broken.json"
        broken_file.write_text('{"schema": "vortexloop/1", "samples": [[0, ')

        degen = io.loop_to_dict(circle)
        degen["beta"] = io.form_to_dict(near_degenerate_form())
        degen_file = tmp_path / "degenerate.json"
        io.dump(degen, degen_file)

        ham_file = tmp_path / "strong.json"
        io.dump(io.hamiltonian_to_dict(
            PlanarHamiltonian.single((0.5, 0.0), 0.3, 40.0)), ham_file)

        assert main(["invariants", str(loop_file)]) == 0
        assert main(["equiv", str(loop_file), str(scaled_file)]) == 1
        assert main(["invariants", str(broken_file)]) == 2
        assert main(["invariants", str(degen_file)]) == 3
        assert main(["intertwine", str(loop_file), str(loop_file), "--shift", "1"]) == 4
        assert main(["flow", str(loop_file), str(ham_file), "-T", "1.0", "--dt", "0.1"]) == 5
        capsys.readouterr()

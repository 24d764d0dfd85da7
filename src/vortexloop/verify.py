"""Seeded property suites behind the ``verify`` subcommand.

Each check is a named, deterministic measurement: a residual, a tolerance,
and a comparison direction.  Reports are plain dictionaries so the CLI can
serialize them byte-identically for a fixed seed.
"""

from __future__ import annotations

import numpy as np

from . import samples
from .circle_forms import (
    TWO_PI,
    cumulative,
    find_zeros,
    invert_cumulative,
    partial_vorticities,
    stabilizer_generator,
    symmetry_step,
)
from .flow import PlanarHamiltonian, advect, equivariance_residual, hamiltonian_vector_field
from .io import SCHEMA
from .loops import DecoratedLoop, LoopEmbedding, intertwiner
from .symplectic import (
    TangentVector,
    closedness_residual,
    exactness_residual,
    momentum_map_eval,
    omega_eval,
    pairing,
    pairing_matrix,
    tangent_decompose,
)


def _circle_dist(a, b) -> np.ndarray:
    return np.abs(np.mod(np.asarray(a) - np.asarray(b) + np.pi, TWO_PI) - np.pi)


def _check(name: str, residual: float, tolerance: float, comparison: str = "<=",
           structural: bool = False) -> dict:
    """One report record; a check that reads 0 by construction is marked ``structural``."""
    residual = float(residual)
    if comparison == "<=":
        passed = residual <= tolerance
    elif comparison == ">=":
        passed = residual >= tolerance
    else:
        raise ValueError(f"unknown comparison {comparison!r}")
    record = {
        "name": name,
        "passed": bool(passed),
        "residual": residual,
        "tolerance": float(tolerance),
        "comparison": comparison,
    }
    if structural:
        record["structural"] = True
    return record


def _random_constrained_tangent(rng: np.random.Generator, emb: LoopEmbedding) -> TangentVector:
    """rho and lam from random harmonics 1 to 4, lam projected onto the area constraint."""
    grid = emb.grid
    rho = np.zeros(emb.size)
    lam = rng.uniform(-0.5, 0.5) * np.ones(emb.size)
    for j in range(1, 5):
        rho += rng.uniform(-1.0, 1.0) * np.cos(j * grid) + rng.uniform(-1.0, 1.0) * np.sin(j * grid)
        lam += rng.uniform(-1.0, 1.0) * np.cos(j * grid) + rng.uniform(-1.0, 1.0) * np.sin(j * grid)
    return TangentVector.from_split(emb, rho, lam, project=True)


def forms_suite(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    checks = []

    form = samples.standard_form("sin2t")
    zs = find_zeros(form)
    expected_zeros = np.array([0.0, np.pi / 2, np.pi, 1.5 * np.pi])
    checks.append(_check("sin2t_zero_locations",
                         np.max(_circle_dist(zs.zeros, expected_zeros)), 1e-10))
    prof = partial_vorticities(form, zs)
    checks.append(_check("sin2t_profile",
                         np.max(np.abs(prof.omegas - np.array([1.0, -1.0, 1.0, -1.0]))), 1e-10))
    checks.append(_check("sin2t_symmetry_step", abs(symmetry_step(prof) - 2), 0.5))
    psi = stabilizer_generator(form)
    checks.append(_check("sin2t_stabilizer_is_rotation",
                         np.max(_circle_dist(psi(psi.grid), psi.grid + np.pi)), 1e-9))

    mixed = samples.standard_form("mixed")
    asin = float(np.arcsin(0.15))
    zs = find_zeros(mixed)
    expected_zeros = np.array([np.pi / 2, np.pi + asin, 1.5 * np.pi, TWO_PI - asin])
    checks.append(_check("mixed_zero_locations",
                         np.max(_circle_dist(zs.zeros, expected_zeros)), 1e-10))
    prof = partial_vorticities(mixed, zs)
    expected = np.array([-1.3225, 0.7225, -0.7225, 1.3225])
    checks.append(_check("mixed_profile", np.max(np.abs(prof.omegas - expected)), 1e-10))
    checks.append(_check("mixed_symmetry_trivial", abs(symmetry_step(prof) - 4), 0.5))

    worst = 0.0
    for _ in range(5):
        f = samples.random_morse_form(rng)
        zf = find_zeros(f)
        z0 = float(zf.zeros[0])
        z1 = float(zf.zeros[1]) if zf.k > 1 else z0 + TWO_PI
        for frac in (0.2, 0.5, 0.8):
            t = z0 + frac * (z1 - z0)
            s = cumulative(f, z0, t)
            t_back = invert_cumulative(f, (z0, z1), s)
            worst = max(worst, abs(t_back - t))
    checks.append(_check("cumulative_inversion_round_trip", worst, 1e-9))

    sym = samples.symmetric_form()
    prof = partial_vorticities(sym, find_zeros(sym))
    checks.append(_check("nonrigid_family_profile",
                         np.max(np.abs(prof.omegas - samples.symmetric_form_profile())),
                         1e-10))
    psi = stabilizer_generator(sym)
    twice = psi.compose(psi)
    checks.append(_check("nonrigid_stabilizer_order_two",
                         np.max(_circle_dist(twice(twice.grid), twice.grid)), 1e-8))

    gamma = samples.random_monotone_diffeo(rng)
    beta = samples.random_morse_form(rng)
    target_form = samples.pullback_through(gamma, beta)
    circle = LoopEmbedding.circle(1.0, n=128)
    target = DecoratedLoop(circle, target_form)
    model = DecoratedLoop(circle, beta)
    images = np.mod(gamma.inverse_eval(model.zero_set.zeros), TWO_PI)
    shift = int(np.argmin(np.abs(np.sort(images) - images[0])))
    recon = intertwiner(model, target, shift, grid_size=1024)
    checks.append(_check("intertwiner_recovers_inverse",
                         np.max(_circle_dist(recon(recon.grid),
                                             gamma.inverse_eval(recon.grid))), 1e-8))
    return checks


def symplectic_suite(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    checks = []

    form = samples.standard_form("sin2t")
    _, sigma = pairing_matrix(form, n=16)
    checks.append(_check("sin2t_pairing_nondegenerate", sigma, 1e-6, comparison=">="))

    volume = samples.standard_form("volume")
    matrix, sigma = pairing_matrix(volume, n=16)
    top = float(np.linalg.norm(matrix, 2))
    checks.append(_check("volume_form_degenerate_direction", sigma / top, 1e-10))

    value = pairing(np.sin, np.cos, form)
    checks.append(_check("pairing_analytic_value", abs(value - np.pi / 2), 1e-10))
    checks.append(_check("volume_form_kills_constants",
                         abs(pairing(np.sin, lambda t: np.ones_like(t), volume)), 1e-12))

    emb = samples.random_loop(rng, n=256)
    worst_anti = 0.0
    worst_split = 0.0
    for _ in range(10):
        u = _random_constrained_tangent(rng, emb)
        v = _random_constrained_tangent(rng, emb)
        direct = omega_eval(emb, u, v, form)
        worst_anti = max(worst_anti, abs(direct + omega_eval(emb, v, u, form)))
        rho_u, lam_u = tangent_decompose(emb, u.vectors)
        rho_v, lam_v = tangent_decompose(emb, v.vectors)
        split = pairing(rho_u, lam_v, form) - pairing(rho_v, lam_u, form)
        worst_split = max(worst_split, abs(direct - split))
    checks.append(_check("omega_antisymmetry", worst_anti, 1e-12))
    checks.append(_check("omega_split_route_equivalence", worst_split, 1e-9))

    u = _random_constrained_tangent(rng, emb)
    v = _random_constrained_tangent(rng, emb)
    w = _random_constrained_tangent(rng, emb)
    # the two-form's coefficients do not depend on the basepoint: a value minus itself
    checks.append(_check("omega_closedness_fd",
                         closedness_residual(emb, u, v, w, form), 1e-5, structural=True))
    checks.append(_check("omega_exactness_fd",
                         exactness_residual(emb, u, v, form), 1e-5))

    far = PlanarHamiltonian.single((50.0, 50.0), 0.5, 1.0)
    checks.append(_check("momentum_compact_support",
                         abs(momentum_map_eval(emb, far, form)), 1e-15))
    return checks


def flow_suite(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    checks = []

    loop = DecoratedLoop(LoopEmbedding.circle(1.0, n=128), samples.standard_form("sin2t"))
    zero_h = PlanarHamiltonian([])
    report = advect(loop, zero_h, 0.5, 1e-2)
    checks.append(_check("zero_hamiltonian_identity",
                         max(report.area_drift, report.profile_drift,
                             report.hamiltonian_drift), 1e-15))

    radial = PlanarHamiltonian.single((0.0, 0.0), 1.0, 0.2)
    report = advect(loop, radial, 0.5, 1e-3)
    checks.append(_check("radial_flow_preserves_circle", report.area_drift, 1e-12))

    far = PlanarHamiltonian.single((40.0, 0.0), 0.5, 1.0)
    moved = advect(loop, far, 0.5, 1e-2).loop
    checks.append(_check("outside_support_fixed",
                         np.max(np.abs(moved.embedding.samples - loop.embedding.samples)),
                         0.0))

    rng_loop = samples.random_decorated_loop(rng, n=192)
    h = samples.random_hamiltonian(rng, samples.loop_bbox(rng_loop.embedding))
    report = advect(rng_loop, h, 0.25, 1e-3)
    checks.append(_check("generic_area_drift", report.area_drift, 1e-8))
    # advect carries the input loop's profile over to the evolved loop
    checks.append(_check("generic_profile_drift_bitexact", report.profile_drift, 0.0,
                         structural=True))
    checks.append(_check("generic_hamiltonian_drift", report.hamiltonian_drift, 1e-8))

    p = rng.uniform(-1.0, 1.0, size=(5, 2))
    step = 1e-5
    div = 0.0
    for q in p:
        px = hamiltonian_vector_field(h, np.array([[q[0] + step, q[1]], [q[0] - step, q[1]]]))
        py = hamiltonian_vector_field(h, np.array([[q[0], q[1] + step], [q[0], q[1] - step]]))
        div = max(div, abs((px[0, 0] - px[1, 0]) / (2 * step) + (py[0, 1] - py[1, 1]) / (2 * step)))
    checks.append(_check("field_divergence_free", div, 1e-7))

    h_test = samples.random_hamiltonian(rng, samples.loop_bbox(rng_loop.embedding))
    resid = equivariance_residual(rng_loop, h, h_test, 1.0, 0.25)
    checks.append(_check("equivariance_independent_test", resid, 1e-7))

    report = advect(rng_loop, h, 0.25, 1e-3, scheme="implicit-midpoint")
    checks.append(_check("midpoint_area_drift", report.area_drift, 1e-5))
    return checks


_SUITES = {"forms": forms_suite, "symplectic": symplectic_suite, "flow": flow_suite}


def run(suite: str, seed: int) -> dict:
    """Run one named suite, or all of them, and assemble the report."""
    if suite == "all":
        names = sorted(_SUITES)
    elif suite in _SUITES:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; pick forms, symplectic, flow, or all")
    sections = []
    all_passed = True
    for name in names:
        checks = _SUITES[name](seed)
        passed = all(c["passed"] for c in checks)
        all_passed = all_passed and passed
        sections.append({"suite": name, "passed": passed, "checks": checks})
    return {"schema": SCHEMA, "seed": int(seed), "passed": all_passed, "suites": sections}

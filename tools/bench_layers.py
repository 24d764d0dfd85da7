"""Per-layer timings of the flow, invariants and inversion paths in two trees, as one JSON record.

    python3 tools/bench_layers.py --parent PARENT_ROOT --out BENCH_<n>.json

``PARENT_ROOT`` and ``--change`` (default: the current directory) are roots of
source checkouts.  One single-threaded process, with glibc's allocator
thresholds fixed in its environment (``MALLOC_ENV``), imports ``vortexloop`` from
each tree's ``src`` under a module set of its own, builds each tree's kernels
from the same seeded draws, and times each kernel in ``BATCHES`` batches in a
row, each of which calls it in both trees, alternating which goes first.  The
kernels are:

- ``PlanarHamiltonian.gradient`` per call at n in {256, 512, 4096} points and
  B in {1, 2, 3} bumps;
- ``PlanarHamiltonian.gradient`` and ``__call__`` per call at n = 256 and
  B = 2 on points within 5 sigma of both bumps, in the 5-6 sigma band of one,
  beyond 6 sigma of both, and a third of each (``BUMP_REGIONS``);
- ``gradient(points, out)`` per call of a certified copy from ``_for_run``, as
  ``advect`` calls it, at n = 256 and B in {1, 2, 3};
- one step of ``advect`` with its error estimate (rk4 and implicit midpoint) at
  n in {256, 4096}: a run of K steps minus a run of none, over K, so the
  per-step simplicity checks count and the set-up and final checks do not;
- one whole 100-step ``advect`` (rk4 and implicit midpoint) at n = 256 under
  one, two and three bumps, as in a ``flow`` op, on runs that provably stay
  within 5 sigma of every bump;
- ``render.flow_csv`` on the 101 snapshots of a 100-step run at n = 256,
  ``render.svg_overlay`` of that run's start and end, and
  ``loops._spline_area`` on those snapshots stacked, as ``flow_csv`` calls it;
- ``loops._spline_area`` per call on one loop's samples at n in {256, 1024, 2048}:
  the area that ``LoopEmbedding`` computes once and ``enclosed_area`` returns,
  and ``LoopEmbedding`` itself on those samples: area, simplicity test,
  spline and immersion check;
- ``loops._polyline_is_simple`` (one simplicity check) at n = 256 and, on
  loops of their own, at n in ``SIMPLE_SIZES`` (1024, 4096);
- ``symplectic.momentum_map_eval`` at n = 256: the bump values on the loop's
  samples paired with its density, as ``advect`` calls it before and after;
- ``find_zeros`` on a fresh trig form (nothing cached) of degree 3, 25 and
  100, and on a fresh sampled form of 256, 1024 and 2048 values;
- the sampling grid alone on such fresh forms: construction, then
  ``max_abs`` and ``max_abs_derivative``, the density and its slope on the
  grid that ``find_zeros`` scans;
- one in-process ``cli.main(["invariants", ...])`` on a 256-point circle
  decorated by a degree-25 density;
- ``circle_forms._invert_batch`` per call on 4096 targets spread over every
  segment of a trig density of degree ``INVERT_DEGREE`` (42 zeros), and on
  4096 targets rising along the 2 segments of a degree-25 density: the median
  zero count and degree of the ``intertwine`` targets at seeds 1-3, and the
  order in which ``_transport`` passes the targets of a grid;
- ``circle_forms._inverse_hermite`` per call on the arguments with which the
  degree-25 ``_invert_batch`` above starts its 4096 targets;
- ``CircleDiffeo.inverse`` per call on a 4096-node map with exact nodal slopes,
  the size of the intertwiner's grid;
- ``loops._intertwining_residual`` per call on an intertwiner of 4096 samples
  from a random Morse density onto its pullback through a random circle map,
  as ``cli intertwine`` checks its answer;
- ``circle_forms._power_sum`` per call on the coefficients of a trig density
  of degree 3, 25 and 100 at 120 and 4096 off-grid points (``POWER_SUM_POINTS``):
  a Newton pass of ``find_zeros`` and one of the intertwiner's inversion;
- ``io.dumps`` per call on an ``intertwine`` document of 4096 map samples and
  on the ``flow -o`` document of a 256-point loop;
- ``io._float_list`` per call on the ``json``-decoded [x, y] pairs of a loop
  at n in ``LOAD_SIZES`` (256, 1024, 2048), and ``io.loop_from_dict`` per call
  on ``json``-decoded loop documents, as the CLI loads them: n = 256 and 2048
  decorated by a degree-25 density, and n = 2048 by 2048 density samples;
- ``circle_forms.symmetry_step`` per call on a random alternating profile with
  no symmetry, and ``circle_forms.circular_match`` per call on such a profile
  against a cyclic shift of itself (one matching shift), at k in
  ``PROFILE_SIZES`` (60, 1000, 4000) partial vorticities;
- ``loops._check_zero_images`` per call on k zeros drawn at random on a
  256-point loop, at k in ``ZERO_IMAGE_SIZES`` (6, 60, 1000).

The record holds machine details and that environment; for each kernel, the
median and quartiles over the batches in both trees and of the batch pairs'
change-over-parent ratio; the kernels that moved, those whose pairs favour
one tree in at least 19 of 21 batches and whose medians differ by more than
the parent's interquartile range; and the layer metrics ``TRACE_KEYS`` of
``benchmark/run.py --workload W --seed 1 --seconds 1 --trace 1`` for each
workload W, run ``TRACE_RUNS`` times in each tree, alternating: the counters
repeat exactly, the times are medians.

    python3 tools/bench_layers.py --measure ROOT

times the tree at ``ROOT`` alone through the same batches, best of three, and
prints {kernel: seconds}.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import types

SEED = 12
FLOW_DT = 1e-3
# (n, steps per timed run) of the step kernels
STEP_SIZES = ((256, 50), (4096, 10))
# alternated batches of the kernels in one process, and the least seconds of one
BATCHES = 21
BATCH_S = 0.05
TRACE_RUNS = 3
# glibc's allocator in the child that times the kernels: arrays are taken from
# the heap up to 8 MiB, and freed memory is kept up to 64 MiB.  With the
# defaults, an array above 128 kB (the n = 4096 kernels) is mapped and
# unmapped at every call unless an earlier, larger free raised that
# threshold, so the page faults a kernel pays depend on what ran before it
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "8388608", "MALLOC_TRIM_THRESHOLD_": "67108864"}
# where the points of the region timings lie, relative to the bumps
BUMP_REGIONS = ("inside5", "band", "beyond6", "mixed")
# (centre, sigma, amplitude) of the two bumps of the region timings
REGION_BUMPS = (((-0.25, 0.0), 0.8, 0.2), ((0.25, 0.0), 1.0, -0.15))
ZERO_DEGREES = (3, 25, 100)
ZERO_SAMPLES = (256, 1024, 2048)
AREA_SIZES = (256, 1024, 2048)
SIMPLE_SIZES = (1024, 4096)
INVERT_DEGREE = 40
# targets of one inversion and nodes of one circle-map inverse
INVERT_SIZE = 4096
POWER_SUM_POINTS = (120, 4096)
LOAD_SIZES = (256, 1024, 2048)
PROFILE_SIZES = (60, 1000, 4000)
ZERO_IMAGE_SIZES = (6, 60, 1000)
TRACE_KEYS = {
    "flow": ("flow.field_calls_per_step", "flow.field_points_per_step", "flow.steps",
             "flow.step_rejected", "flow.gradient.s", "flow.advect.self_s",
             "render.flow_csv.s", "render.svg_overlay.s"),
    "invariants": ("circle_forms.find_zeros.call_s.deg3", "circle_forms.find_zeros.call_s.deg25",
                   "circle_forms.find_zeros.call_s.deg100",
                   "circle_forms.find_zeros.call_s.samples", "circle_forms.find_zeros.evals_per_zero",
                   "circle_forms.eval.points", "cli.main.self_s"),
    "intertwine": ("circle_forms.antiderivative.calls_per_segment",
                   "circle_forms.antiderivative.points_per_target",
                   "circle_forms.CircleDiffeo.inverse.s", "cli.main.self_s"),
}


def _bump_region_points(rng, region, n):
    """n points within 5 sigma of both bumps of ``REGION_BUMPS``, in the 5-6
    sigma band of the first, beyond 6 sigma of both, or a third of each."""
    import numpy as np

    def ring(center, lo, hi, size):
        rho = rng.uniform(lo, hi, size)
        angle = rng.uniform(0.0, 2.0 * np.pi, size)
        return np.asarray(center) + rho[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])

    (c0, s0, _), _ = REGION_BUMPS
    if region == "inside5":  # centres 0.5 apart, 5 sigma >= 4
        return ring((0.0, 0.0), 0.0, 3.0, n)
    if region == "band":
        return ring(c0, 5.0 * s0, 6.0 * s0, n)
    if region == "beyond6":
        return ring((0.0, 0.0), 7.0, 12.0, n)
    third = n // 3
    return rng.permutation(np.vstack([_bump_region_points(rng, "inside5", third),
                                      _bump_region_points(rng, "band", third),
                                      _bump_region_points(rng, "beyond6", n - 2 * third)]))


def _fresh(use, build, *args):
    """``use`` on an object built anew, so nothing of it is cached."""
    return use(build(*args))


def _sampling_grid(form):
    """The density and its slope on the grid that ``find_zeros`` scans."""
    return form.max_abs(), form.max_abs_derivative()


def _quiet(main, argv):
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)


def _kernels(vl, folder):
    """Every kernel of the tree whose modules are ``vl``, as {name: (run,
    still, steps)}: the seconds of ``run``, less those of ``still`` when it is
    given, over ``steps``, are the kernel's.  The inputs are drawn from seeded
    generators in a fixed order and bound as each kernel is built; the
    ``cli_invariants`` kernel reads a loop written into ``folder``."""
    import numpy as np

    cf, loops, samples, vio = vl.circle_forms, vl.loops, vl.samples, vl.io
    PlanarBump, PlanarHamiltonian, advect = (vl.flow.PlanarBump, vl.flow.PlanarHamiltonian,
                                             vl.flow.advect)
    uniform_grid = vl.quadrature.uniform_grid
    kernels = {}

    def add(name, fn, *args, **kwargs):
        kernels[name] = (functools.partial(fn, *args, **kwargs), None, 1)

    rng = np.random.default_rng(SEED)
    for n in (256, 512, 4096):
        loop = samples.random_decorated_loop(rng, n=n)
        pts = loop.embedding.samples
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        for b in (1, 2, 3):
            h = PlanarHamiltonian([PlanarBump(tuple(rng.uniform(lo, hi)), rng.uniform(0.6, 1.2),
                                              rng.uniform(0.1, 0.3)) for _ in range(b)])
            add(f"gradient.n{n}.b{b}", h.gradient, pts)
    # a generator of their own, so the inputs of the other kernels do not move
    region_rng = np.random.default_rng(SEED)
    h = PlanarHamiltonian([PlanarBump(*bump) for bump in REGION_BUMPS])
    for region in BUMP_REGIONS:
        pts = _bump_region_points(region_rng, region, 256)
        add(f"gradient.{region}.n256.b2", h.gradient, pts)
        add(f"value.{region}.n256.b2", h, pts)
    # a certified run copy's field call, as ``advect`` makes it: the copy of a
    # 100-step run from 256 samples, called on those samples into an array of
    # their shape; a generator of its own, so the inputs of the other kernels
    # do not move
    run_rng = np.random.default_rng(SEED)
    pts = samples.random_decorated_loop(run_rng, n=256).embedding.samples
    bumps = [PlanarBump(tuple(run_rng.uniform(-0.25, 0.25, 2)), run_rng.uniform(0.8, 1.2),
                        run_rng.uniform(-0.3, 0.3)) for _ in range(3)]
    for b in (1, 2, 3):
        run = PlanarHamiltonian(bumps[:b])._for_run(pts, [FLOW_DT] * 100)
        if not run._inside_cutoff:
            raise AssertionError(f"the gradient.run.n256.b{b} copy is not certified")
        add(f"gradient.run.n256.b{b}", run.gradient, pts, np.empty(pts.shape))

    # one step: a run of k steps less a run of none, over k
    for n, k in STEP_SIZES:
        loop = samples.random_decorated_loop(rng, n=n)
        h = samples.random_hamiltonian(rng, samples.loop_bbox(loop.embedding))
        for scheme in ("rk4", "implicit-midpoint"):
            kernels[f"step.{scheme}.n{n}"] = (
                functools.partial(advect, loop, h, k * FLOW_DT, FLOW_DT, scheme),
                functools.partial(advect, loop, h, 0.0, FLOW_DT, scheme), k)
    # a generator of their own, so the inputs of the other kernels do not move
    advect_rng = np.random.default_rng(SEED)
    loop = samples.random_decorated_loop(advect_rng, n=256)
    bbox = samples.loop_bbox(loop.embedding)
    two = samples.random_hamiltonian(advect_rng, bbox).bumps
    # the first of those two bumps, and one more drawn after them
    third = samples.random_hamiltonian(advect_rng, bbox).bumps[0]
    hams = {1: PlanarHamiltonian(two[:1]), 2: PlanarHamiltonian(two),
            3: PlanarHamiltonian(two + (third,))}
    for b, h in hams.items():
        for scheme in ("rk4", "implicit-midpoint"):
            add(f"advect.{scheme}.n256.b{b}", advect, loop, h, 100 * FLOW_DT, FLOW_DT, scheme)

    loop = samples.random_decorated_loop(rng, n=256)
    h = samples.random_hamiltonian(rng, samples.loop_bbox(loop.embedding))
    snapshots = []
    evolved = advect(loop, h, 100 * FLOW_DT, FLOW_DT,
                     observer=lambda i, t, p: snapshots.append((i, t, p))).loop
    add("flow_csv.n256", vl.render.flow_csv, loop, h, snapshots)
    add("svg_overlay.n256", vl.render.svg_overlay, loop, evolved)
    add("spline_area.n256x101", loops._spline_area, np.stack([pts for _, _, pts in snapshots]))
    add("polyline_is_simple.n256", loops._polyline_is_simple, loop.embedding.samples)
    add("momentum_map_eval.n256", vl.symplectic.momentum_map_eval, loop.embedding, h,
        loop.decoration)
    # a generator of their own, so the inputs of the other kernels do not move
    simple_rng = np.random.default_rng(SEED)
    for n in SIMPLE_SIZES:
        add(f"polyline_is_simple.n{n}", loops._polyline_is_simple,
            samples.random_loop(simple_rng, n=n).samples)

    # a generator of their own, so the inputs of the other kernels do not move
    area_rng = np.random.default_rng(SEED)
    for n in AREA_SIZES:
        pts = samples.random_decorated_loop(area_rng, n=n).embedding.samples
        add(f"enclosed_area.n{n}", loops._spline_area, pts)
        add(f"loop_embedding.n{n}", loops.LoopEmbedding, pts)

    # a fresh form per call, so its sampling grid and scales are computed each time
    for degree in ZERO_DEGREES:
        a0, cos, sin = samples.random_morse_form(rng, degree).trig_coefficients
        add(f"find_zeros.deg{degree}", _fresh, cf.find_zeros, cf.CircleForm.trig, a0, cos, sin)
    density = samples.random_morse_form(rng, 10)
    for n in ZERO_SAMPLES:
        add(f"find_zeros.samples{n}", _fresh, cf.find_zeros, cf.CircleForm.from_samples,
            density(uniform_grid(n)))
    # a generator of their own, so the inputs of the other kernels do not move
    grid_rng = np.random.default_rng(SEED)
    for degree in ZERO_DEGREES:
        a0, cos, sin = samples.random_morse_form(grid_rng, degree).trig_coefficients
        add(f"sampling_grid.deg{degree}", _fresh, _sampling_grid, cf.CircleForm.trig, a0, cos, sin)
    density = samples.random_morse_form(grid_rng, 10)
    for n in ZERO_SAMPLES:
        add(f"sampling_grid.samples{n}", _fresh, _sampling_grid, cf.CircleForm.from_samples,
            density(uniform_grid(n)))

    path = os.path.join(folder, "loop.json")
    decoration = samples.random_morse_form(rng, 25)
    vio.dump(vio.loop_to_dict(loops.DecoratedLoop(loops.LoopEmbedding.circle(n=256), decoration)),
             path)
    add("cli_invariants.n256", _quiet, vl.cli.main, ["invariants", path])

    def invert_batch(form, rng, rising=False):
        """``_invert_batch`` and its arguments for ``INVERT_SIZE`` targets over
        every segment of ``form``, in random order within a segment or, if
        ``rising``, rising."""
        zs = cf.find_zeros(form)
        omegas = cf.partial_vorticities(form, zs).omegas
        ext = np.append(zs.zeros, zs.zeros[0] + 2.0 * np.pi)
        seg = np.sort(rng.integers(zs.k, size=INVERT_SIZE))
        u = rng.uniform(0.0, 1.0, INVERT_SIZE)
        if rising:
            u = np.sort(seg + u) - seg
        return (cf._invert_batch, form, zs.zeros, np.diff(ext), omegas, u * omegas[seg], seg)

    # a generator of their own, so these inputs do not depend on the draws above
    invert_rng = np.random.default_rng(SEED)
    form = samples.random_morse_form(invert_rng, INVERT_DEGREE)
    add(f"invert_batch.deg{INVERT_DEGREE}", *invert_batch(form, invert_rng))
    analytic = samples.random_monotone_diffeo(invert_rng)
    grid = uniform_grid(INVERT_SIZE)
    add(f"diffeo_inverse.n{INVERT_SIZE}",
        cf.CircleDiffeo(analytic(grid), analytic.derivative(grid)).inverse)
    # a generator of its own: sin(t - phi) (1 + q), q of degree 24 with
    # sum |coefficients| 0.8, has degree 25 and exactly 2 zeros
    k2_rng = np.random.default_rng(SEED)
    phi = k2_rng.uniform(0.0, np.pi)
    q = k2_rng.standard_normal((2, 24))
    q *= 0.8 / np.sum(np.abs(q))
    j = np.arange(1, 25)
    form = cf.CircleForm.from_function(
        lambda t: np.sin(t - phi) * (1.0 + np.cos(np.outer(t, j)) @ q[0]
                                     + np.sin(np.outer(t, j)) @ q[1]), degree=25)
    k2_batch = invert_batch(form, k2_rng, rising=True)
    add("invert_batch.deg25.k2", *k2_batch)
    # the starts of that batch: the arguments of its one ``_inverse_hermite`` call
    starts, inverse_hermite = [], cf._inverse_hermite

    def kept(*cells):
        starts.append(cells)
        return inverse_hermite(*cells)

    cf._inverse_hermite = kept
    try:
        k2_batch[0](*k2_batch[1:])
    finally:
        cf._inverse_hermite = inverse_hermite
    add("inverse_hermite.deg25.k2", inverse_hermite, *starts[0])
    # a generator of its own: a Morse density onto its pullback, 4096 map samples
    residual_rng = np.random.default_rng(SEED)
    model = samples.random_morse_form(residual_rng)
    gamma = samples.random_monotone_diffeo(residual_rng)
    target = samples.pullback_through(gamma, model)
    model_loop = loops.DecoratedLoop(loops.LoopEmbedding.circle(), model)
    target_loop = loops.DecoratedLoop(loops.LoopEmbedding.circle(), target)
    psi = loops.intertwiner(model_loop, target_loop,
                            cf.circular_match(model_loop.profile, target_loop.profile)[0],
                            grid_size=INVERT_SIZE)
    add(f"intertwining_residual.n{INVERT_SIZE}", loops._intertwining_residual, model, target, psi)

    # a generator of their own, so these inputs do not depend on the draws above
    sum_rng = np.random.default_rng(SEED)
    for degree in ZERO_DEGREES:
        coeffs = samples.random_morse_form(sum_rng, degree)._coeffs
        for m in POWER_SUM_POINTS:
            add(f"power_sum.deg{degree}.m{m}", cf._power_sum, coeffs,
                sum_rng.uniform(0.0, 2.0 * np.pi, m))
    psi = samples.random_monotone_diffeo(sum_rng)
    add(f"dumps.samples{INVERT_SIZE}", vio.dumps,
        {"schema": vio.SCHEMA, "shift": 1, "residual": 1e-12,
         "samples": psi(uniform_grid(INVERT_SIZE)).tolist()})
    add("dumps.loop256", vio.dumps, vio.loop_to_dict(samples.random_decorated_loop(sum_rng, n=256)))

    # a generator of their own, so these inputs do not depend on the draws above
    load_rng = np.random.default_rng(SEED)

    def decoded(doc):
        return json.loads(json.dumps(doc))

    for n in LOAD_SIZES:
        add(f"float_list.pairs{n}", vio._float_list,
            decoded(samples.random_loop(load_rng, n=n).samples.tolist()), "loop.samples",
            pairs=True)
    for n, form in ((256, "deg25"), (2048, "deg25"), (2048, "samples")):
        decoration = samples.random_morse_form(load_rng, 25 if form == "deg25" else 10)
        if form == "samples":
            decoration = cf.CircleForm.from_samples(decoration(uniform_grid(n)))
        loop = loops.DecoratedLoop(samples.random_loop(load_rng, n=n), decoration)
        add(f"load_loop.n{n}.{form}", vio.loop_from_dict, decoded(vio.loop_to_dict(loop)))

    # generators of their own, so these inputs do not depend on the draws above
    step_rng, match_rng = np.random.default_rng(SEED), np.random.default_rng(SEED)
    for k in PROFILE_SIZES:
        omegas = step_rng.uniform(0.5, 2.0, k) * (-1.0) ** np.arange(k)
        add(f"symmetry_step.k{k}", cf.symmetry_step,
            cf.VorticityProfile(omegas, float(np.sum(omegas))))
        p = match_rng.uniform(0.5, 2.0, k) * (-1.0) ** np.arange(k)
        add(f"circular_match.k{k}", cf.circular_match, p, np.roll(p, int(match_rng.integers(k))))

    # a generator of their own, so these inputs do not depend on the draws above
    image_rng = np.random.default_rng(SEED)
    loop = samples.random_loop(image_rng, n=256)
    for k in ZERO_IMAGE_SIZES:
        add(f"zero_images.k{k}", loops._check_zero_images, loop,
            cf.ZeroSet(np.sort(image_rng.uniform(0.0, 2.0 * np.pi, k)), np.ones(k)))
    return kernels


def _load_tree(root):
    """The modules of ``vortexloop`` imported from ``root/src`` under a
    module set of their own, as a namespace: the modules keep their package
    alive, and ``sys.modules`` is left without it, so the next tree imports
    afresh.  The package imports nothing of its own inside a function."""
    def own():
        return [name for name in sys.modules if name.split(".")[0] == "vortexloop"]

    for name in own():
        del sys.modules[name]
    sys.path.insert(0, os.path.join(root, "src"))
    try:
        return types.SimpleNamespace(**{
            name: importlib.import_module(f"vortexloop.{name}")
            for name in ("circle_forms", "cli", "flow", "io", "loops", "quadrature", "render",
                         "samples", "symplectic")})
    finally:
        sys.path.pop(0)
        for name in own():
            del sys.modules[name]


def _timed(fn, number):
    t0 = time.perf_counter()
    for _ in range(number):
        fn()
    return time.perf_counter() - t0


def one_process(trees, batches=BATCHES):
    """Every kernel of the trees {side: root}, timed in this process in
    ``batches`` batches: {name: {side: [seconds]}}.

    Each tree builds its kernels from the same draws.  A kernel's batches run
    one after another, and each times the kernel in every tree, in an order of
    the trees that alternates from batch to batch, calling it as often as the
    first tree's first call says fills ``BATCH_S``: the trees of a batch pair
    meet the same state of the machine."""
    sides = list(trees)
    times = {}
    with contextlib.ExitStack() as stack:
        kernels = {side: _kernels(_load_tree(root),
                                  stack.enter_context(tempfile.TemporaryDirectory()))
                   for side, root in trees.items()}
        for name in kernels[sides[0]]:
            for side in sides:  # warm
                for fn in kernels[side][name][:2]:
                    if fn:
                        fn()
            number = max(1, int(BATCH_S / _timed(kernels[sides[0]][name][0], 1)))
            times[name] = {side: [] for side in sides}
            for b in range(batches):
                for side in (sides if b % 2 == 0 else sides[::-1]):
                    run, still, steps = kernels[side][name]
                    spent = _timed(run, number) - (_timed(still, number) if still else 0.0)
                    times[name][side].append(spent / (number * steps))
    return times


def _child_env():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _one_process_in_child(trees):
    cmd = [sys.executable, os.path.abspath(__file__), "--one-process", trees["parent"],
           trees["change"]]
    done = subprocess.run(cmd, env={**_child_env(), **MALLOC_ENV}, capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _traced_layers(root, workload):
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", "1"]
    done = subprocess.run(cmd, cwd=root, env=_child_env(), capture_output=True, text=True,
                          check=True)
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    return {key: metrics[key]["value"] for key in TRACE_KEYS[workload]}


def _summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def _machine():
    import numpy as np

    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform(), "cpu": model, "cpus": os.cpu_count()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", help="root of the parent checkout")
    p.add_argument("--change", default=os.getcwd(), help="root of the changed checkout")
    p.add_argument("--out", help="JSON file to write")
    p.add_argument("--measure", help=argparse.SUPPRESS)
    p.add_argument("--one-process", nargs=2, metavar=("PARENT", "CHANGE"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.measure:
        times = one_process({"tree": args.measure}, batches=3)
        print(json.dumps({name: min(runs["tree"]) for name, runs in times.items()}))
        return 0
    if args.one_process:
        print(json.dumps(one_process(dict(zip(("parent", "change"), args.one_process)))))
        return 0
    if not (args.parent and args.out):
        p.error("--parent and --out are required")

    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    kernels, moved = {}, {}
    for name, times in _one_process_in_child(trees).items():
        both = {side: _summary(times[side]) for side in trees}
        both["unit"] = "s"
        pairs = list(zip(times["change"], times["parent"]))
        both["pair_ratio"] = _summary([c / p for c, p in pairs])
        both["change_over_parent"] = both["pair_ratio"]["median"]
        kernels[name] = both
        # moved: at least 19 of the 21 pairs favour one tree, and the medians
        # differ by more than the parent's interquartile range
        favoured = max(sum(c < p for c, p in pairs), sum(c > p for c, p in pairs))
        shift = abs(both["change"]["median"] - both["parent"]["median"])
        if favoured >= BATCHES - 2 and shift > both["parent"]["iqr"]:
            moved[name] = both["change_over_parent"]
    traced = {workload: {side: [] for side in trees} for workload in TRACE_KEYS}
    for r in range(TRACE_RUNS):
        for side in (("parent", "change") if r % 2 == 0 else ("change", "parent")):
            for workload, runs_of in traced.items():
                runs_of[side].append(_traced_layers(trees[side], workload))
    record = {
        "machine": _machine(),
        "kernel_env": MALLOC_ENV,
        "batches": BATCHES,
        "kernels": kernels,
        "moved": moved,
        **{f"trace_{workload}_seed1": {
            key: {side: statistics.median(run[key] for run in runs_of[side]) for side in trees}
            for key in TRACE_KEYS[workload]} for workload, runs_of in traced.items()},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

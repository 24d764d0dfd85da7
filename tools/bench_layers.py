"""Per-layer timings of the flow, invariants and inversion paths in two trees, as one JSON record.

    python3 tools/bench_layers.py --parent PARENT_ROOT --out BENCH_<n>.json

``PARENT_ROOT`` and ``--change`` (default: the current directory) are roots of
source checkouts.  Each of ``ROUNDS`` rounds measures both trees, alternating
which goes first, each in a fresh process that imports ``vortexloop`` from that
tree's ``src`` and from nowhere else.  A round times, single threaded:

- ``PlanarHamiltonian.gradient`` per call at n in {256, 512, 4096} points and
  B in {1, 2, 3} bumps;
- ``PlanarHamiltonian.gradient`` and ``__call__`` per call at n = 256 and
  B = 2 on points within 5 sigma of both bumps, in the 5-6 sigma band of one,
  beyond 6 sigma of both, and a third of each (``BUMP_REGIONS``);
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
- ``CircleDiffeo.inverse`` per call on a 4096-node map with exact nodal slopes,
  the size of the intertwiner's grid;
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

The ``step.*`` and ``advect.*`` kernels are timed once more, in one process
that imports both trees under module sets of their own, in ``BATCHES``
batches that alternate which tree goes first; their records come from there,
with the quartiles of the batch pairs' change-over-parent ratio, since
separate processes shift whole kernels by tens of percent.

The record holds machine details, the median and quartiles over the rounds of
each kernel in both trees, and the layer metrics ``TRACE_KEYS`` of
``benchmark/run.py --workload W --seed 1 --seconds 1 --trace 1`` for each
workload W, run ``TRACE_RUNS`` times in each tree, alternating: the counters
repeat exactly, the times are medians.
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

SEED = 12
FLOW_DT = 1e-3
# (n, steps per timed run) of the step kernels
STEP_SIZES = ((256, 50), (4096, 10))
ROUNDS = 7
# alternated batches of the flow kernels in one process, and the least seconds of one
BATCHES = 21
BATCH_S = 0.05
TRACE_RUNS = 3
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


def _per_call(fn, min_s=0.05):
    """Seconds per call: the best of three batches of at least ``min_s`` each."""
    fn()
    number = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        elapsed = time.perf_counter() - t0
        if elapsed >= min_s:
            break
        number *= 4
    best = elapsed
    for _ in range(2):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, time.perf_counter() - t0)
    return best / number


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


def _gradient_cases(rng, samples, PlanarBump, PlanarHamiltonian):
    """(name, h, points) of the ``gradient.n*.b*`` kernels, drawn from ``rng``."""
    cases = []
    for n in (256, 512, 4096):
        loop = samples.random_decorated_loop(rng, n=n)
        pts = loop.embedding.samples
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        for b in (1, 2, 3):
            h = PlanarHamiltonian([PlanarBump(tuple(rng.uniform(lo, hi)), rng.uniform(0.6, 1.2),
                                              rng.uniform(0.1, 0.3)) for _ in range(b)])
            cases.append((f"gradient.n{n}.b{b}", h, pts))
    return cases


def _flow_kernels(rng, samples, PlanarHamiltonian, advect):
    """The ``step.*`` and ``advect.*`` kernels of one tree as {name: (run,
    still, steps)}: the seconds of ``run``, less those of ``still`` when it is
    given, over ``steps``, are the kernel's.  The step inputs are drawn from
    ``rng``, the whole runs' from generators of their own."""
    import numpy as np

    kernels = {}
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
            kernels[f"advect.{scheme}.n256.b{b}"] = (
                functools.partial(advect, loop, h, 100 * FLOW_DT, FLOW_DT, scheme), None, 1)
    return kernels


def measure(root):
    """Time every kernel once with the package under ``root/src``; return {name: seconds}."""
    sys.path.insert(0, os.path.join(root, "src"))
    import numpy as np

    from vortexloop import cli, render, samples
    from vortexloop import io as vio
    from vortexloop.circle_forms import (CircleDiffeo, CircleForm, VorticityProfile, ZeroSet,
                                         _invert_batch, _power_sum, circular_match, find_zeros,
                                         partial_vorticities, symmetry_step)
    from vortexloop.flow import PlanarBump, PlanarHamiltonian, advect
    from vortexloop.loops import (DecoratedLoop, LoopEmbedding, _check_zero_images,
                                  _polyline_is_simple, _spline_area)
    from vortexloop.quadrature import uniform_grid
    from vortexloop.symplectic import momentum_map_eval

    out = {}
    rng = np.random.default_rng(SEED)
    for name, h, pts in _gradient_cases(rng, samples, PlanarBump, PlanarHamiltonian):
        out[name] = _per_call(lambda: h.gradient(pts))
    # a generator of their own, so the inputs of the other kernels do not move
    region_rng = np.random.default_rng(SEED)
    h = PlanarHamiltonian([PlanarBump(*bump) for bump in REGION_BUMPS])
    for region in BUMP_REGIONS:
        pts = _bump_region_points(region_rng, region, 256)
        out[f"gradient.{region}.n256.b2"] = _per_call(lambda: h.gradient(pts))
        out[f"value.{region}.n256.b2"] = _per_call(lambda: h(pts))

    for name, (run, still, steps) in _flow_kernels(rng, samples, PlanarHamiltonian,
                                                   advect).items():
        # a step is short next to its run's set-up, so a step kernel takes the
        # best of three single runs, less the best of three runs of no step
        min_s = 0.0 if still else 0.05
        out[name] = (_per_call(run, min_s) - (_per_call(still, min_s) if still else 0.0)) / steps

    loop = samples.random_decorated_loop(rng, n=256)
    h = samples.random_hamiltonian(rng, samples.loop_bbox(loop.embedding))
    snapshots = []
    evolved = advect(loop, h, 100 * FLOW_DT, FLOW_DT,
                     observer=lambda i, t, p: snapshots.append((i, t, p))).loop
    out["flow_csv.n256"] = _per_call(lambda: render.flow_csv(loop, h, snapshots))
    out["svg_overlay.n256"] = _per_call(lambda: render.svg_overlay(loop, evolved))
    stack = np.stack([pts for _, _, pts in snapshots])
    out["spline_area.n256x101"] = _per_call(lambda: _spline_area(stack))
    pts = loop.embedding.samples
    out["polyline_is_simple.n256"] = _per_call(lambda: _polyline_is_simple(pts))
    out["momentum_map_eval.n256"] = _per_call(
        lambda: momentum_map_eval(loop.embedding, h, loop.decoration))
    # a generator of their own, so the inputs of the other kernels do not move
    simple_rng = np.random.default_rng(SEED)
    for n in SIMPLE_SIZES:
        pts = samples.random_loop(simple_rng, n=n).samples
        out[f"polyline_is_simple.n{n}"] = _per_call(lambda: _polyline_is_simple(pts))

    # a generator of their own, so the inputs of the other kernels do not move
    area_rng = np.random.default_rng(SEED)
    for n in AREA_SIZES:
        pts = samples.random_decorated_loop(area_rng, n=n).embedding.samples
        out[f"enclosed_area.n{n}"] = _per_call(lambda: _spline_area(pts))
        out[f"loop_embedding.n{n}"] = _per_call(lambda: LoopEmbedding(pts))

    # a fresh form per call, so its sampling grid and scales are computed each time
    for degree in ZERO_DEGREES:
        a0, cos, sin = samples.random_morse_form(rng, degree).trig_coefficients
        out[f"find_zeros.deg{degree}"] = _per_call(
            lambda: find_zeros(CircleForm.trig(a0, cos, sin)))
    density = samples.random_morse_form(rng, 10)
    for n in ZERO_SAMPLES:
        values = density(uniform_grid(n))
        out[f"find_zeros.samples{n}"] = _per_call(
            lambda: find_zeros(CircleForm.from_samples(values)))

    def sampling_grid(form):
        return form.max_abs(), form.max_abs_derivative()

    # a generator of their own, so the inputs of the other kernels do not move
    grid_rng = np.random.default_rng(SEED)
    for degree in ZERO_DEGREES:
        a0, cos, sin = samples.random_morse_form(grid_rng, degree).trig_coefficients
        out[f"sampling_grid.deg{degree}"] = _per_call(
            lambda: sampling_grid(CircleForm.trig(a0, cos, sin)))
    density = samples.random_morse_form(grid_rng, 10)
    for n in ZERO_SAMPLES:
        values = density(uniform_grid(n))
        out[f"sampling_grid.samples{n}"] = _per_call(
            lambda: sampling_grid(CircleForm.from_samples(values)))

    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "loop.json")
        decoration = samples.random_morse_form(rng, 25)
        vio.dump(vio.loop_to_dict(DecoratedLoop(LoopEmbedding.circle(n=256), decoration)), path)

        def invariants():
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["invariants", path])

        out["cli_invariants.n256"] = _per_call(invariants)

    def invert_batch(form, rng, rising=False):
        """``_invert_batch`` on ``INVERT_SIZE`` targets over every segment of
        ``form``, in random order within a segment or, if ``rising``, rising."""
        zs = find_zeros(form)
        omegas = partial_vorticities(form, zs).omegas
        ext = np.append(zs.zeros, zs.zeros[0] + 2.0 * np.pi)
        seg = np.sort(rng.integers(zs.k, size=INVERT_SIZE))
        u = rng.uniform(0.0, 1.0, INVERT_SIZE)
        if rising:
            u = np.sort(seg + u) - seg
        s = u * omegas[seg]
        return lambda: _invert_batch(form, zs.zeros, np.diff(ext), omegas, s, seg)

    # a generator of their own, so these inputs do not depend on the draws above
    invert_rng = np.random.default_rng(SEED)
    form = samples.random_morse_form(invert_rng, INVERT_DEGREE)
    out[f"invert_batch.deg{INVERT_DEGREE}"] = _per_call(invert_batch(form, invert_rng))
    analytic = samples.random_monotone_diffeo(invert_rng)
    grid = uniform_grid(INVERT_SIZE)
    gamma = CircleDiffeo(analytic(grid), analytic.derivative(grid))
    out[f"diffeo_inverse.n{INVERT_SIZE}"] = _per_call(gamma.inverse)
    # a generator of its own: sin(t - phi) (1 + q), q of degree 24 with
    # sum |coefficients| 0.8, has degree 25 and exactly 2 zeros
    k2_rng = np.random.default_rng(SEED)
    phi = k2_rng.uniform(0.0, np.pi)
    q = k2_rng.standard_normal((2, 24))
    q *= 0.8 / np.sum(np.abs(q))
    j = np.arange(1, 25)
    form = CircleForm.from_function(
        lambda t: np.sin(t - phi) * (1.0 + np.cos(np.outer(t, j)) @ q[0]
                                     + np.sin(np.outer(t, j)) @ q[1]), degree=25)
    out["invert_batch.deg25.k2"] = _per_call(invert_batch(form, k2_rng, rising=True))

    # a generator of their own, so these inputs do not depend on the draws above
    sum_rng = np.random.default_rng(SEED)
    for degree in ZERO_DEGREES:
        coeffs = samples.random_morse_form(sum_rng, degree)._coeffs
        for m in POWER_SUM_POINTS:
            t = sum_rng.uniform(0.0, 2.0 * np.pi, m)
            out[f"power_sum.deg{degree}.m{m}"] = _per_call(lambda: _power_sum(coeffs, t))
    psi = samples.random_monotone_diffeo(sum_rng)
    doc = {"schema": vio.SCHEMA, "shift": 1, "residual": 1e-12,
           "samples": psi(uniform_grid(INVERT_SIZE)).tolist()}
    out[f"dumps.samples{INVERT_SIZE}"] = _per_call(lambda: vio.dumps(doc))
    loop_doc = vio.loop_to_dict(samples.random_decorated_loop(sum_rng, n=256))
    out["dumps.loop256"] = _per_call(lambda: vio.dumps(loop_doc))

    # a generator of their own, so these inputs do not depend on the draws above
    load_rng = np.random.default_rng(SEED)

    def decoded(doc):
        return json.loads(json.dumps(doc))

    for n in LOAD_SIZES:
        pairs = decoded(samples.random_loop(load_rng, n=n).samples.tolist())
        out[f"float_list.pairs{n}"] = _per_call(
            lambda: vio._float_list(pairs, "loop.samples", pairs=True))
    for n, form in ((256, "deg25"), (2048, "deg25"), (2048, "samples")):
        decoration = samples.random_morse_form(load_rng, 25 if form == "deg25" else 10)
        if form == "samples":
            decoration = CircleForm.from_samples(decoration(uniform_grid(n)))
        loop = DecoratedLoop(samples.random_loop(load_rng, n=n), decoration)
        doc = decoded(vio.loop_to_dict(loop))
        out[f"load_loop.n{n}.{form}"] = _per_call(lambda: vio.loop_from_dict(doc))

    # generators of their own, so these inputs do not depend on the draws above
    step_rng, match_rng = np.random.default_rng(SEED), np.random.default_rng(SEED)
    for k in PROFILE_SIZES:
        omegas = step_rng.uniform(0.5, 2.0, k) * (-1.0) ** np.arange(k)
        profile = VorticityProfile(omegas, float(np.sum(omegas)))
        out[f"symmetry_step.k{k}"] = _per_call(lambda: symmetry_step(profile))
        p = match_rng.uniform(0.5, 2.0, k) * (-1.0) ** np.arange(k)
        q = np.roll(p, int(match_rng.integers(k)))
        out[f"circular_match.k{k}"] = _per_call(lambda: circular_match(p, q))

    # a generator of their own, so these inputs do not depend on the draws above
    image_rng = np.random.default_rng(SEED)
    loop = samples.random_loop(image_rng, n=256)
    for k in ZERO_IMAGE_SIZES:
        zs = ZeroSet(np.sort(image_rng.uniform(0.0, 2.0 * np.pi, k)), np.ones(k))
        out[f"zero_images.k{k}"] = _per_call(lambda: _check_zero_images(loop, zs))
    return out


def _load_tree(root):
    """``vortexloop.flow`` and ``vortexloop.samples`` imported from ``root/src``
    under a module set of their own: the returned modules keep their package
    alive, and ``sys.modules`` is left without it, so the next tree imports
    afresh.  The package imports nothing of its own inside a function."""
    def own():
        return [name for name in sys.modules if name.split(".")[0] == "vortexloop"]

    for name in own():
        del sys.modules[name]
    sys.path.insert(0, os.path.join(root, "src"))
    try:
        return (importlib.import_module("vortexloop.flow"),
                importlib.import_module("vortexloop.samples"))
    finally:
        sys.path.pop(0)
        for name in own():
            del sys.modules[name]


def one_process(trees):
    """The ``step.*`` and ``advect.*`` kernels of both trees, timed in this
    process in ``BATCHES`` alternated batches: {name: {side: [seconds]}}.

    Each tree builds its kernels from the same draws.  A batch times one
    kernel in both trees, in an order that alternates from batch to batch, and
    calls it as often as the parent's first call says fills ``BATCH_S``."""
    import numpy as np

    kernels = {}
    for side, root in trees.items():
        flow, samples = _load_tree(root)
        rng = np.random.default_rng(SEED)
        # the draws ``measure`` makes before the flow kernels
        _gradient_cases(rng, samples, flow.PlanarBump, flow.PlanarHamiltonian)
        kernels[side] = _flow_kernels(rng, samples, flow.PlanarHamiltonian, flow.advect)

    def timed(fn, number):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        return time.perf_counter() - t0

    def batch(kernel, number):
        run, still, steps = kernel
        return (timed(run, number) - (timed(still, number) if still else 0.0)) / (number * steps)

    times = {name: {side: [] for side in trees} for name in kernels["parent"]}
    numbers = {}
    for name, kernel in kernels["parent"].items():
        for side in trees:
            kernels[side][name][0]()  # warm
        t0 = time.perf_counter()
        kernel[0]()
        numbers[name] = max(1, int(BATCH_S / (time.perf_counter() - t0)))
    for b in range(BATCHES):
        for name in times:
            for side in (("parent", "change") if b % 2 == 0 else ("change", "parent")):
                times[name][side].append(batch(kernels[side][name], numbers[name]))
    return times


def _child_env():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _measure_in_child(root):
    cmd = [sys.executable, os.path.abspath(__file__), "--measure", root]
    done = subprocess.run(cmd, env=_child_env(), capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _one_process_in_child(trees):
    cmd = [sys.executable, os.path.abspath(__file__), "--one-process", trees["parent"],
           trees["change"]]
    done = subprocess.run(cmd, env=_child_env(), capture_output=True, text=True, check=True)
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
        print(json.dumps(measure(args.measure)))
        return 0
    if args.one_process:
        print(json.dumps(one_process(dict(zip(("parent", "change"), args.one_process)))))
        return 0
    if not (args.parent and args.out):
        p.error("--parent and --out are required")

    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    runs = {side: [] for side in trees}
    for r in range(ROUNDS):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(_measure_in_child(trees[side]))
    kernels = {}
    for name in runs["parent"][0]:
        both = {side: _summary([run[name] for run in runs[side]]) for side in trees}
        both["unit"] = "s"
        both["change_over_parent"] = both["change"]["median"] / both["parent"]["median"]
        kernels[name] = both
    # the flow kernels from both trees in one process, in place of the
    # processes' records, which shift whole kernels between processes
    for name, times in _one_process_in_child(trees).items():
        both = {side: _summary(times[side]) for side in trees}
        both["unit"] = "s"
        both["method"] = f"one process, {BATCHES} alternated batches"
        both["pair_ratio"] = _summary([c / p for c, p in zip(times["change"], times["parent"])])
        both["change_over_parent"] = both["pair_ratio"]["median"]
        kernels[name] = both
    # a kernel moved when every quartile of the change clears the parent's
    moved = sorted(name for name, k in kernels.items()
                   if k["change"]["q3"] < k["parent"]["q1"] or k["change"]["q1"] > k["parent"]["q3"])
    traced = {workload: {side: [] for side in trees} for workload in TRACE_KEYS}
    for r in range(TRACE_RUNS):
        for side in (("parent", "change") if r % 2 == 0 else ("change", "parent")):
            for workload, runs_of in traced.items():
                runs_of[side].append(_traced_layers(trees[side], workload))
    record = {
        "machine": _machine(),
        "rounds": ROUNDS,
        "kernels": kernels,
        "moved": {name: kernels[name]["change_over_parent"] for name in moved},
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

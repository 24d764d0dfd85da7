"""The three benchmark workloads: inputs, op schedule and per-op checks.

Each op is one ``vortexloop.cli.main(argv)`` call on fixture files written at
set-up.  Every op knows its expected outcome from the construction in
``inputs.py`` and its ``check`` returns ``None`` when the output is right, or a
one-line reason when it is not.

Ops run in whole cycles of ``pattern``, so every kind keeps its exact share of
a run.  Cycle ``c`` takes its inputs from pool entry ``c + offset``, and the
pattern itself starts at ``rotation``; both come from the seed.
"""

from __future__ import annotations

import json
import os

import numpy as np

import inputs as gen

FLOW_T = "0.1"
FLOW_DT = "1e-3"
FLOW_STEPS = 100


class Op:
    """One CLI call: argv, the input it reads, and the check of its result."""

    def __init__(self, kind, input_id, argv, check):
        self.kind = kind
        self.input_id = input_id
        self.argv = argv
        self.check = check


class Workload:
    def __init__(self, pattern, pool, warmups):
        self.pattern = pattern  # pool keys, in the order one cycle runs them
        self.pool = pool        # pool[j] maps key -> Op for cycle input j
        self.warmups = warmups  # one Op per command variant, outside the pool

    def cycle(self, c, rotation, offset):
        entry = self.pool[(c + offset) % len(self.pool)]
        p = len(self.pattern)
        return [entry[self.pattern[(i + rotation) % p]] for i in range(p)]


def _write(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _json(stdout):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def _cyclic_dev(got, want):
    got = np.asarray(got, dtype=float)
    if got.size != want.size:
        return np.inf
    return min(float(np.max(np.abs(got - np.roll(want, s)))) for s in range(want.size))


def _match_shifts(p, q, rel_tol=1e-9):
    k = p.size
    tol = rel_tol * float(np.max(np.abs(p)))
    return [j for j in range(k) if np.max(np.abs(p - np.roll(q, -j))) <= tol]


# -- invariants / equiv ----------------------------------------------------

DENSITY_KINDS = ("deg3", "deg25", "deg100", "samples")


def _random_density(rng, kind):
    """Morse density of the given kind; deg25 and deg100 are sometimes folded."""
    if kind in ("deg3", "samples"):
        return gen.morse_density(rng, 3, 2 * int(rng.integers(1, 4)))
    degree = 25 if kind == "deg25" else 100
    fold = int(rng.choice([1, 5]))
    k = 2 * int(rng.integers(1, min(6, degree // fold) + 1))
    return gen.morse_density(rng, degree, k, fold)


def _beta_doc(density, kind, n):
    return density.samples_doc(n) if kind == "samples" else density.trig_doc()


def _check_invariants(loop, density, kind):
    # sampled densities are spline interpolants, so their profile matches the
    # exact one only to the spline's accuracy
    om_tol = (1e-5 if kind == "samples" else 1e-9) * float(np.max(np.abs(density.omegas)))

    def check(code, out):
        doc = _json(out)
        if code != 0 or doc is None:
            return f"exit {code}, expected 0"
        if doc["k"] != density.k:
            return f"k={doc['k']}, expected {density.k}"
        if doc["ell"] != density.ell:
            return f"ell={doc['ell']}, expected {density.ell}"
        if abs(doc["area"] - loop.area) > 1e-6 * loop.area:
            return f"area {doc['area']!r}, expected {loop.area!r}"
        if _cyclic_dev(doc["omegas"], density.omegas) > om_tol:
            return "partial vorticities differ from the construction"
        return None

    return check


def _check_equiv(equivalent, shifts, area_delta, area):
    def check(code, out):
        doc = _json(out)
        want_code = 0 if equivalent else 1
        if code != want_code or doc is None:
            return f"exit {code}, expected {want_code}"
        if doc["equivalent"] is not equivalent:
            return f"verdict {doc['equivalent']}, expected {equivalent}"
        if sorted(doc["shifts"]) != shifts:
            return f"shifts {doc['shifts']}, expected {shifts}"
        if abs(doc["area_delta"] - area_delta) > 1e-6 * area:
            return f"area_delta {doc['area_delta']!r}, expected {area_delta!r}"
        return None

    return check


# One cycle: half ``invariants``, half ``equiv``, and n = 256, 1024, 2048 in
# equal shares.  The command split differs per size on purpose: with every
# (command, n) pair at 1/6, the three cheapest pairs would make up exactly half
# of a run, and the median would sit in the gap between two clusters of
# latencies instead of inside one.
INVARIANT_SLOTS = (
    ("invariants", 256), ("equiv", 256), ("equiv", 256), ("equiv", 256),
    ("invariants", 1024), ("invariants", 1024), ("invariants", 1024), ("equiv", 1024),
    ("invariants", 2048), ("invariants", 2048), ("equiv", 2048), ("equiv", 2048),
)
EQUIV_VARIANTS = ("shifted", "shifted", "scaled-curve", "scaled-density")


def build_invariants(rng, root, pool_size):
    """``invariants`` and ``equiv`` on loops of 256, 1024 and 2048 samples."""
    pattern = list(range(len(INVARIANT_SLOTS)))
    pool = []
    for j in range(pool_size + 1):
        entry = {}
        for s, (cmd, n) in enumerate(INVARIANT_SLOTS):
            dkind = DENSITY_KINDS[(j + s) % len(DENSITY_KINDS)]
            density = _random_density(rng, dkind)
            loop = gen.StarLoop.random(rng)
            tag = f"{j}-{s}-{cmd}-{n}-{dkind}"
            first = _write(os.path.join(root, f"{tag}-a.json"),
                           gen.loop_doc(loop.samples(n), _beta_doc(density, dkind, n)))
            if cmd == "invariants":
                entry[s] = Op((cmd, n), tag, ["invariants", first],
                              _check_invariants(loop, density, dkind))
                continue
            variant = EQUIV_VARIANTS[(j + 2 * s) % len(EQUIV_VARIANTS)]
            shift = int(rng.integers(n))
            other_loop, other_density = loop, density.rotated(gen.TWO_PI * shift / n)
            factor = float(rng.uniform(1.05, 1.5))
            if variant == "scaled-curve":
                other_loop = loop.scaled(factor)
            elif variant == "scaled-density":
                other_density = other_density.scaled(factor)
            pts = np.roll(other_loop.samples(n), -shift, axis=0)
            second = _write(os.path.join(root, f"{tag}-b.json"),
                            gen.loop_doc(pts, _beta_doc(other_density, dkind, n)))
            shifts = _match_shifts(density.omegas, other_density.omegas)
            entry[s] = Op((cmd, n), f"{tag}-{variant}", ["equiv", first, second],
                          _check_equiv(variant == "shifted", shifts,
                                       other_loop.area - loop.area, loop.area))
        pool.append(entry)
    warm = pool.pop()
    return Workload(pattern, pool, [warm[0], warm[1]])


# -- intertwine --------------------------------------------------------------


def _check_intertwine(shift, k, inverse_on_grid, omega_scale):
    def check(code, out):
        doc = _json(out)
        if code != 0 or doc is None:
            return f"exit {code}, expected 0"
        if doc["shift"] != shift % k:
            return f"shift {doc['shift']}, expected {shift % k}"
        if not doc["residual"] <= 1e-8 * omega_scale:
            return f"pushforward residual {doc['residual']!r} above 1e-8 of {omega_scale!r}"
        got = np.asarray(doc["samples"], dtype=float)
        if got.size != inverse_on_grid.size:
            return f"{got.size} map samples, expected {inverse_on_grid.size}"
        gap = float(np.max(gen.circ_gap(got, inverse_on_grid)))
        if not gap <= 1e-8:
            return f"map samples {gap:.3e} from the analytic inverse"
        return None

    return check


def _check_exit(want):
    def check(code, out):
        return None if code == want else f"exit {code}, expected {want}"

    return check


def build_intertwine(rng, root, pool_size):
    """Nine ops in ten at the right shift, one at an odd (never matching) shift."""
    pattern = ["match"] * 9 + ["wrong-shift"]
    circle = gen.circle_samples(256)
    pool = []
    for j in range(pool_size + 1):
        degree = int(rng.integers(1, 4))
        model = gen.morse_density(rng, degree, 2 * int(rng.integers(1, degree + 1)))
        gmap = gen.CircleMap(rng)
        model_path = _write(os.path.join(root, f"{j}-model.json"),
                            gen.loop_doc(circle, model.trig_doc()))
        target_path = _write(os.path.join(root, f"{j}-target.json"),
                             gen.loop_doc(circle, gen.pullback(model, gmap)))
        # the target's zeros are the model's pulled back through g
        target_zeros = np.sort(np.mod(gmap.inverse(model.zeros), gen.TWO_PI))
        shift = int(np.argmin(gen.circ_gap(target_zeros, gmap.inverse(model.zeros[0]))))
        m = 4 * 1024  # intertwiner grid: 4 * max(loop size, trig node count)
        inverse = gmap.inverse(np.arange(m) * (gen.TWO_PI / m))
        scale = float(np.max(np.abs(model.omegas)))
        argv = ["intertwine", model_path, target_path, "--shift"]
        pool.append({
            "match": Op("match", str(j), argv + [str(shift)],
                        _check_intertwine(shift, model.k, inverse, scale)),
            "wrong-shift": Op("wrong-shift", str(j), argv + [str(shift + 1)], _check_exit(4)),
        })
    warm = pool.pop()
    return Workload(pattern, pool, [warm["match"], warm["wrong-shift"]])


# -- flow --------------------------------------------------------------------


def _check_flow(n, beta_doc, outputs=None):
    def check(code, out):
        doc = _json(out)
        if code != 0 or doc is None:
            return f"exit {code}, expected 0"
        if doc["steps"] != FLOW_STEPS:
            return f"{doc['steps']} steps, expected {FLOW_STEPS}"
        if doc["profile_drift"] != 0.0:
            return f"profile_drift {doc['profile_drift']!r}, expected 0.0"
        for key in ("area_drift", "hamiltonian_drift"):
            if not doc[key] < 1e-8:
                return f"{key} {doc[key]!r} not below 1e-8"
        if outputs is None:
            return None
        # each output is removed once read, so a later op on the same input
        # cannot pass on files an earlier one wrote
        texts = []
        for path in outputs:
            try:
                with open(path, encoding="utf-8") as fh:
                    texts.append(fh.read())
            except OSError:
                return f"output {os.path.basename(path)} was not written"
            os.remove(path)
        evolved = _json(texts[0])
        if evolved is None or len(evolved["samples"]) != n or evolved["beta"] != beta_doc:
            return "evolved loop file does not carry the input's size and density"
        rows = texts[1].splitlines()
        if len(rows) != FLOW_STEPS + 2 or not rows[0].startswith("step,t,area,momentum,omega_1"):
            return f"csv has {len(rows)} lines, expected a header and {FLOW_STEPS + 1} rows"
        if not texts[2].startswith("<svg") or texts[2].count("<polyline") != 2:
            return "svg overlay lacks its two curves"
        return None

    return check


# One cycle: (slot, kind, extra arguments).  Half rk4, a quarter implicit
# midpoint, a quarter rk4 writing every output.  Each slot runs its own input;
# all run 2-bump Hamiltonians except the second rk4 slot, which alternates 1
# and 3 bumps.  Each kind's latencies then form one cluster, so the median
# and the 90th percentile fall inside a cluster instead of between two.
FLOW_SLOTS = (
    ("rk4", "rk4", ()),
    ("implicit-midpoint", "implicit-midpoint", ("--scheme", "implicit-midpoint")),
    ("rk4-alt", "rk4", ()),
    ("rk4-emit", "rk4-emit", ()),
)


def build_flow(rng, root, pool_size):
    """``flow -T 0.1 --dt 1e-3`` on star loops of 256 samples under 1 to 3 bumps."""
    n = 256
    pool = []
    for j in range(pool_size + 1):
        entry = {}
        for slot, kind, extra in FLOW_SLOTS:
            n_bumps = (1, 3)[j % 2] if slot == "rk4-alt" else 2
            density = gen.morse_density(rng, 3, 2 * int(rng.integers(1, 4)))
            pts = gen.StarLoop.random(rng).samples(n)
            lo, hi = pts.min(axis=0), pts.max(axis=0)
            bumps = [{"center": rng.uniform(lo, hi).tolist(),
                      "sigma": float(rng.uniform(0.6, 1.2)),
                      "amplitude": float(rng.uniform(0.1, 0.3) * rng.choice([-1.0, 1.0]))}
                     for _ in range(n_bumps)]
            beta = density.trig_doc()
            tag = f"{j}-{slot}-b{n_bumps}"
            loop_path = _write(os.path.join(root, f"{tag}-loop.json"), gen.loop_doc(pts, beta))
            ham_path = _write(os.path.join(root, f"{tag}-ham.json"),
                              {"schema": "vortexloop/1", "bumps": bumps})
            argv = ["flow", loop_path, ham_path, "-T", FLOW_T, "--dt", FLOW_DT, *extra]
            outputs = None
            if kind == "rk4-emit":
                outputs = tuple(os.path.join(root, f"{tag}-out.{ext}")
                                for ext in ("json", "csv", "svg"))
                argv += ["-o", outputs[0], "--emit-csv", outputs[1], "--emit-svg", outputs[2]]
            entry[slot] = Op(kind, tag, argv, _check_flow(n, beta, outputs))
        pool.append(entry)
    warm = pool.pop()
    return Workload([slot for slot, _, _ in FLOW_SLOTS], pool,
                    [warm["rk4"], warm["implicit-midpoint"], warm["rk4-emit"]])


BUILDERS = {"flow": build_flow, "invariants": build_invariants, "intertwine": build_intertwine}

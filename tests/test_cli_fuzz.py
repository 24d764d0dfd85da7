"""A seeded fuzz of the command-line contract.

Valid loop and Hamiltonian documents are mutated by a fixed, seeded case
list: curves scaled, translated or flattened by magnitudes from 1e-320 to
1.7e308, or scaled and jittered, n from 16 to 1024, trig and sampled
densities at the same magnitudes, and 1-3 bumps.  Every case runs through
``invariants``, ``equiv``, ``intertwine`` and ``flow`` with every warning an
error, and must keep the contract of the ``cli`` docstring:

- exit 0 with finite JSON, or exit 1 for a negative ``equiv`` verdict;
- exit 2-5 with exactly one ``error:`` line, no traceback and no file written;
- the same argv twice gives the same bytes;
- a quarter turn (x, y) -> (-y, x) of the curve and of the bump centres gives
  the same ``invariants`` answer, and the quarter-turned ``flow`` answer, bit
  for bit.
"""

import itertools
import json
import math
import warnings

import numpy as np

from vortexloop import cli, io
from vortexloop.quadrature import uniform_grid

SEED = 16
# every class of case meets each of these, as the curve's and as the density's magnitude
MAGNITUDES = (1e-320, 1e-300, 1e-150, 1e-20, 1.0, 1e20, 1e150, 1e300, 1.7e308)
MUTATIONS = ("scale", "translate", "flatten", "jitter")
DENSITIES = ("trig", "samples")
# rounds of the case grid, each with its own draws
ROUNDS = 2
FLOW_ARGS = ["-T", "0.02", "--dt", "0.002"]


def _turn(xy):
    """The quarter turn (x, y) -> (-y, x) of (M, 2) points."""
    return np.column_stack([-xy[:, 1], xy[:, 0]])


def _series(rng, degree):
    """Cosine and sine coefficients of a random mean-free trig series."""
    j = np.arange(1, degree + 1)
    return rng.standard_normal(degree) / j, rng.standard_normal(degree) / j


def _density(rng, kind, magnitude):
    """A density document of the kind at the magnitude, its largest
    coefficient or sample of that size, and the same density moved along the
    circle."""
    if kind == "trig":
        cos, sin = _series(rng, int(rng.integers(1, 41)))
        # the series at t + angle
        j = np.arange(1, len(cos) + 1)
        angle = j * rng.uniform(0.0, 2.0 * np.pi)
        c, s = np.cos(angle), np.sin(angle)
        pairs = ((cos, sin), (cos * c + sin * s, sin * c - cos * s))
        top = max(np.abs(part).max() for pair in pairs for part in pair)
        return [{"kind": "trig", "coeffs": {"a0": 0.0, "cos": (magnitude * (a / top)).tolist(),
                                            "sin": (magnitude * (b / top)).tolist()}}
                for a, b in pairs]
    size = int(rng.integers(8, 257))
    t = uniform_grid(size)
    cos, sin = _series(rng, int(rng.integers(1, max(size // 6, 1) + 1)))
    j = np.arange(1, len(cos) + 1)
    values = np.cos(np.outer(t, j)) @ cos + np.sin(np.outer(t, j)) @ sin
    values = magnitude * (values / np.abs(values).max())
    return [{"kind": "samples", "values": v.tolist()}
            for v in (values, np.concatenate([values[3:], values[:3]]))]


def _cases():
    """The fixed case list: in each round, per mutation and density kind, one
    case at each curve magnitude, the density magnitudes a seeded permutation
    of the same."""
    rng = np.random.default_rng(SEED)
    for mutation, kind, _ in itertools.product(MUTATIONS, DENSITIES, range(ROUNDS)):
        for curve_mag, form_mag in zip(MAGNITUDES, rng.permutation(MAGNITUDES).tolist()):
            n = int(np.round(2.0 ** rng.uniform(4.0, 10.0)))
            t = uniform_grid(n)
            r = 1.0 + rng.uniform(0.0, 0.3) * np.cos(rng.integers(2, 6) * t + rng.uniform(0, 6))
            base = rng.uniform(-1.0, 1.0, 2) + np.column_stack([r * np.cos(t), r * np.sin(t)])
            # every coordinate within [-1, 1], so no mutation overflows
            base /= np.abs(base).max()
            curve = base.copy()
            if mutation == "scale":
                curve *= curve_mag
            elif mutation == "translate":
                angle = rng.uniform(0.0, 2.0 * np.pi)
                curve += curve_mag * np.array([np.cos(angle), np.sin(angle)])
            elif mutation == "flatten":
                curve[:, 1] *= curve_mag
            else:
                # each sample's coordinates moved by up to a relative 10^U(-16, -2),
                # drawn per sample, of themselves: at most 1 %, which takes no
                # coordinate of size 1.7e308 past the double range
                curve *= curve_mag
                jitter = 10.0 ** rng.uniform(-16.0, -2.0, (n, 1)) * rng.uniform(-1.0, 1.0, (n, 2))
                with np.errstate(over="raise"):
                    curve += curve * jitter
            beta, moved = _density(rng, kind, form_mag)
            yield (f"{mutation}-{kind}-curve{curve_mag!r}-density{form_mag!r}-n{n}",
                   curve, base, beta, moved, _bumps(rng, curve))


def _bumps(rng, curve):
    """1-3 bumps placed and sized by the curve's box; one case in four
    takes an amplitude from ``MAGNITUDES`` instead."""
    with np.errstate(all="ignore"):
        lo, hi = curve.min(axis=0), curve.max(axis=0)
        middle, span = lo + 0.5 * (hi - lo), float(np.max(hi - lo))
    span = min(span, 1.7e308)
    bumps = []
    for _ in range(int(rng.integers(1, 4))):
        with np.errstate(all="ignore"):
            center = np.clip(middle + 0.5 * span * rng.uniform(-1.0, 1.0, 2), -1.7e308, 1.7e308)
            sigma = span * rng.uniform(0.2, 1.0)
            amplitude = min(sigma * sigma * rng.uniform(1.0, 20.0), 1.7e308)
        if rng.uniform() < 0.25:
            amplitude = float(rng.choice(MAGNITUDES))
        bumps.append({"center": center.tolist(), "sigma": sigma,
                      "amplitude": float(rng.choice([-1.0, 1.0])) * amplitude})
    return bumps


def _finite(text):
    """The JSON ``text`` parsed, or ValueError when it is not JSON or holds a
    number that is not finite."""
    def number(s):
        value = float(s)
        if not math.isfinite(value):
            raise ValueError(f"non-finite number {s}")
        return value

    def constant(s):
        raise ValueError(f"non-finite number {s}")

    return json.loads(text, parse_float=number, parse_constant=constant)


def _run(capsys, argv, outputs):
    """(exit code, stdout, stderr, {name: bytes} of the outputs written) of one
    in-process run with every warning an error; a run that raises gives its
    exception as the exit code."""
    for path in outputs:
        path.unlink(missing_ok=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except Exception as exc:
            code = f"raised {exc!r}"
    captured = capsys.readouterr()
    written = {path.name: path.read_bytes() for path in outputs if path.exists()}
    return code, captured.out, captured.err, written


def _breach(command, result, outputs):
    """What in ``result`` breaks the contract, or None."""
    code, out, err, written = result
    if code in (0, 1) and (code == 0 or command == "equiv"):
        if err:
            return f"exit {code} with stderr {err!r}"
        try:
            doc = _finite(out)
            for name, text in written.items():
                if name.endswith(".json"):
                    _finite(text.decode())
        except ValueError as exc:
            return f"exit {code} with output that is not finite JSON: {exc}"
        if command == "equiv" and doc["equivalent"] is not (code == 0):
            return f"exit {code} with the verdict {doc['equivalent']}"
        if len(written) != len(outputs):
            return f"exit {code} wrote {sorted(written)} of {[p.name for p in outputs]}"
        return None
    if code in (2, 3, 4, 5):
        if out or not err.startswith("error: ") or err.count("\n") != 1 or not err.endswith("\n"):
            return f"exit {code} with stdout {out!r} and stderr {err!r}"
        if written:
            return f"exit {code} wrote {sorted(written)}"
        return None
    return f"exit {code!r}, stderr {err!r}"


def test_cli_contract_over_a_seeded_case_list(capsys, tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    out_json, out_csv, out_svg, out_map = (tmp_path / name for name in
                                           ("out.json", "out.csv", "out.svg", "map.json"))
    flow_outputs = [out_json, out_csv, out_svg]
    breaches, answered, count = [], set(), 0
    for name, curve, base, beta, moved, bumps in _cases():
        count += 1
        loop = write("loop.json", {"schema": io.SCHEMA, "samples": curve.tolist(), "beta": beta})
        target = write("target.json", {"schema": io.SCHEMA, "samples": base.tolist(),
                                       "beta": moved})
        ham = write("ham.json", {"schema": io.SCHEMA, "bumps": bumps})
        turned_loop = write("turned_loop.json", {"schema": io.SCHEMA,
                                                 "samples": _turn(curve).tolist(), "beta": beta})
        turned_ham = write("turned_ham.json", {"schema": io.SCHEMA, "bumps": [
            dict(b, center=[-b["center"][1], b["center"][0]]) for b in bumps]})
        runs = {
            "invariants": (["invariants", loop], []),
            "equiv": (["equiv", loop, target], []),
            "intertwine": (["intertwine", target, loop, "-o", str(out_map)], [out_map]),
            "flow": (["flow", loop, ham, *FLOW_ARGS, "-o", str(out_json), "--emit-csv",
                      str(out_csv), "--emit-svg", str(out_svg)], flow_outputs),
        }
        results = {}
        for command, (argv, outputs) in runs.items():
            first = _run(capsys, argv, outputs)
            results[command] = first
            why = _breach(command, first, outputs)
            if why is None and _run(capsys, argv, outputs) != first:
                why = "the same argv twice gave different bytes"
            if why is not None:
                breaches.append(f"{name} {command}: {why}")
            answered.add((command, first[0]))

        # the quarter turn: the same invariants, and the turned flow
        turned = _run(capsys, ["invariants", turned_loop], [])
        if turned != results["invariants"]:
            breaches.append(f"{name} invariants: the quarter turn gave {turned[:3]}, "
                            f"not {results['invariants'][:3]}")
        turned = _run(capsys, ["flow", turned_loop, turned_ham, *FLOW_ARGS, "-o", str(out_json),
                               "--emit-csv", str(out_csv), "--emit-svg", str(out_svg)],
                      flow_outputs)
        code, out, err, written = results["flow"]
        if turned[:3] != (code, out, err):
            breaches.append(f"{name} flow: the quarter turn gave {turned[:3]}, "
                            f"not {(code, out, err)}")
        elif code == 0:
            want, got = json.loads(written["out.json"]), json.loads(turned[3]["out.json"])
            same = (got["beta"] == want["beta"] and np.array_equal(
                np.array(got["samples"]).view(np.uint64),
                _turn(np.array(want["samples"])).view(np.uint64)))
            if not same or turned[3]["out.csv"] != written["out.csv"]:
                breaches.append(f"{name} flow: the quarter turn did not turn the evolved loop")

    assert count == len(MUTATIONS) * len(DENSITIES) * ROUNDS * len(MAGNITUDES)
    assert not breaches, "\n".join(breaches)
    # the list reaches answers and refusals of every command
    for command in ("invariants", "equiv", "intertwine", "flow"):
        codes = {code for (c, code) in answered if c == command}
        assert 0 in codes and codes - {0, 1}, (command, codes)

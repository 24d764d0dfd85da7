"""Command-line surface: JSON output and the exit-code contract."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import vortexloop
from vortexloop import cli, io, loops, samples
from vortexloop.circle_forms import (
    DEFAULT_MORSE_TOL,
    DEFAULT_PROFILE_REL_TOL,
    TWO_PI,
    CircleDiffeo,
    CircleForm,
)
from vortexloop.cli import build_parser, main
from vortexloop.errors import (
    AlternationViolation,
    MorseViolation,
    NoSymmetry,
    OddZeroCount,
    OutOfRange,
    ProfileMismatch,
    SchemaError,
    StepRejected,
    ValidationFailed,
    VortexLoopError,
)
from vortexloop.flow import PlanarHamiltonian
from vortexloop.loops import DEFAULT_AREA_REL_TOL, DecoratedLoop, LoopEmbedding
from vortexloop.quadrature import uniform_grid

from conftest import near_degenerate_form


def write_loop(path, loop):
    io.dump(io.loop_to_dict(loop), path)
    return str(path)


def write_ham(path, h):
    io.dump(io.hamiltonian_to_dict(h), path)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def circle_file(tmp_path):
    loop = DecoratedLoop(LoopEmbedding.circle(), samples.standard_form("sin2t"))
    return write_loop(tmp_path / "circle.json", loop)


def test_invariants_output(capsys, circle_file):
    code, out, _ = run(capsys, ["invariants", circle_file])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == io.SCHEMA
    assert doc["area"] == pytest.approx(np.pi, rel=1e-8)
    np.testing.assert_allclose(doc["omegas"], [1.0, -1.0, 1.0, -1.0], atol=1e-10)
    assert doc["total"] == pytest.approx(0.0, abs=1e-12)
    assert doc["k"] == 4
    assert doc["ell"] == 2


def test_invariants_orientation_handling(capsys, tmp_path):
    for n in (64, 256):
        s = np.linspace(0.0, TWO_PI, n, endpoint=False)
        cw = np.column_stack([np.cos(-s), np.sin(-s)])
        doc = {"schema": io.SCHEMA,
               "samples": [[float(x), float(y)] for x, y in cw],
               "beta": io.form_to_dict(samples.standard_form("sin2t"))}
        path = tmp_path / "cw.json"
        io.dump(doc, path)
        code, _, err = run(capsys, ["invariants", str(path)])
        assert code == 2
        # the message names the flag that reverses the loop
        assert "negatively oriented" in err and "--auto-orient" in err
        code, out, _ = run(capsys, ["invariants", str(path), "--auto-orient"])
        assert code == 0
        assert json.loads(out)["area"] == pytest.approx(np.pi, rel=1e-8 if n == 256 else 1e-6)


def test_equiv_verdicts(capsys, tmp_path, circle_file):
    scaled = DecoratedLoop(LoopEmbedding.circle(radius=1.1),
                           samples.standard_form("sin2t"))
    other = write_loop(tmp_path / "scaled.json", scaled)

    code, out, _ = run(capsys, ["equiv", circle_file, circle_file])
    assert code == 0
    doc = json.loads(out)
    assert doc["equivalent"] is True
    assert 0 in doc["shifts"]
    assert doc["area_delta"] == 0.0

    code, out, _ = run(capsys, ["equiv", circle_file, other])
    assert code == 1
    assert json.loads(out)["equivalent"] is False


def test_intertwine_shift_and_mismatch(capsys, tmp_path, circle_file, monkeypatch):
    # the target is the model pulled back through the rotation by pi / 2
    flipped = CircleForm.from_function(lambda t: -np.sin(2.0 * t))
    target = DecoratedLoop(LoopEmbedding.circle(), flipped)
    target_file = write_loop(tmp_path / "target.json", target)

    out_file = tmp_path / "psi.json"
    argv = ["intertwine", circle_file, target_file, "--shift", "1", "-o", str(out_file)]
    code, out, _ = run(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["shift"] == 1
    assert doc["residual"] <= 1e-10  # max|omega| is 1
    psi = io.diffeo_from_dict(io.load(out_file))
    # model segment 0 starts at 0; target segment 1 starts at pi/2
    assert psi(0.0) == pytest.approx(np.pi / 2, abs=1e-9)

    code, _, err = run(capsys, ["intertwine", circle_file, target_file, "--shift", "0"])
    assert code == 4
    assert "shift" in err

    code, out, _ = run(capsys, ["intertwine", circle_file, circle_file])
    assert code == 0
    assert "samples" in json.loads(out)

    # the pushforward through any map has the model's profile, so only the
    # defining relation F_target(psi(t)) - F_model(t) = const tells a map
    # rotated by 1e-6 from the true one
    true_intertwiner = cli.intertwiner

    def rotated(*args, **kwargs):
        psi = true_intertwiner(*args, **kwargs)
        return CircleDiffeo.rotation(1e-6, psi.size).compose(psi)

    monkeypatch.setattr(cli, "intertwiner", rotated)
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert json.loads(out)["residual"] > 1e-8


def test_intertwine_finds_each_loops_zeros_once(capsys, tmp_path, circle_file, monkeypatch):
    # loading a loop finds its zeros and profile; the intertwiner reuses the
    # model's and the target's instead of searching either decoration again
    flipped = CircleForm.from_function(lambda t: -np.sin(2.0 * t))
    target_file = write_loop(tmp_path / "target.json",
                             DecoratedLoop(LoopEmbedding.circle(), flipped))
    calls = []

    def counted(name):
        true_fn = getattr(loops, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return true_fn(*args, **kwargs)

        return wrapped

    for name in ("find_zeros", "partial_vorticities"):
        monkeypatch.setattr(loops, name, counted(name))
    for shift, want_code in (("1", 0), ("0", 4)):
        calls.clear()
        code, _, _ = run(capsys, ["intertwine", circle_file, target_file, "--shift", shift])
        assert code == want_code
        assert sorted(calls) == ["find_zeros"] * 2 + ["partial_vorticities"] * 2


def test_flow_run_and_artifacts(capsys, tmp_path, circle_file):
    ham_file = write_ham(tmp_path / "ham.json",
                         PlanarHamiltonian.single((0.2, -0.1), 0.8, 0.4))
    evolved = tmp_path / "evolved.json"
    csv_path = tmp_path / "series.csv"
    svg_path = tmp_path / "overlay.svg"
    code, out, _ = run(capsys, ["flow", circle_file, ham_file,
                                "-T", "0.5", "--dt", "0.01",
                                "-o", str(evolved),
                                "--emit-csv", str(csv_path),
                                "--emit-svg", str(svg_path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["steps"] == 50
    assert doc["area_drift"] < 1e-8
    assert doc["profile_drift"] == 0.0
    assert doc["hamiltonian_drift"] < 1e-8

    back = io.loop_from_dict(io.load(evolved))
    assert back.embedding.size == 256
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0].startswith("step,t,area,momentum")
    assert len(lines) == 52  # header + initial snapshot + 50 steps
    assert svg_path.read_text().startswith("<svg ")


def test_flow_bad_step_and_rejection(capsys, tmp_path, circle_file):
    ham_file = write_ham(tmp_path / "ham.json",
                         PlanarHamiltonian.single((0.2, -0.1), 0.8, 0.4))
    code, _, err = run(capsys, ["flow", circle_file, ham_file, "-T", "0.5", "--dt", "0.7"])
    assert code == 2
    assert "--dt" in err

    # dt L = 0.1 * 1.8 / 0.3^2 = 2 passes the step condition; the estimate rejects
    steep = write_ham(tmp_path / "steep.json",
                      PlanarHamiltonian.single((0.5, 0.0), 0.3, 1.8))
    code, _, err = run(capsys, ["flow", circle_file, steep, "-T", "1.0", "--dt", "0.1"])
    assert code == 5
    assert "local error estimate" in err

    # dt L = 44 fails it before the first step
    strong = write_ham(tmp_path / "strong.json",
                       PlanarHamiltonian.single((0.5, 0.0), 0.3, 40.0))
    code, _, err = run(capsys, ["flow", circle_file, strong, "-T", "1.0", "--dt", "0.1"])
    assert code == 5
    assert err.startswith("error: step condition: dt L = 4.444e+01 exceeds 2.8284")


def three_lobed_samples(n=256):
    """The samples of r = 1 + 0.2 cos 3t."""
    t = TWO_PI * np.arange(n) / n
    r = 1.0 + 0.2 * np.cos(3.0 * t)
    return np.column_stack([r * np.cos(t), r * np.sin(t)])


def write_loop_doc(path, samples_xy, coeffs):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema": io.SCHEMA, "samples": samples_xy.tolist(),
                   "beta": {"kind": "trig", "coeffs": coeffs}}, fh)
    return str(path)


@pytest.mark.parametrize("scheme", ["rk4", "implicit-midpoint"])
@pytest.mark.parametrize("amplitude", [5e4, 1e5])
def test_flow_a_step_the_field_can_hide_from_exit_5(capsys, tmp_path, amplitude, scheme):
    # one bump at (0.3, 0.1), sigma = 0.5, dt = 1e-3: dt L = 200 and 400.  The
    # first RK4 stage carries every point past 6 sigma, where the field is 0,
    # and such runs were accepted with an area drift of 327 and 1.3e3
    loop_file = write_loop_doc(tmp_path / "loop.json", three_lobed_samples(),
                               {"a0": 0.1, "cos": [0.0, 1.0], "sin": [0.3]})
    ham = write_ham(tmp_path / "ham.json", PlanarHamiltonian.single((0.3, 0.1), 0.5, amplitude))
    out_json = tmp_path / "out.json"
    code, out, err = run(capsys, ["flow", loop_file, ham, "-T", "0.01", "--dt", "1e-3",
                                  "--scheme", scheme, "-o", str(out_json)])
    assert code == 5 and out == ""
    assert err.startswith(f"error: step condition: dt L = {amplitude * 4e-3:.3e} exceeds 2.8284")
    assert not out_json.exists()


def _flow_quietly(capsys, tmp_path, loop_file, bumps):
    """``flow`` with every output file asked for and every warning an error:
    (exit code, stdout, stderr, whether any file was written)."""
    ham = tmp_path / "ham.json"
    ham.write_text(json.dumps({"schema": io.SCHEMA, "bumps": bumps}))
    outputs = [tmp_path / name for name in ("out.json", "out.csv", "out.svg")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["flow", loop_file, str(ham), "-T", "0.01", "--dt", "1e-3",
                                      "-o", str(outputs[0]), "--emit-csv", str(outputs[1]),
                                      "--emit-svg", str(outputs[2])])
    return code, out, err, any(path.exists() for path in outputs)


@pytest.mark.parametrize("before", [0, 1])
def test_flow_bump_beyond_the_double_range_exit_2_naming_it(capsys, tmp_path, circle_file,
                                                             before):
    # A = -5e307 and sigma = 8.5e-4 are finite, but |A| / sigma and
    # |A| / sigma^2 are not: the bump is refused by its index, with no numpy
    # warning, before anything is written
    good = {"center": [0.2, -0.1], "sigma": 0.8, "amplitude": 0.1}
    bad = {"center": [0.0, 0.0], "sigma": 8.5e-4, "amplitude": -5.0e307}
    got = _flow_quietly(capsys, tmp_path, circle_file, [good] * before + [bad])
    assert got == (2, "", f"error: bump {before}: |A| / sigma or |A| / sigma^2 is beyond "
                          f"the double range (A = -5e+307, sigma = 0.00085)\n", False)


@pytest.mark.parametrize("bumps, bound", [
    # |A| / sigma^2 = 1e308 each, so L overflows; the bumps lie 1e4 sigma from
    # the unit circle, so the momentum is 0
    ([{"center": [0.0, 0.0], "sigma": 1e-4, "amplitude": 1e300}] * 2,
     "L = sum |A| / sigma^2, which bounds the field's Jacobian"),
    # |A| / sigma = 7.5e307 each, so V overflows and L = 1.125e308 does not
    ([{"center": [100.0, 0.0], "sigma": 2.0, "amplitude": 1.5e308}] * 3,
     "V = sum |A| / sigma, which bounds the field"),
])
def test_flow_bounds_that_overflow_exit_5_with_no_advice(capsys, tmp_path, circle_file, bumps,
                                                         bound):
    # every bump's terms are finite, their sum is not: the step condition
    # refuses the run without a dt to take, and no numpy warning is shown
    got = _flow_quietly(capsys, tmp_path, circle_file, bumps)
    assert got == (5, "", f"error: step condition: {bound}, overflows\n", False)


def test_invariants_overflowing_profile_exit_3(capsys, tmp_path):
    # finite coefficients, derivative coefficients and grid values, but the
    # antiderivative's a0 t overflows near t = 2 pi: the profile is not finite
    path = write_loop_doc(tmp_path / "loop.json", three_lobed_samples(),
                          {"a0": 5e307, "cos": [9e307]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["invariants", str(path)])
    assert code == 3 and out == ""
    assert err == "error: density overflows: its partial vorticities are not finite\n"


def test_non_finite_answer_exit_2_naming_its_key(capsys, tmp_path):
    # a bump of amplitude 1e300 on a density of scale 1e10: the momentum
    # overflows, so the answer is one error line that names it, with no
    # numpy warning, raised before advecting, so none of the files is written
    loop_file = write_loop_doc(tmp_path / "loop.json", three_lobed_samples(),
                               {"a0": 1e9, "cos": [0.0, 1e10], "sin": [3e9]})
    ham = write_ham(tmp_path / "ham.json", PlanarHamiltonian.single((0.0, 0.0), 1e150, 1e300))
    outputs = [tmp_path / name for name in ("out.json", "out.csv", "out.svg")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["flow", loop_file, ham, "-T", "0.01", "--dt", "1e-3",
                                      "-o", str(outputs[0]), "--emit-csv", str(outputs[1]),
                                      "--emit-svg", str(outputs[2])])
    assert (code, out, err) == (2, "", "error: momentum: nan is not a finite number\n")
    assert not any(path.exists() for path in outputs)


@pytest.mark.parametrize("scale, want", [
    (1e152, 3.20442447200687e+304),
    (1e155, "error: loop area 0.6962969847874243 * 4**516 is outside the range of normal doubles"),
    (1e-160, "error: loop area 1.5834539396662097 * 4**-531 is outside the range of normal "
             "doubles"),
    (1e-200, "error: loop area 1.877518744422499 * 4**-664 is outside the range of normal "
             "doubles"),
])
def test_loop_area_in_range_or_exit_2_naming_it(capsys, tmp_path, scale, want):
    # the area is taken on the curve scaled by a power of two into [-1, 1]:
    # at 1e152 the area 3.2e304 is a double and is printed; beyond the normal
    # doubles the command exits 2 with one line naming the area, not with an
    # infinite, subnormal or zero area, and no RuntimeWarning
    path = write_loop_doc(tmp_path / "loop.json", scale * three_lobed_samples(),
                          {"a0": 0.1, "cos": [0.0, 1.0], "sin": [0.3]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["invariants", path])
    if isinstance(want, float):
        assert (code, err) == (0, "")
        assert json.loads(out)["area"] == want
    else:
        assert (code, out, err) == (2, "", want + "\n")


def test_loop_area_is_exact_under_power_of_two_scaling(capsys, tmp_path):
    # metamorphic: the curve times 2**k, k = -600 .. 600, encloses exactly
    # 4**k times the area, or, where that is no normal double, its embedding
    # raises OutOfRange and invariants exits 2 naming the area; the command
    # runs at every 25th k and on both sides of each end of the range
    base = three_lobed_samples()
    area = loops.enclosed_area(LoopEmbedding(base))

    def scaled(k):
        try:
            value = math.ldexp(area, 2 * k)
        except OverflowError:
            return None
        return value if value >= sys.float_info.min else None

    ks = range(-600, 601)
    edges = {j for k in ks if (scaled(k) is None) != (scaled(k + 1) is None) for j in (k, k + 1)}
    assert len(edges) == 4
    coeffs = {"a0": 0.1, "cos": [0.0, 1.0], "sin": [0.3]}
    for k in ks:
        pts = np.ldexp(base, k)
        if scaled(k) is None:
            with pytest.raises(OutOfRange, match="^loop area "):
                LoopEmbedding(pts)
        else:
            assert loops.enclosed_area(LoopEmbedding(pts)) == scaled(k)
        if k % 25 == 0 or k in edges:
            code, out, err = run(capsys, ["invariants", write_loop_doc(tmp_path / "loop.json",
                                                                       pts, coeffs)])
            if scaled(k) is None:
                assert (code, out) == (2, "")
                assert err.startswith("error: loop area ") and err.count("\n") == 1
            else:
                assert (code, err) == (0, "")
                assert json.loads(out)["area"] == scaled(k)


def test_flow_collision_exit_5_writes_no_output(capsys, tmp_path):
    # differential swirl around an off-center bump folds the coarse circle;
    # the stride check finds the crossing mid-run
    loop = DecoratedLoop(LoopEmbedding.circle(n=32), samples.standard_form("sin2t"))
    loop_file = write_loop(tmp_path / "coarse.json", loop)
    ham_file = write_ham(tmp_path / "ham.json", PlanarHamiltonian.single((1.0, 0.0), 0.25, 2.0))
    out_json = tmp_path / "out.json"
    code, out, err = run(capsys, ["flow", loop_file, ham_file, "-T", "2", "--dt", "0.002",
                                  "-o", str(out_json)])
    assert code == 5
    assert out == ""
    assert err == "error: evolved loop polyline self-intersects after 110 steps\n"
    assert not out_json.exists()


def test_flow_has_no_rel_tol_flag(capsys, tmp_path, circle_file):
    # flow compares no profiles, so a --rel-tol there would be accepted and ignored
    ham_file = write_ham(tmp_path / "ham.json",
                         PlanarHamiltonian.single((0.2, -0.1), 0.8, 0.4))
    with pytest.raises(SystemExit) as exc:
        main(["flow", circle_file, ham_file, "-T", "0.1", "--dt", "0.01",
              "--rel-tol", "1e-3"])
    assert exc.value.code == 2
    assert "--rel-tol" in capsys.readouterr().err


def test_parser_defaults_are_the_library_constants():
    parser = build_parser()
    rel = {"rel_tol": DEFAULT_PROFILE_REL_TOL}
    for argv, want in [
        (["invariants", "x"], {**rel, "morse_tol": DEFAULT_MORSE_TOL}),
        (["equiv", "x", "y"], {**rel, "area_tol": DEFAULT_AREA_REL_TOL}),
        (["intertwine", "x", "y"], rel),
    ]:
        args = vars(parser.parse_args(argv))
        assert {key: args[key] for key in want} == want, argv


def test_cached_parser_carries_no_option_into_the_next_call(monkeypatch, circle_file):
    seen = []
    monkeypatch.setattr(cli, "cmd_invariants", lambda args: seen.append(args.rel_tol) or 0)
    assert main(["invariants", circle_file, "--rel-tol", "0.5"]) == 0
    assert main(["invariants", circle_file]) == 0
    assert seen == [0.5, DEFAULT_PROFILE_REL_TOL]
    assert build_parser() is build_parser()


@pytest.mark.parametrize("argv", [
    ["invariants", "{loop}", "--rel-tol", "nan"],
    ["invariants", "{loop}", "--morse-tol", "inf"],
    ["equiv", "{loop}", "{loop}", "--rel-tol", "nan"],
    ["equiv", "{loop}", "{loop}", "--area-tol", "nan"],
    ["intertwine", "{loop}", "{loop}", "--rel-tol", "inf"],
    ["flow", "{loop}", "{ham}", "-T", "inf", "--dt", "0.1"],
    ["flow", "{loop}", "{ham}", "-T", "0.1", "--dt", "nan"],
])
def test_non_finite_flag_values_are_parse_errors(capsys, tmp_path, circle_file, argv):
    ham_file = write_ham(tmp_path / "ham.json",
                         PlanarHamiltonian.single((0.2, -0.1), 0.8, 0.4))
    with pytest.raises(SystemExit) as exc:
        main([a.format(loop=circle_file, ham=ham_file) for a in argv])
    assert exc.value.code == 2
    assert "must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["flow", "{loop}", "{ham}", "-T", "0.01", "--dt", "0.01", "-o", "{bad}"],
    ["flow", "{loop}", "{ham}", "-T", "0.01", "--dt", "0.01", "--emit-csv", "{bad}"],
    ["flow", "{loop}", "{ham}", "-T", "0.01", "--dt", "0.01", "--emit-svg", "{bad}"],
    ["intertwine", "{loop}", "{loop}", "-o", "{bad}"],
])
def test_unwritable_output_path_exit_2(capsys, tmp_path, circle_file, argv):
    ham_file = write_ham(tmp_path / "ham.json",
                         PlanarHamiltonian.single((0.2, -0.1), 0.8, 0.4))
    bad = str(tmp_path / "missing" / "out.txt")
    code, out, err = run(capsys, [a.format(loop=circle_file, ham=ham_file, bad=bad)
                                  for a in argv])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {bad}: ")


def test_flow_bad_svg_path_writes_no_output(capsys, tmp_path, circle_file):
    ham_file = write_ham(tmp_path / "ham.json",
                         PlanarHamiltonian.single((0.2, -0.1), 0.8, 0.4))
    out_json = tmp_path / "out.json"
    bad = str(tmp_path / "nonexistent" / "x.svg")
    code, out, err = run(capsys, ["flow", circle_file, ham_file, "-T", "0.01", "--dt", "0.01",
                                  "-o", str(out_json), "--emit-svg", bad])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {bad}: ")
    assert not out_json.exists()


def test_flow_directory_as_output_exit_2(capsys, tmp_path, circle_file):
    ham_file = write_ham(tmp_path / "ham.json",
                         PlanarHamiltonian.single((0.2, -0.1), 0.8, 0.4))
    csv_path = tmp_path / "series.csv"
    code, _, err = run(capsys, ["flow", circle_file, ham_file, "-T", "0.01", "--dt", "0.01",
                                "--emit-csv", str(csv_path), "--emit-svg", str(tmp_path)])
    assert code == 2
    assert err.startswith(f"error: {tmp_path}: ")
    assert not csv_path.exists()


@pytest.mark.parametrize("exc, want", [
    (SchemaError("bad"), 2),
    (MorseViolation("bad"), 3),
    (OddZeroCount("bad"), 3),
    (AlternationViolation("bad"), 3),
    (ProfileMismatch("bad"), 4),
    (NoSymmetry("bad"), 4),
    (StepRejected("bad"), 5),
    (ValidationFailed("bad"), 2),
    (VortexLoopError("bad"), 2),
    (ValueError("bad"), 2),
])
def test_exit_code_of_each_failure(capsys, monkeypatch, exc, want):
    def stub(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_verify", stub)
    code, out, err = run(capsys, ["verify"])
    assert code == want
    assert out == ""
    assert err == "error: bad\n"


def test_broken_json_exit_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema": "vortexloop/1", "samples": [[0, ')
    code, _, err = run(capsys, ["invariants", str(path)])
    assert code == 2
    assert "invalid JSON" in err


def test_flow_overflowing_amplitude_exit_2(capsys, tmp_path, circle_file):
    path = tmp_path / "ham.json"
    path.write_text('{"bumps": [{"center": [0.2, -0.1], "sigma": 0.8, "amplitude": %s}]}'
                    % ("9" * 401))
    code, _, err = run(capsys, ["flow", circle_file, str(path), "-T", "0.1", "--dt", "0.01"])
    assert code == 2
    assert "bumps[0].amplitude: must be a finite number" in err


def test_boolean_coefficient_exit_2(capsys, tmp_path):
    doc = io.loop_to_dict(DecoratedLoop(LoopEmbedding.circle(), samples.standard_form("sin2t")))
    doc["beta"]["coeffs"]["a0"] = True
    path = tmp_path / "loop.json"
    io.dump(doc, path)
    code, _, err = run(capsys, ["invariants", str(path)])
    assert code == 2
    assert "loop.beta.coeffs.a0: must be a finite number" in err


def test_string_numbers_exit_2(capsys, tmp_path):
    # numpy parses numeric strings, but a JSON string is not a number
    doc = io.loop_to_dict(DecoratedLoop(LoopEmbedding.circle(), samples.standard_form("sin2t")))
    doc["beta"]["coeffs"]["cos"] = ["0.0"]
    path = tmp_path / "loop.json"
    io.dump(doc, path)
    code, _, err = run(capsys, ["invariants", str(path)])
    assert code == 2
    assert "loop.beta.coeffs.cos: expected a flat list of numbers, got a string" in err


def test_overflowing_density_exit_3(capsys, tmp_path):
    # every coefficient a finite JSON number, every grid value infinite
    doc = io.loop_to_dict(DecoratedLoop(LoopEmbedding.circle(), samples.standard_form("sin2t")))
    doc["beta"] = {"kind": "trig", "coeffs": {"a0": 1e308, "cos": [1e308], "sin": []}}
    path = tmp_path / "loop.json"
    io.dump(doc, path)
    code, out, err = run(capsys, ["invariants", str(path)])
    assert code == 3
    assert out == ""
    assert err == "error: density overflows: its values on the sampling grid are not finite\n"


@pytest.mark.parametrize("command", ["invariants", "equiv", "intertwine"])
@pytest.mark.parametrize("amp", [1e300, 1e307, 5e307, 1.1e308])
def test_sampled_density_near_the_double_range_is_one_line(capsys, tmp_path, command, amp):
    # 64 finite samples of amp (sin 2t + 0.3 cos t): from 1e307 on the
    # spline's slopes or coefficients overflow, and the command exits 3 with
    # one line and no numpy warning; at 1e300 it answers
    t = uniform_grid(64)
    values = amp * (np.sin(2.0 * t) + 0.3 * np.cos(t))
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({"schema": io.SCHEMA, "samples": three_lobed_samples().tolist(),
                                "beta": {"kind": "samples", "values": values.tolist()}}))
    argv = [command] + [str(path)] * (1 if command == "invariants" else 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, argv)
    if amp == 1e300:
        assert (code, err) == (0, "")
        assert json.loads(out)
    else:
        assert (code, out, err) == (3, "", "error: density overflows: its values on the "
                                           "sampling grid are not finite\n")


def test_overflowing_derivative_exit_3(capsys, tmp_path):
    # finite coefficients whose derivative coefficients j c_j and grid values overflow:
    # one error line and no numpy warning
    doc = io.loop_to_dict(DecoratedLoop(LoopEmbedding.circle(), samples.standard_form("sin2t")))
    doc["beta"] = {"kind": "trig",
                   "coeffs": {"a0": 1e308, "cos": [-1e308, 1e308], "sin": [1e308] * 3}}
    path = tmp_path / "loop.json"
    io.dump(doc, path)
    code, out, err = run(capsys, ["invariants", str(path)])
    assert code == 3
    assert out == ""
    assert err == ("error: density overflows: its derivative or antiderivative "
                   "coefficients are not finite\n")


def test_degenerate_zero_exit_3(capsys, tmp_path):
    loop = DecoratedLoop(LoopEmbedding.circle(), samples.standard_form("sin2t"))
    doc = io.loop_to_dict(loop)
    doc["beta"] = io.form_to_dict(near_degenerate_form())
    path = tmp_path / "degenerate.json"
    io.dump(doc, path)
    code, _, err = run(capsys, ["invariants", str(path)])
    assert code == 3
    assert "zero" in err


def test_steep_sampled_density_invariants_exit_0(capsys, tmp_path):
    rng = np.random.default_rng(0)
    j = np.arange(1, 81)
    trig = CircleForm.trig(cos=rng.standard_normal(80) / j, sin=rng.standard_normal(80) / j)
    form = CircleForm.from_samples(trig(np.arange(256) * (TWO_PI / 256)))
    path = write_loop(tmp_path / "steep.json", DecoratedLoop(LoopEmbedding.circle(n=256), form))
    code, out, err = run(capsys, ["invariants", path])
    assert code == 0, err
    assert json.loads(out)["k"] == 28


def test_morse_tol_flag_loosens_the_zero_check(capsys, tmp_path):
    loop = DecoratedLoop(LoopEmbedding.circle(), samples.standard_form("sin2t"))
    doc = io.loop_to_dict(loop)
    doc["beta"] = io.form_to_dict(near_degenerate_form(1e-9))
    path = tmp_path / "flat.json"
    io.dump(doc, path)
    code, _, err = run(capsys, ["invariants", str(path)])
    assert code == 3
    assert "near-degenerate" in err
    code, out, _ = run(capsys, ["invariants", str(path), "--morse-tol", "1e-12"])
    assert code == 0
    assert json.loads(out)["k"] == 4


def test_verify_deterministic(capsys):
    code, out1, _ = run(capsys, ["verify", "--suite", "forms", "--seed", "0"])
    assert code == 0
    code, out2, _ = run(capsys, ["verify", "--suite", "forms", "--seed", "0"])
    assert code == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["passed"] is True
    assert doc["seed"] == 0
    assert all(c["passed"] for s in doc["suites"] for c in s["checks"])


def test_verify_marks_exactly_the_two_structural_checks(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "all", "--seed", "3"])
    assert code == 0
    checks = [c for s in json.loads(out)["suites"] for c in s["checks"]]
    marked = {c["name"]: c for c in checks if "structural" in c}
    assert sorted(marked) == ["generic_profile_drift_bitexact", "omega_closedness_fd"]
    for c in marked.values():
        assert c["structural"] is True and c["residual"] == 0.0


def test_verify_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("VORTEXLOOP_SEED", "7")
    code, out, _ = run(capsys, ["verify", "--suite", "forms"])
    assert code == 0
    assert json.loads(out)["seed"] == 7
    monkeypatch.setenv("VORTEXLOOP_SEED", "many")
    code, _, err = run(capsys, ["verify", "--suite", "forms"])
    assert code == 2
    assert "VORTEXLOOP_SEED" in err


def test_verify_seed_defaults_to_0(capsys, monkeypatch):
    # the default the --seed help text promises, with neither --seed nor VORTEXLOOP_SEED
    monkeypatch.delenv("VORTEXLOOP_SEED", raising=False)
    code, out, _ = run(capsys, ["verify", "--suite", "forms"])
    assert code == 0
    assert json.loads(out)["seed"] == 0
    assert run(capsys, ["verify", "--suite", "forms", "--seed", "0"]) == (0, out, "")


def test_cli_import_leaves_scipy_unloaded():
    # scipy is reached lazily, by the reference integrator of ``verify --suite flow``
    env = dict(os.environ, PYTHONPATH=str(Path(vortexloop.__file__).parents[1]))
    probe = "import sys, vortexloop.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


PUBLIC_NAMES = [
    "AlternationViolation", "CircleDiffeo", "CircleForm", "ConstraintViolation",
    "DecoratedLoop", "FlowReport", "LoopEmbedding", "MorseViolation", "NoSymmetry",
    "OddZeroCount", "OrbitInvariants", "OrientationError", "OutOfRange", "PlanarBump",
    "PlanarHamiltonian", "ProfileMismatch", "SchemaError", "StepRejected",
    "TangentVector", "ValidationFailed", "VortexLoopError", "VorticityProfile",
    "ZeroSet", "advect", "circular_match", "closedness_residual", "cumulative",
    "enclosed_area", "equivariance_residual", "exactness_residual", "find_zeros",
    "hamiltonian_vector_field", "intertwiner", "invert_cumulative",
    "momentum_map_eval", "momentum_separation", "omega_eval", "orbit_equivalent",
    "orbit_invariants", "pairing", "pairing_matrix", "partial_vorticities",
    "primitive_one_form_eval", "project_area_constraint", "pullback_form",
    "pushforward_form", "reversed_decoration", "stabilizer_generator",
    "symmetry_step", "tangent_decompose",
]


def test_public_names():
    # a new public name is a deliberate change to this list
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES) and len(PUBLIC_NAMES) == 50
    assert vortexloop.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(vortexloop, name) is not None

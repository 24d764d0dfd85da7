"""Command-line surface: JSON output and the exit-code contract."""

import json

import numpy as np
import pytest

from vortexloop import cli, io, samples
from vortexloop.circle_forms import (
    DEFAULT_MORSE_TOL,
    DEFAULT_PROFILE_REL_TOL,
    TWO_PI,
    CircleForm,
)
from vortexloop.cli import build_parser, main
from vortexloop.errors import (
    AlternationViolation,
    MorseViolation,
    NoSymmetry,
    OddZeroCount,
    ProfileMismatch,
    SchemaError,
    StepRejected,
    ValidationFailed,
    VortexLoopError,
)
from vortexloop.flow import PlanarHamiltonian
from vortexloop.loops import DEFAULT_AREA_REL_TOL, DecoratedLoop, LoopEmbedding


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
    n = 256
    s = np.linspace(0.0, TWO_PI, n, endpoint=False)
    cw = np.column_stack([np.cos(-s), np.sin(-s)])
    doc = {"schema": io.SCHEMA,
           "samples": [[float(x), float(y)] for x, y in cw],
           "beta": io.form_to_dict(samples.standard_form("sin2t"))}
    path = tmp_path / "cw.json"
    io.dump(doc, path)
    code, _, err = run(capsys, ["invariants", str(path)])
    assert code == 2
    assert "oriented" in err
    code, out, _ = run(capsys, ["invariants", str(path), "--auto-orient"])
    assert code == 0
    assert json.loads(out)["area"] == pytest.approx(np.pi, rel=1e-8)


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


def test_intertwine_shift_and_mismatch(capsys, tmp_path, circle_file):
    flipped = CircleForm.from_function(lambda t: -np.sin(2.0 * t))
    target = DecoratedLoop(LoopEmbedding.circle(), flipped)
    target_file = write_loop(tmp_path / "target.json", target)

    out_file = tmp_path / "psi.json"
    code, out, _ = run(capsys, ["intertwine", circle_file, target_file,
                                "--shift", "1", "-o", str(out_file)])
    assert code == 0
    doc = json.loads(out)
    assert doc["shift"] == 1
    assert doc["residual"] < 1e-8
    psi = io.diffeo_from_dict(io.load(out_file))
    # model segment 0 starts at 0; target segment 1 starts at pi/2
    assert psi(0.0) == pytest.approx(np.pi / 2, abs=1e-9)

    code, _, err = run(capsys, ["intertwine", circle_file, target_file, "--shift", "0"])
    assert code == 4
    assert "shift" in err

    code, out, _ = run(capsys, ["intertwine", circle_file, circle_file])
    assert code == 0
    assert "samples" in json.loads(out)


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

    strong = write_ham(tmp_path / "strong.json",
                       PlanarHamiltonian.single((0.5, 0.0), 0.3, 40.0))
    code, _, err = run(capsys, ["flow", circle_file, strong, "-T", "1.0", "--dt", "0.1"])
    assert code == 5
    assert "local error estimate" in err


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


def test_degenerate_zero_exit_3(capsys, tmp_path):
    loop = DecoratedLoop(LoopEmbedding.circle(), samples.standard_form("sin2t"))
    doc = io.loop_to_dict(loop)
    doc["beta"] = io.form_to_dict(samples.near_degenerate_form())
    path = tmp_path / "degenerate.json"
    io.dump(doc, path)
    code, _, err = run(capsys, ["invariants", str(path)])
    assert code == 3
    assert "zero" in err


def test_morse_tol_flag_loosens_the_zero_check(capsys, tmp_path):
    loop = DecoratedLoop(LoopEmbedding.circle(), samples.standard_form("sin2t"))
    doc = io.loop_to_dict(loop)
    doc["beta"] = io.form_to_dict(samples.near_degenerate_form(1e-9))
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


def test_verify_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("VORTEXLOOP_SEED", "7")
    code, out, _ = run(capsys, ["verify", "--suite", "forms"])
    assert code == 0
    assert json.loads(out)["seed"] == 7
    monkeypatch.setenv("VORTEXLOOP_SEED", "many")
    code, _, err = run(capsys, ["verify", "--suite", "forms"])
    assert code == 2
    assert "VORTEXLOOP_SEED" in err

"""JSON round trips, schema enforcement, and string rendering."""

import json
import re
import warnings

import numpy as np
import pytest

from vortexloop import cli, io, render, samples
from vortexloop.circle_forms import TWO_PI, CircleDiffeo, CircleForm
from vortexloop.errors import OutOfRange, SchemaError
from vortexloop.flow import PlanarBump, PlanarHamiltonian, advect
from vortexloop.loops import DecoratedLoop, LoopEmbedding, enclosed_area
from vortexloop.symplectic import momentum_map_eval

from conftest import reference_flow_csv, reference_markers, reference_polyline


def circle_loop(n=64, form_name="sin2t"):
    return DecoratedLoop(LoopEmbedding.circle(n=n), samples.standard_form(form_name))


# ---------------------------------------------------------------- round trips


def test_trig_form_round_trip():
    form = samples.standard_form("mixed")
    doc = io.form_to_dict(form)
    assert doc["kind"] == "trig"
    back = io.form_from_dict(doc)
    t = np.linspace(0.0, TWO_PI, 257)
    np.testing.assert_allclose(back(t), form(t), atol=1e-15)
    a0, cos, sin = back.trig_coefficients
    a0_in, cos_in, sin_in = form.trig_coefficients
    assert a0 == a0_in
    np.testing.assert_array_equal(cos, cos_in)
    np.testing.assert_array_equal(sin, sin_in)


def test_sampled_form_round_trip():
    rng = np.random.default_rng(1)
    vals = np.sin(2 * np.linspace(0.0, TWO_PI, 64, endpoint=False))
    vals += 0.05 * rng.normal(size=64)
    form = CircleForm.from_samples(vals)
    back = io.form_from_dict(io.form_to_dict(form))
    np.testing.assert_array_equal(back.sample_values, form.sample_values)


def test_loop_round_trip():
    loop = circle_loop()
    doc = io.loop_to_dict(loop)
    assert doc["schema"] == io.SCHEMA
    back = io.loop_from_dict(doc)
    np.testing.assert_array_equal(back.embedding.samples, loop.embedding.samples)
    t = np.linspace(0.0, TWO_PI, 100)
    np.testing.assert_allclose(back.decoration(t), loop.decoration(t), atol=1e-15)


def test_hamiltonian_round_trip():
    h = PlanarHamiltonian([
        PlanarBump((0.1, -0.2), 0.5, 1.5),
        PlanarBump((1.0, 2.0), 0.25, -0.7),
    ])
    back = io.hamiltonian_from_dict(io.hamiltonian_to_dict(h))
    assert back.bumps == h.bumps


def test_diffeo_round_trip():
    diffeo = CircleDiffeo.rotation(0.7, size=64)
    back = io.diffeo_from_dict(io.diffeo_to_dict(diffeo))
    t = np.linspace(0.0, TWO_PI, 129)
    np.testing.assert_allclose(back(t), diffeo(t), atol=1e-14)


@pytest.mark.parametrize("values, error, message", [
    ([0.0, 1.0, 2.0, np.nan, 4.0, 5.0, 6.0, 6.2], SchemaError,
     r"^diffeo\.samples: values must be finite$"),
    ([0.0, 1.0, 2.0, 3.0, 3.0, 5.0, 6.0, 6.2], ValueError, "strictly increasing"),
    ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 6.3], ValueError, "full period"),
    ([0.0, 1.0, 2.0, "3.0", 4.0, 5.0, 6.0, 6.2], SchemaError,
     r"^diffeo\.samples: expected a flat list of numbers, got a string$"),
])
def test_diffeo_from_dict_rejects_a_map_that_is_not_a_circle_diffeomorphism(values, error,
                                                                            message):
    doc = {"schema": io.SCHEMA, "samples": values}
    with pytest.raises(error, match=message):
        io.diffeo_from_dict(doc)


def test_report_to_dict_fields():
    loop = circle_loop()
    h = PlanarHamiltonian.single((0.2, 0.0), 0.8, 0.2)
    report = advect(loop, h, 0.2, 0.01)
    doc = io.report_to_dict(report)
    assert doc["schema"] == io.SCHEMA
    assert doc["steps"] == 20
    assert doc["area_drift"] == report.area_drift
    assert doc["profile_drift"] == report.profile_drift
    assert doc["hamiltonian_drift"] == report.hamiltonian_drift
    assert doc["max_local_error"] == report.max_local_error


def test_dump_load_round_trip(tmp_path):
    loop = circle_loop()
    path = tmp_path / "loop.json"
    io.dump(io.loop_to_dict(loop), path)
    back = io.loop_from_dict(io.load(path))
    np.testing.assert_array_equal(back.embedding.samples, loop.embedding.samples)


def test_dumps_deterministic_and_sorted():
    doc = {"zeta": 1, "alpha": [1.5, 2.5], "mid": {"b": 2, "a": 1}}
    one = io.dumps(doc)
    two = io.dumps(doc)
    assert one == two
    assert one.endswith("\n")
    assert one.index('"alpha"') < one.index('"mid"') < one.index('"zeta"')


def json_layout(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("doc", [
    {"zeta": 1, "alpha": [1.5, 2.5], "mid": {"b": 2, "a": 1}},
    {"samples": [[0.1, -2.0], [3, 4e-300], [5e-324, -0.0]], "empty": [], "none": {},
     "nested": {"deeper": {"pairs": [[1.0, 2.0]], "mixed": [[], [1], [[2]], {"k": []}]}}},
    {"flags": [True, False, None, 0, -7, 10 ** 30], "one": True, "nothing": None},
    {"text": ["unicode \u00e9\u2603", 'quote " and \\', "line\nbreak", "]", "],\n  ["],
     "\u00fc key": "value", "[": [["a]", "b"], ["c", "d]"]]},
    # the ends of the finite range; NaN and infinity are refused, see below
    {"tiny": [5e-324, -5e-324, 2.2250738585072014e-308], "huge": -1.7976931348623157e308,
     "pairs": [[1.7976931348623157e308, -0.0]]},
    [1.5, {"b": [], "a": [[0.5, 1.5]]}, [], "top-level list"],
    [[1.0, 2.0], [3.0]],
    3.25, -1, True, None, "top-level string", [], {},
    # tuples and non-string keys take json's own path
    {"tuple": (1, [2, 3])}, {1: "int key"},
], ids=lambda doc: type(doc).__name__)
def test_dumps_is_json_indent_2_sorted_byte_for_byte(doc):
    assert io.dumps(doc) == json_layout(doc)


@pytest.mark.parametrize("doc, where, number", [
    ({"nan": float("nan"), "inf": [float("inf"), -float("inf"), float("nan")],
      "pairs": [[float("nan"), float("inf")]]}, "inf[0]", "inf"),
    ({"b": {"a": 1.0, "c": [[0.5, -np.inf]]}, "a": 2.0}, "b.c[0][1]", "-inf"),
    ({"area": np.float64(np.inf)}, "area", "inf"),
    ([1.0, {"x": np.nan}], "[1].x", "nan"),
    (float("nan"), "document", "nan"),
    ({"steps": [100, -np.inf]}, "steps[1]", "-inf"),
], ids=["c-encoder", "nested", "numpy", "list", "scalar", "integer-first"])
def test_dumps_refuses_nan_and_infinity_naming_the_key(doc, where, number, tmp_path):
    # JSON has no NaN or infinity; json.dumps would write the non-JSON tokens
    message = rf"^output {re.escape(where)}: {number} is not a finite number$"
    with pytest.raises(OutOfRange, match=message):
        io.dumps(doc)
    path = tmp_path / "out.json"
    with pytest.raises(OutOfRange):
        io.dump(doc, path)
    assert not path.exists()


def test_dumps_of_every_cli_document_is_json_indent_2_sorted(tmp_path, capsys, monkeypatch):
    # every document the CLI writes passes through io.dumps: record each one
    docs = []
    dumps = io.dumps

    def recorded(doc):
        docs.append(doc)
        return dumps(doc)

    monkeypatch.setattr(io, "dumps", recorded)
    model = tmp_path / "model.json"
    io.dump(io.loop_to_dict(circle_loop(n=256)), model)
    target = tmp_path / "target.json"
    flipped = CircleForm.from_function(lambda t: -np.sin(2.0 * t))
    io.dump(io.loop_to_dict(DecoratedLoop(LoopEmbedding.circle(), flipped)), target)
    ham = tmp_path / "ham.json"
    io.dump(io.hamiltonian_to_dict(PlanarHamiltonian.single((0.2, -0.1), 0.8, 0.4)), ham)
    assert cli.main(["intertwine", str(model), str(target), "--shift", "1"]) == 0
    assert cli.main(["flow", str(model), str(ham), "-T", "0.05", "--dt", "0.01",
                     "-o", str(tmp_path / "evolved.json")]) == 0
    assert cli.main(["verify", "--suite", "all", "--seed", "0"]) == 0
    capsys.readouterr()
    emitted = docs[3:]
    assert len(emitted[0]["samples"]) == 4096
    assert len(emitted[1]["samples"]) == 256
    assert [doc["schema"] for doc in emitted] == [io.SCHEMA] * 4
    assert "suites" in emitted[3]
    for doc in docs:
        assert dumps(doc) == json_layout(doc)


# ---------------------------------------------------------------- schema errors


def test_load_reports_parse_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema": "vortexloop/1", "samples": [[0, ')
    with pytest.raises(SchemaError, match="line 1, column"):
        io.load(path)


def test_load_missing_file(tmp_path):
    with pytest.raises(SchemaError):
        io.load(tmp_path / "absent.json")


def test_loop_from_dict_errors():
    good = io.loop_to_dict(circle_loop())

    with pytest.raises(SchemaError, match="missing required field 'samples'"):
        io.loop_from_dict({"schema": io.SCHEMA, "beta": good["beta"]})

    with pytest.raises(SchemaError, match="unsupported schema"):
        io.loop_from_dict({**good, "schema": "vortexloop/99"})

    with pytest.raises(SchemaError, match=r"loop\.samples"):
        io.loop_from_dict({**good, "samples": [[0.0, 1.0, 2.0]] * 32})

    bad = [list(p) for p in good["samples"]]
    bad[3][0] = float("nan")
    with pytest.raises(SchemaError, match="finite"):
        io.loop_from_dict({**good, "samples": bad})
    bad[3][0] = 10**400
    with pytest.raises(SchemaError, match=r"loop\.samples: values must be finite"):
        io.loop_from_dict({**good, "samples": bad})
    bad[3][0] = True
    with pytest.raises(SchemaError, match=r"loop\.samples: .*boolean"):
        io.loop_from_dict({**good, "samples": bad})
    # numpy parses numeric strings, but a JSON string is not a number
    bad[3][0] = "1.5"
    with pytest.raises(SchemaError, match=r"loop\.samples: .*string"):
        io.loop_from_dict({**good, "samples": bad})

    with pytest.raises(SchemaError, match="missing required field 'beta'"):
        io.loop_from_dict({"schema": io.SCHEMA, "samples": good["samples"]})


def test_form_from_dict_errors():
    with pytest.raises(SchemaError, match="'trig' or 'samples'"):
        io.form_from_dict({"kind": "wavelet"})
    with pytest.raises(SchemaError, match="at least 8"):
        io.form_from_dict({"kind": "samples", "values": [1.0, -1.0]})
    with pytest.raises(SchemaError, match=r"coeffs\.a0"):
        io.form_from_dict({"kind": "trig", "coeffs": {"a0": "big", "cos": [], "sin": []}})
    with pytest.raises(SchemaError, match="list of numbers"):
        io.form_from_dict({"kind": "trig", "coeffs": {"cos": "nope", "sin": []}})
    with pytest.raises(SchemaError, match=r"coeffs\.a0"):
        io.form_from_dict({"kind": "trig", "coeffs": {"a0": float("nan")}})
    # a JSON integer too large for a float
    with pytest.raises(SchemaError, match=r"coeffs\.a0: must be a finite number"):
        io.form_from_dict({"kind": "trig", "coeffs": {"a0": 10**400}})
    # JSON booleans are not numbers
    with pytest.raises(SchemaError, match=r"coeffs\.a0: must be a finite number"):
        io.form_from_dict({"kind": "trig", "coeffs": {"a0": True}})
    with pytest.raises(SchemaError, match=r"coeffs\.cos: .*boolean"):
        io.form_from_dict({"kind": "trig", "coeffs": {"cos": [0.5, True]}})
    # nor are numeric strings
    with pytest.raises(SchemaError, match=r"^beta\.coeffs\.cos: .*string$"):
        io.form_from_dict({"kind": "trig", "coeffs": {"cos": [0.5, "1.5"]}})
    with pytest.raises(SchemaError, match=r"^beta\.coeffs\.sin: .*string$"):
        io.form_from_dict({"kind": "trig", "coeffs": {"sin": [" 7 "]}})
    with pytest.raises(SchemaError, match=r"^beta\.values: .*string$"):
        io.form_from_dict({"kind": "samples", "values": [1.0, -1.0] * 3 + ["1.0", -1.0]})


def test_trig_coeffs_must_be_an_object():
    doc = io.loop_to_dict(circle_loop())
    doc["beta"] = {"kind": "trig", "coeffs": [0, 1]}
    with pytest.raises(SchemaError, match=r"loop\.beta\.coeffs: expected an object"):
        io.loop_from_dict(doc)


def test_hamiltonian_from_dict_errors():
    with pytest.raises(SchemaError, match="expected a list"):
        io.hamiltonian_from_dict({"bumps": "none"})
    with pytest.raises(SchemaError, match=r"^hamiltonian\.bumps\[0\]: expected an object, got int"):
        io.hamiltonian_from_dict({"bumps": [3]})
    with pytest.raises(SchemaError, match=r"bumps\[0\]\.sigma"):
        io.hamiltonian_from_dict(
            {"bumps": [{"center": [0.0, 0.0], "sigma": -1.0, "amplitude": 1.0}]})
    with pytest.raises(SchemaError, match=r"center"):
        io.hamiltonian_from_dict(
            {"bumps": [{"center": [0.0], "sigma": 1.0, "amplitude": 1.0}]})
    with pytest.raises(SchemaError, match=r"bumps\[0\]\.amplitude: must be a finite number"):
        io.hamiltonian_from_dict(
            {"bumps": [{"center": [0.0, 0.0], "sigma": 1.0, "amplitude": "two"}]})
    with pytest.raises(SchemaError, match=r"bumps\[0\]\.center: values must be finite"):
        io.hamiltonian_from_dict(
            {"bumps": [{"center": [10**400, 0.0], "sigma": 1.0, "amplitude": 1.0}]})
    with pytest.raises(SchemaError, match=r"bumps\[0\]\.sigma: must be a finite number"):
        io.hamiltonian_from_dict(
            {"bumps": [{"center": [0.0, 0.0], "sigma": True, "amplitude": 1.0}]})
    with pytest.raises(SchemaError, match=r"bumps\[0\]\.amplitude: must be a finite number"):
        io.hamiltonian_from_dict(
            {"bumps": [{"center": [0.0, 0.0], "sigma": 1.0, "amplitude": False}]})
    with pytest.raises(SchemaError, match=r"bumps\[0\]\.center: .*boolean"):
        io.hamiltonian_from_dict(
            {"bumps": [{"center": [0.0, True], "sigma": 1.0, "amplitude": 1.0}]})
    with pytest.raises(SchemaError, match=r"bumps\[0\]\.center: .*string"):
        io.hamiltonian_from_dict(
            {"bumps": [{"center": ["0.5", 0.0], "sigma": 1.0, "amplitude": 1.0}]})


@pytest.mark.parametrize("field, text", [
    ("sigma", "NaN"), ("sigma", "Infinity"), ("amplitude", "NaN"), ("amplitude", "-Infinity"),
    pytest.param("sigma", "9" * 401, id="sigma-401-digits"),
    pytest.param("amplitude", "9" * 401, id="amplitude-401-digits"),
])
def test_hamiltonian_rejects_non_finite_bump_numbers(tmp_path, field, text):
    # Python's json parser reads NaN, Infinity and integers of any length, so a
    # document can carry numbers no float holds
    bump = {"center": "[0.0, 0.0]", "sigma": "0.5", "amplitude": "1.0", field: text}
    path = tmp_path / "ham.json"
    path.write_text('{"bumps": [{%s}]}' % ", ".join(f'"{k}": {v}' for k, v in bump.items()))
    with pytest.raises(SchemaError, match=rf"bumps\[0\]\.{field}: must be"):
        io.hamiltonian_from_dict(io.load(path))


def _holding(field, bad):
    """(reader, document) with ``bad`` as one number of the list ``field``:
    the y of a loop sample, a density value, a trig coefficient or a bump
    centre's y."""
    loop = io.loop_to_dict(circle_loop())
    if field == "loop.samples":
        loop["samples"][3] = [loop["samples"][3][0], bad]
    elif field == "loop.beta.values":
        loop["beta"] = {"kind": "samples", "values": [1.0, -1.0, 2.0, bad, 1.0, -1.0, 2.0, -2.0]}
    elif field in ("loop.beta.coeffs.cos", "loop.beta.coeffs.sin"):
        coeffs = {"a0": 0.0, "cos": [0.3], "sin": [0.0, 1.0]}
        coeffs[field.rsplit(".", 1)[1]].append(bad)
        loop["beta"] = {"kind": "trig", "coeffs": coeffs}
    else:
        bump = {"center": [0.25, bad], "sigma": 1.0, "amplitude": 1.0}
        return io.hamiltonian_from_dict, {"schema": io.SCHEMA, "bumps": [bump]}
    return io.loop_from_dict, loop


@pytest.mark.parametrize("field", ["loop.samples", "loop.beta.values", "loop.beta.coeffs.cos",
                                   "loop.beta.coeffs.sin", "hamiltonian.bumps[0].center"])
@pytest.mark.parametrize("bad, message", [
    # numpy reads null as NaN, which is not finite
    pytest.param(None, "values must be finite", id="null"),
    pytest.param([1.0, 2.0], "expected {}", id="nested-list"),
    pytest.param({"x": 1.0}, "expected {}", id="object"),
    pytest.param([1.0], "expected {}", id="ragged-pair"),
])
def test_reader_refuses_a_number_that_is_not_a_json_number(field, bad, message):
    reader, doc = _holding(field, bad)
    shape = "a list of [x, y] pairs" if field == "loop.samples" else "a flat list of numbers"
    with pytest.raises(SchemaError, match=f"^{re.escape(field)}: "
                                          f"{re.escape(message.format(shape))}$"):
        reader(doc)


@pytest.mark.parametrize("bad", [None, [1.0], [[1.0, 2.0]], {"x": 1.0, "y": 2.0}, [1.0, [2.0]]],
                         ids=["null", "ragged-pair", "nested-list", "object", "pair-of-a-list"])
def test_reader_refuses_a_loop_sample_that_is_not_a_pair(bad):
    doc = io.loop_to_dict(circle_loop())
    doc["samples"][3] = bad
    with pytest.raises(SchemaError, match=r"^loop\.samples: expected a list of \[x, y\] pairs$"):
        io.loop_from_dict(doc)


def test_a_loop_sample_that_is_an_object_exits_2_with_one_error_line(tmp_path, capsys):
    doc = io.loop_to_dict(circle_loop())
    doc["samples"][3] = {"x": 1.0, "y": 0.0}
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["invariants", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: loop.samples: expected a list of [x, y] pairs\n"


# ---------------------------------------------------------------- rendering


def test_svg_overlay_structure():
    before = circle_loop()
    h = PlanarHamiltonian.single((0.2, 0.1), 0.8, 0.3)
    after = advect(before, h, 0.3, 0.01).loop
    svg = render.svg_overlay(before, after)
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 2
    k = before.zero_set.k + after.zero_set.k
    assert svg.count("<circle") == k
    assert render.svg_overlay(before, after) == svg


def test_flow_csv_series():
    loop = circle_loop()
    h = PlanarHamiltonian.single((0.2, 0.1), 0.8, 0.3)
    snapshots = []
    advect(loop, h, 0.3, 0.1, observer=lambda i, t, p: snapshots.append((i, t, p)))
    csv = render.flow_csv(loop, h, snapshots)
    lines = csv.strip().split("\n")
    assert lines[0] == "step,t,area,momentum,omega_1,omega_2,omega_3,omega_4"
    assert len(lines) == len(snapshots) + 1
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == 0.0
    assert float(first[2]) == pytest.approx(enclosed_area(loop.embedding), rel=1e-14)
    want_m = momentum_map_eval(loop.embedding, h, loop.decoration)
    assert float(first[3]) == pytest.approx(want_m, abs=1e-12)
    np.testing.assert_allclose([float(c) for c in first[4:]], loop.profile.omegas)


def test_flow_csv_momentum_is_the_momentum_map_at_every_snapshot():
    rng = np.random.default_rng(21)
    loop = samples.random_decorated_loop(rng, n=128)
    h = samples.random_hamiltonian(rng, samples.loop_bbox(loop.embedding))
    snapshots = []
    advect(loop, h, 0.05, 0.01, observer=lambda i, t, p: snapshots.append((i, t, p)))
    rows = render.flow_csv(loop, h, snapshots).strip().split("\n")[1:]
    assert len(rows) == len(snapshots) == 6
    for row, (_, _, pts) in zip(rows, snapshots):
        want = momentum_map_eval(LoopEmbedding(pts), h, loop.decoration)
        assert row.split(",")[3] == format(want, ".15g")


def test_flow_csv_momentum_that_overflows_is_an_error_naming_it():
    # the bump is far from the first snapshot and under the second, where
    # its values near 1e308 times the density overflow the period sum
    loop = circle_loop()
    h = PlanarHamiltonian.single((10.0, 10.0), 1.0, 1.5e308)
    pts = loop.embedding.samples
    snapshots = [(0, 0.0, pts), (1, 0.1, pts * 0.1 + 10.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert render.flow_csv(loop, h, snapshots[:1]).count("\n") == 2
        with pytest.raises(OutOfRange, match=r"^momentum: inf is not a finite number$"):
            render.flow_csv(loop, h, snapshots)


def test_flow_csv_rows_match_each_snapshot_across_blocks():
    # a block holds two snapshots of this size, so six snapshots take three;
    # every row is what the single-snapshot routines give, bit for bit
    n = render._BLOCK_POINTS // 2
    loop = DecoratedLoop(LoopEmbedding.circle(n=n), samples.standard_form("sin2t"))
    h = PlanarHamiltonian.single((0.3, 0.2), 0.5, 0.4)
    snapshots = []
    advect(loop, h, 0.05, 0.01, observer=lambda i, t, p: snapshots.append((i, t, p)))
    rows = render.flow_csv(loop, h, snapshots).strip().split("\n")[1:]
    assert len(rows) == len(snapshots) == 6
    for row, (step, _, pts) in zip(rows, snapshots):
        cells = row.split(",")
        emb = LoopEmbedding(pts)
        assert int(cells[0]) == step
        assert cells[2] == format(enclosed_area(emb), ".15g")
        assert cells[3] == format(momentum_map_eval(emb, h, loop.decoration), ".15g")


# numbers whose text a formatter could get wrong: a negative zero, a subnormal
# neighbourhood, an overflow neighbourhood, nan and both infinities
_AWKWARD = np.array([-0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300, np.nan, np.inf, -np.inf,
                     123456.5, 0.1, -2.5e-7])


def test_svg_pieces_equal_per_number_formatting():
    rng = np.random.default_rng(8)
    pts = np.column_stack([rng.permutation(np.tile(_AWKWARD, 3)),
                           rng.permutation(np.tile(_AWKWARD, 3))])
    pts = np.vstack([pts, rng.normal(scale=300.0, size=(64, 2))])
    for probe in (pts, pts[:1], pts[:0]):
        assert render._markers(probe, "#dc143c") == reference_markers(probe, "#dc143c")
    for probe in (pts, pts[:1]):
        assert render._polyline(probe, 'fill="none"') == reference_polyline(probe, 'fill="none"')


def test_svg_overlay_equals_per_number_formatting(monkeypatch):
    rng = np.random.default_rng(9)
    before = samples.random_decorated_loop(rng, n=256)
    h = samples.random_hamiltonian(rng, samples.loop_bbox(before.embedding))
    after = advect(before, h, 0.1, 1e-3).loop
    svg = render.svg_overlay(before, after)
    monkeypatch.setattr(render, "_polyline", reference_polyline)
    monkeypatch.setattr(render, "_markers", reference_markers)
    assert svg == render.svg_overlay(before, after)


def test_flow_csv_equals_per_number_formatting():
    rng = np.random.default_rng(10)
    loop = samples.random_decorated_loop(rng, n=128)
    h = samples.random_hamiltonian(rng, samples.loop_bbox(loop.embedding))
    snapshots = []
    advect(loop, h, 0.01, 1e-3, observer=lambda i, t, p: snapshots.append((i, t, p)))
    pts = snapshots[-1][2]
    # awkward times, and points whose area and momentum come out -0.0, tiny or
    # huge, and whose area comes out infinite or nan
    snapshots += [(len(snapshots) + j, float(t), p) for j, (t, p) in enumerate(zip(
        _AWKWARD,
        [pts * 0.0 * -1.0, pts * 0.0, pts * 1e-152, pts * 1e-160, pts * 1e150, pts * 1e160,
         pts, pts, pts, pts, pts, pts]))]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        csv = render.flow_csv(loop, h, snapshots)
        assert csv == reference_flow_csv(loop, h, snapshots)
    cells = {cell for row in csv.splitlines()[1:] for cell in row.split(",")}
    assert {"-0", "1e-300", "1e+300", "nan"} <= cells
    # a momentum that is nan is an error, not a cell
    nan = np.where(np.arange(pts.size).reshape(pts.shape) == 7, np.nan, pts)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        with pytest.raises(OutOfRange, match="^momentum: nan is not a finite number$"):
            render.flow_csv(loop, h, snapshots + [(len(snapshots), 1.0, nan)])


def test_snapshot_steps_keeps_ends():
    kept = render.snapshot_steps(1000)
    assert len(kept) <= 256
    assert {0, 999} <= kept
    assert render.snapshot_steps(5) == set(range(5))

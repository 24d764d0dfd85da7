"""JSON round trips, schema enforcement, and string rendering."""

import numpy as np
import pytest

from vortexloop import io, render, samples
from vortexloop.circle_forms import TWO_PI, CircleDiffeo, CircleForm
from vortexloop.errors import SchemaError
from vortexloop.flow import PlanarBump, PlanarHamiltonian, advect
from vortexloop.loops import DecoratedLoop, LoopEmbedding, enclosed_area
from vortexloop.symplectic import momentum_map_eval


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


def test_trig_coeffs_must_be_an_object():
    doc = io.loop_to_dict(circle_loop())
    doc["beta"] = {"kind": "trig", "coeffs": [0, 1]}
    with pytest.raises(SchemaError, match=r"loop\.beta\.coeffs: expected an object"):
        io.loop_from_dict(doc)


def test_hamiltonian_from_dict_errors():
    with pytest.raises(SchemaError, match="expected a list"):
        io.hamiltonian_from_dict({"bumps": "none"})
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


def test_thin_snapshots_keeps_ends():
    snaps = [(i, 0.1 * i, None) for i in range(1000)]
    thinned = render.thin_snapshots(snaps, limit=100)
    assert len(thinned) <= 100
    assert thinned[0] == snaps[0]
    assert thinned[-1] == snaps[-1]
    short = render.thin_snapshots(snaps[:5], limit=100)
    assert short == snaps[:5]

"""The benchmark's tracer wraps package attributes by name; a rename or a
removal of one of them must fail here, not only in the benchmark run."""

import importlib.util
from pathlib import Path

import vortexloop
import vortexloop.cli

TRACE_PY = Path(__file__).resolve().parents[1] / "benchmark" / "trace.py"


def _attributes():
    """Every attribute of the traced modules and of the classes they define."""
    modules = [vortexloop.cli, vortexloop.io, vortexloop.loops, vortexloop.circle_forms,
               vortexloop.flow, vortexloop.render]
    owners = modules + [v for m in modules for v in vars(m).values()
                        if isinstance(v, type) and v.__module__ == m.__name__]
    return {(id(owner), name): value for owner in owners for name, value in vars(owner).items()}


def test_tracer_installs_and_restores_every_attribute():
    spec = importlib.util.spec_from_file_location("benchmark_trace", TRACE_PY)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    before = _attributes()
    tracer = trace.Tracer()
    try:
        tracer.install(vortexloop)
        wrapped = [key for key, value in _attributes().items() if value is not before.get(key)]
    finally:
        tracer.uninstall()
    assert wrapped
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_same_bits_names_each_moved_key_with_its_size(monkeypatch):
    # the tool's comparison of two runs' outcomes, on an intertwine document
    # with one map sample moved, a CSV with one cell moved, and text that
    # differs only in how a number is written
    tools = Path(__file__).resolve().parents[1] / "tools"
    monkeypatch.syspath_prepend(str(tools))
    spec = importlib.util.spec_from_file_location("same_bits", tools / "same_bits.py")
    same_bits = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_bits)
    doc = '{"shift": 1, "residual": 1e-12, "samples": [0.5, 1.5, 2.5]}'
    moved = '{"shift": 1, "residual": 1e-12, "samples": [0.5, 1.5000000000030002, 2.5]}'
    csv_a, csv_b = "step,t,area\n0,0.0,3.0\n1,0.001,3.0\n", "step,t,area\n0,0.0,3.0\n1,0.001,3.5\n"
    parts = same_bits._compare((0, doc, "", {"out.csv": csv_a.encode()}),
                               (4, moved, "", {"out.csv": csv_b.encode()}))
    assert parts["exit"] == [0, 4]
    assert parts["stdout"].keys() == {"samples"}
    samples = parts["stdout"]["samples"]
    assert samples["count"] == 1
    assert 3.0e-12 <= samples["max_abs"] <= 3.1e-12 and samples["max_rel"] < 2.1e-12
    assert parts["file out.csv"] == {"area": {"count": 1, "max_abs": 0.5, "max_rel": 0.5 / 3.5}}
    assert same_bits._compare((0, doc, "", {}), (0, doc.replace("0.5", "5e-1"), "", {})) == {
        "stdout": "text differs"}
    assert same_bits._compare((0, doc, "", {}), (0, doc, "", {})) == {}

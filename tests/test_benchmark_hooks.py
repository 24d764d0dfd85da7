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

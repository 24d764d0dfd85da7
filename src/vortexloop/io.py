"""JSON serialization for densities, loops, Hamiltonians, and reports.

All documents carry an explicit schema tag so fixtures stay stable across
refactors.  Parse failures raise SchemaError naming the offending field; the
CLI maps those to exit code 2.
"""

from __future__ import annotations

import json

import numpy as np

from .circle_forms import DEFAULT_MORSE_TOL, CircleDiffeo, CircleForm
from .errors import SchemaError
from .flow import FlowReport, PlanarBump, PlanarHamiltonian
from .loops import DecoratedLoop

SCHEMA = "vortexloop/1"


def _require(mapping, key, where):
    if not isinstance(mapping, dict):
        raise SchemaError(f"{where}: expected an object, got {type(mapping).__name__}")
    if key not in mapping:
        raise SchemaError(f"{where}: missing required field {key!r}")
    return mapping[key]


def _float_list(value, where):
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: expected a list of numbers") from exc
    if arr.ndim != 1:
        raise SchemaError(f"{where}: expected a flat list of numbers")
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{where}: values must be finite")
    return arr


def _check_schema(doc, where):
    tag = doc.get("schema") if isinstance(doc, dict) else None
    if tag is not None and tag != SCHEMA:
        raise SchemaError(f"{where}: unsupported schema {tag!r}; this build reads {SCHEMA!r}")


def form_to_dict(form: CircleForm) -> dict:
    if form.kind == "trig":
        a0, cos, sin = form.trig_coefficients
        return {"kind": "trig", "coeffs": {"a0": a0, "cos": list(cos), "sin": list(sin)}}
    return {"kind": "samples", "values": [float(v) for v in form.sample_values]}


def form_from_dict(doc, where: str = "beta") -> CircleForm:
    kind = _require(doc, "kind", where)
    if kind == "trig":
        coeffs = _require(doc, "coeffs", where)
        a0 = coeffs.get("a0", 0.0)
        if not isinstance(a0, (int, float)):
            raise SchemaError(f"{where}.coeffs.a0: expected a number")
        cos = _float_list(coeffs.get("cos", []), f"{where}.coeffs.cos")
        sin = _float_list(coeffs.get("sin", []), f"{where}.coeffs.sin")
        return CircleForm.trig(a0=float(a0), cos=tuple(cos), sin=tuple(sin))
    if kind == "samples":
        values = _float_list(_require(doc, "values", where), f"{where}.values")
        if values.size < 8:
            raise SchemaError(f"{where}.values: need at least 8 samples")
        return CircleForm.from_samples(values)
    raise SchemaError(f"{where}.kind: expected 'trig' or 'samples', got {kind!r}")


def loop_to_dict(loop: DecoratedLoop) -> dict:
    return {
        "schema": SCHEMA,
        "samples": [[float(x), float(y)] for x, y in loop.embedding.samples],
        "beta": form_to_dict(loop.decoration),
    }


def loop_from_dict(doc, *, auto_orient: bool = False,
                   morse_tol: float = DEFAULT_MORSE_TOL) -> DecoratedLoop:
    _check_schema(doc, "loop")
    raw = _require(doc, "samples", "loop")
    try:
        samples = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError("loop.samples: expected a list of [x, y] pairs") from exc
    if samples.ndim != 2 or samples.shape[1] != 2:
        raise SchemaError("loop.samples: expected a list of [x, y] pairs")
    if not np.all(np.isfinite(samples)):
        raise SchemaError("loop.samples: values must be finite")
    form = form_from_dict(_require(doc, "beta", "loop"), "loop.beta")
    return DecoratedLoop.build(samples, form, auto_orient=auto_orient, morse_tol=morse_tol)


def hamiltonian_to_dict(h: PlanarHamiltonian) -> dict:
    return {
        "schema": SCHEMA,
        "bumps": [
            {"center": [b.center[0], b.center[1]], "sigma": b.sigma, "amplitude": b.amplitude}
            for b in h.bumps
        ],
    }


def hamiltonian_from_dict(doc) -> PlanarHamiltonian:
    _check_schema(doc, "hamiltonian")
    raw = _require(doc, "bumps", "hamiltonian")
    if not isinstance(raw, list):
        raise SchemaError("hamiltonian.bumps: expected a list")
    bumps = []
    for i, entry in enumerate(raw):
        where = f"hamiltonian.bumps[{i}]"
        center = _float_list(_require(entry, "center", where), f"{where}.center")
        if center.size != 2:
            raise SchemaError(f"{where}.center: expected [x, y]")
        sigma = _require(entry, "sigma", where)
        amplitude = _require(entry, "amplitude", where)
        if not isinstance(sigma, (int, float)) or not isinstance(amplitude, (int, float)):
            raise SchemaError(f"{where}: sigma and amplitude must be numbers")
        if sigma <= 0.0:
            raise SchemaError(f"{where}.sigma: must be positive")
        bumps.append(PlanarBump((float(center[0]), float(center[1])),
                                float(sigma), float(amplitude)))
    return PlanarHamiltonian(bumps)


def diffeo_to_dict(diffeo: CircleDiffeo) -> dict:
    return {"schema": SCHEMA, "samples": [float(v) for v in diffeo.samples]}


def diffeo_from_dict(doc) -> CircleDiffeo:
    _check_schema(doc, "diffeo")
    samples = _float_list(_require(doc, "samples", "diffeo"), "diffeo.samples")
    return CircleDiffeo(samples)


def report_to_dict(report: FlowReport) -> dict:
    return {
        "schema": SCHEMA,
        "area_drift": report.area_drift,
        "profile_drift": report.profile_drift,
        "hamiltonian_drift": report.hamiltonian_drift,
        "steps": report.steps,
        "max_local_error": report.max_local_error,
    }


def dump(doc, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load(path):
    """Parse a JSON document, converting parse errors to SchemaError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except OSError as exc:
        raise SchemaError(f"{path}: {exc.strerror or exc}") from exc

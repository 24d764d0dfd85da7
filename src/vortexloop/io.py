"""JSON serialization for densities, loops, Hamiltonians, and reports.

All documents carry an explicit schema tag so fixtures stay stable across
refactors.  Parse failures raise SchemaError naming the offending field; the
CLI maps those to exit code 2.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .circle_forms import DEFAULT_MORSE_TOL, CircleDiffeo, CircleForm
from .errors import OutOfRange, SchemaError
from .flow import FlowReport, PlanarBump, PlanarHamiltonian
from .loops import DecoratedLoop

SCHEMA = "vortexloop/1"


def _require(mapping, key, where):
    if not isinstance(mapping, dict):
        raise SchemaError(f"{where}: expected an object, got {type(mapping).__name__}")
    if key not in mapping:
        raise SchemaError(f"{where}: missing required field {key!r}")
    return mapping[key]


def _finite_number(value, where):
    """A JSON number as a finite float; anything else raises SchemaError naming ``where``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = np.inf
        if np.isfinite(number):
            return number
    raise SchemaError(f"{where}: must be a finite number")


def _float_list(value, where, pairs=False):
    """A JSON list of finite numbers, or with ``pairs`` a list of [x, y] pairs, as floats.

    The structure and the element types are checked on one flat list, which
    numpy then converts in one call with no shape to discover.  Anything else,
    booleans, strings, lists, objects, null and integers beyond the float
    range included, raises SchemaError naming ``where``.
    """
    expected = "a list of [x, y] pairs" if pairs else "a flat list of numbers"
    if type(value) is not list:
        raise SchemaError(f"{where}: expected {expected}")
    flat = value
    if pairs:
        if set(map(type, value)) != {list} or set(map(len, value)) != {2}:
            raise SchemaError(f"{where}: expected {expected}")
        flat = list(itertools.chain.from_iterable(value))
    # numpy reads true and false as 1 and 0, and parses numeric strings
    kinds = set(map(type, flat))
    if bool in kinds:
        raise SchemaError(f"{where}: expected {expected}, got a boolean")
    if str in kinds:
        raise SchemaError(f"{where}: expected {expected}, got a string")
    if not kinds <= {int, float, type(None)}:  # null reads as NaN, refused below
        raise SchemaError(f"{where}: expected {expected}")
    try:
        arr = np.array(flat, dtype=float)
    except OverflowError as exc:
        raise SchemaError(f"{where}: values must be finite") from exc
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{where}: values must be finite")
    return arr.reshape(-1, 2) if pairs else arr


def _check_schema(doc, where):
    tag = doc.get("schema") if isinstance(doc, dict) else None
    if tag is not None and tag != SCHEMA:
        raise SchemaError(f"{where}: unsupported schema {tag!r}; this build reads {SCHEMA!r}")


def form_to_dict(form: CircleForm) -> dict:
    if form.kind == "trig":
        a0, cos, sin = form.trig_coefficients
        return {"kind": "trig", "coeffs": {"a0": a0, "cos": cos.tolist(), "sin": sin.tolist()}}
    return {"kind": "samples", "values": form.sample_values.tolist()}


def form_from_dict(doc, where: str = "beta") -> CircleForm:
    kind = _require(doc, "kind", where)
    if kind == "trig":
        coeffs = _require(doc, "coeffs", where)
        if not isinstance(coeffs, dict):
            raise SchemaError(f"{where}.coeffs: expected an object, got {type(coeffs).__name__}")
        a0 = _finite_number(coeffs.get("a0", 0.0), f"{where}.coeffs.a0")
        cos = _float_list(coeffs.get("cos", []), f"{where}.coeffs.cos")
        sin = _float_list(coeffs.get("sin", []), f"{where}.coeffs.sin")
        return CircleForm.trig(a0=a0, cos=cos, sin=sin)
    if kind == "samples":
        values = _float_list(_require(doc, "values", where), f"{where}.values")
        if values.size < 8:
            raise SchemaError(f"{where}.values: need at least 8 samples")
        return CircleForm.from_samples(values)
    raise SchemaError(f"{where}.kind: expected 'trig' or 'samples', got {kind!r}")


def loop_to_dict(loop: DecoratedLoop) -> dict:
    return {
        "schema": SCHEMA,
        "samples": loop.embedding.samples.tolist(),
        "beta": form_to_dict(loop.decoration),
    }


def loop_from_dict(doc, *, auto_orient: bool = False,
                   morse_tol: float = DEFAULT_MORSE_TOL) -> DecoratedLoop:
    _check_schema(doc, "loop")
    samples = _float_list(_require(doc, "samples", "loop"), "loop.samples", pairs=True)
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
        sigma = _finite_number(_require(entry, "sigma", where), f"{where}.sigma")
        amplitude = _finite_number(_require(entry, "amplitude", where), f"{where}.amplitude")
        if not sigma > 0.0:
            raise SchemaError(f"{where}.sigma: must be positive")
        bumps.append(PlanarBump((float(center[0]), float(center[1])), sigma, amplitude))
    return PlanarHamiltonian(bumps)


def diffeo_to_dict(diffeo: CircleDiffeo) -> dict:
    return {"schema": SCHEMA, "samples": diffeo.samples.tolist()}


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


# the values ``json`` writes without looking inside them
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _c_encoded(container, pad) -> str:
    """``container`` by the C encoder, keys sorted, items parted by "," and line break ``pad``."""
    return json.dumps(container, separators=("," + pad, ": "), sort_keys=True, allow_nan=False)


def _layout(value, level) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` nested at depth ``level``.

    Dicts with string keys and lists are laid out here.  One whose items are
    all scalars, and a list of non-empty lists of scalars such as a loop's
    [x, y] pairs, take one C-encoder call each, with the line break and
    indent of their items as its item separator (``indent`` would force the
    pure-Python encoder); any other is laid out item by item.  No encoded
    scalar holds a raw line break or ends in ``]``, so ``"],"`` and a line
    break there only part two inner lists.  Every other value goes to
    ``json.dumps`` itself.
    """
    outer = "\n" + "  " * level
    pad = outer + "  "
    kind = type(value)
    if (kind is list or (kind is dict and all(type(key) is str for key in value))) and value:
        kinds = set(map(type, value.values() if kind is dict else value))
        if kinds <= _SCALARS:
            text = _c_encoded(value, pad)
            return text[0] + pad + text[1:-1] + outer + text[-1]
        if kind is dict:
            return ("{" + ",".join(pad + json.encoder.encode_basestring_ascii(key) + ": "
                                   + _layout(value[key], level + 1) for key in sorted(value))
                    + outer + "}")
        if (kinds == {list} and all(value)
                and set(map(type, itertools.chain.from_iterable(value))) <= _SCALARS):
            inner = pad + "  "
            body = _c_encoded(value, inner)[2:-2]
            body = body.replace("]," + inner + "[", pad + "]," + pad + "[" + inner)
            return "[" + pad + "[" + inner + body + pad + "]" + outer + "]"
        return "[" + ",".join(pad + _layout(item, level + 1) for item in value) + outer + "]"
    if kind in _SCALARS:
        return json.dumps(value, allow_nan=False)
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False).replace("\n", outer)


def _non_finite(value, where):
    """The path from ``where`` to the first NaN or infinity in ``value``, keys
    sorted, with that number; None when there is none."""
    if isinstance(value, float):
        return None if np.isfinite(value) else (where, value)
    if isinstance(value, dict):
        items = ((f"{where}.{key}" if where else str(key), value[key]) for key in sorted(value))
    elif isinstance(value, (list, tuple)):
        items = ((f"{where}[{i}]", item) for i, item in enumerate(value))
    else:
        return None
    return next(filter(None, (_non_finite(item, path) for path, item in items)), None)


def dumps(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    JSON has no NaN or infinity, so a document holding one raises OutOfRange
    naming its key, as ``json.dumps(allow_nan=False)`` refuses it.
    """
    try:
        return _layout(doc, 0) + "\n"
    except ValueError as exc:
        found = _non_finite(doc, "")
        if found is None:
            raise
        where, number = found
        raise OutOfRange(f"output {where or 'document'}: {float(number)!r} is not a finite number"
                         ) from exc


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path``, converting OS errors to SchemaError naming the path."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SchemaError(f"{path}: {exc.strerror or exc}") from exc


def dump(doc, path) -> None:
    write_text(path, dumps(doc))


def load(path):
    """Parse a JSON document, converting parse errors to SchemaError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except OSError as exc:
        raise SchemaError(f"{path}: {exc.strerror or exc}") from exc

"""Command-line surface: invariants, equivalence, intertwining, flows, verify.

Exit codes: 0 success or positive verdict, 1 negative verdict or failed
verification suite, 2 parse or validation error in the inputs or an
unwritable output path, 3 degenerate zero structure, 4 profile mismatch,
5 flow failure.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys

import numpy as np

from . import io, render, verify
from .circle_forms import DEFAULT_MORSE_TOL, DEFAULT_PROFILE_REL_TOL
from .errors import (
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
from .loops import (DEFAULT_AREA_REL_TOL, _intertwining_residual, _orbit_match, intertwiner,
                    orbit_invariants)
# not called here: benchmark/trace.py wraps these six on this module by name
from .loops import (circular_match, enclosed_area, find_zeros, partial_vorticities,
                    pushforward_form, symmetry_step)
from .flow import _step_schedule, advect

_EPILOG = ("Angles are in radians, areas in squared length units, "
           "circulations are dimensionless.")

# exit code of each failure; the first entry whose classes match wins
_EXIT_CODES = (
    ((MorseViolation, OddZeroCount, AlternationViolation), 3),
    ((ProfileMismatch, NoSymmetry), 4),
    (StepRejected, 5),
    ((VortexLoopError, ValueError), 2),
)


def _emit(doc) -> None:
    sys.stdout.write(io.dumps(doc))


def _positive(text: str) -> float:
    value = float(text)
    if not 0.0 < value < np.inf:
        raise argparse.ArgumentTypeError("must be positive and finite")
    return value


def _default_seed() -> int:
    env = os.environ.get("VORTEXLOOP_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise SchemaError(f"VORTEXLOOP_SEED: expected an integer, got {env!r}")


def _check_writable(path) -> None:
    """Raise SchemaError naming ``path`` unless a file can be written there."""
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(folder):
        code = errno.ENOTDIR if os.path.exists(folder) else errno.ENOENT
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise SchemaError(f"{path}: {os.strerror(code)}")


def cmd_invariants(args) -> int:
    loop = io.loop_from_dict(io.load(args.loop), auto_orient=args.auto_orient,
                             morse_tol=args.morse_tol)
    inv = orbit_invariants(loop, rel_tol=args.rel_tol)
    _emit({
        "schema": io.SCHEMA,
        "area": inv.area,
        "omegas": inv.omegas.tolist(),
        "total": float(inv.total),
        "k": inv.k,
        "ell": inv.step,
    })
    return 0


def cmd_equiv(args) -> int:
    first = io.loop_from_dict(io.load(args.first), auto_orient=args.auto_orient)
    second = io.loop_from_dict(io.load(args.second), auto_orient=args.auto_orient)
    equivalent, shifts, delta = _orbit_match(first, second, area_rel_tol=args.area_tol,
                                             profile_rel_tol=args.rel_tol)
    _emit({
        "schema": io.SCHEMA,
        "equivalent": equivalent,
        "shifts": shifts,
        "area_delta": delta,
    })
    return 0 if equivalent else 1


def cmd_intertwine(args) -> int:
    model = io.loop_from_dict(io.load(args.model), auto_orient=args.auto_orient)
    target = io.loop_from_dict(io.load(args.target), auto_orient=args.auto_orient)
    psi = intertwiner(model, target, args.shift, rel_tol=args.rel_tol)
    residual = _intertwining_residual(model.decoration, target.decoration, psi)
    doc = {"schema": io.SCHEMA, "shift": args.shift % model.profile.k, "residual": residual}
    # every document is encoded before one is written, so a number that is
    # not finite leaves no file written
    if args.output:
        written = io.dumps(io.diffeo_to_dict(psi))
    else:
        doc["samples"] = psi.samples.tolist()
    text = io.dumps(doc)
    if args.output:
        io.write_text(args.output, written)
    sys.stdout.write(text)
    return 0


def cmd_flow(args) -> int:
    loop = io.loop_from_dict(io.load(args.loop), auto_orient=args.auto_orient)
    h = io.hamiltonian_from_dict(io.load(args.hamiltonian))
    if args.dt > args.duration:
        raise SchemaError("--dt must not exceed -T")
    # fail before advecting, so a bad path leaves no output file behind
    for path in (args.output, args.emit_csv, args.emit_svg):
        if path:
            _check_writable(path)

    snapshots = []
    observer = None
    if args.emit_csv:
        # the kept steps are chosen before advecting, so memory does not grow with T / dt
        keep = render.snapshot_steps(len(_step_schedule(args.duration, args.dt)) + 1)
        def observer(step, t, pts):
            if step in keep:
                snapshots.append((step, t, pts))
    try:
        report = advect(loop, h, args.duration, args.dt, args.scheme, observer=observer)
    except ValidationFailed as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 5

    # every document is made before one is written, so a number that is not
    # finite leaves no file written
    written = io.dumps(io.loop_to_dict(report.loop)) if args.output else None
    text = io.dumps(io.report_to_dict(report))
    csv = render.flow_csv(loop, h, snapshots) if args.emit_csv else None
    if args.output:
        io.write_text(args.output, written)
    if args.emit_csv:
        io.write_text(args.emit_csv, csv)
    if args.emit_svg:
        io.write_text(args.emit_svg, render.svg_overlay(loop, report.loop))
    sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    report = verify.run(args.suite, seed)
    _emit(report)
    return 0 if report["passed"] else 1


def _add_auto_orient(p) -> None:
    p.add_argument("--auto-orient", action="store_true",
                   help="reverse negatively oriented inputs instead of rejecting them")


def _add_loop_options(p) -> None:
    _add_auto_orient(p)
    p.add_argument("--rel-tol", type=_positive, default=DEFAULT_PROFILE_REL_TOL,
                   help="relative tolerance for profile comparisons (default %(default)g)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; ``main`` dispatches on the command name."""
    parser = argparse.ArgumentParser(prog="vortexloop",
                                     description="Invariants, equivalence, and flows "
                                                 "of decorated plane loops.",
                                     epilog=_EPILOG)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="orbit invariants of one decorated loop",
                       epilog=_EPILOG)
    p.add_argument("loop", help="decorated loop JSON file")
    p.add_argument("--morse-tol", type=_positive, default=DEFAULT_MORSE_TOL,
                   help="relative floor for density derivatives at zeros (default %(default)g)")
    _add_loop_options(p)

    p = sub.add_parser("equiv", help="test two loops for orbit equivalence",
                       epilog=_EPILOG)
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--area-tol", type=_positive, default=DEFAULT_AREA_REL_TOL,
                   help="relative tolerance for area agreement (default %(default)g)")
    _add_loop_options(p)

    p = sub.add_parser("intertwine", help="construct the reparametrization matching "
                                          "two loops' densities", epilog=_EPILOG)
    p.add_argument("model")
    p.add_argument("target")
    p.add_argument("--shift", type=int, default=0,
                   help="cyclic shift aligning the two profiles (default 0)")
    p.add_argument("-o", "--output", help="write the circle map samples to this file")
    _add_loop_options(p)

    p = sub.add_parser("flow", help="advect a loop along a bump Hamiltonian",
                       epilog=_EPILOG)
    p.add_argument("loop")
    p.add_argument("hamiltonian")
    p.add_argument("-T", "--duration", type=_positive, required=True)
    p.add_argument("--dt", type=_positive, required=True)
    p.add_argument("--scheme", choices=("rk4", "implicit-midpoint"), default="rk4")
    p.add_argument("-o", "--output", help="write the evolved loop to this file")
    p.add_argument("--emit-csv", help="write per-step invariants to this file")
    p.add_argument("--emit-svg", help="write an overlay figure to this file")
    _add_auto_orient(p)

    p = sub.add_parser("verify", help="run the property suites", epilog=_EPILOG)
    p.add_argument("--suite", choices=("forms", "symplectic", "flow", "all"),
                   default="all")
    p.add_argument("--seed", type=int, default=None,
                   help="suite seed (default: VORTEXLOOP_SEED or 0)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up at call time, so a replaced ``cmd_*`` takes effect
        return globals()[f"cmd_{args.command}"](args)
    except (VortexLoopError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())

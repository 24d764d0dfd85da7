"""SVG and CSV output for flow experiments.

Pure string rendering of polylines and markers; nothing interactive.  Output
is deterministic for a given input.
"""

from __future__ import annotations

import numpy as np

from .loops import DecoratedLoop, _spline_area
from .quadrature import periodic_spline
from .symplectic import _against

_STYLE_BEFORE = 'fill="none" stroke="#4682b4" stroke-width="2"'
_STYLE_AFTER = 'fill="none" stroke="#dc143c" stroke-width="2" stroke-dasharray="6 3"'


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def _polyline(points, style: str) -> str:
    closed = np.vstack([points, points[:1]])
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in closed)
    return f'<polyline points="{coords}" {style} />'


def _markers(points, color: str) -> str:
    return "".join(
        f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="{color}" stroke="white" />'
        for x, y in points)


def svg_overlay(before: DecoratedLoop, after: DecoratedLoop, size: int = 640) -> str:
    """Overlay of the two curves with their zero images marked."""
    pts = np.vstack([before.embedding.samples, after.embedding.samples])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-9))
    pad = 0.08 * span
    scale = size / (span + 2.0 * pad)

    def to_px(arr):
        out = (np.asarray(arr) - lo + pad) * scale
        out[:, 1] = size - out[:, 1]  # svg y axis points down
        return out

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white" />',
        _polyline(to_px(before.embedding.samples), _STYLE_BEFORE),
        _polyline(to_px(after.embedding.samples), _STYLE_AFTER),
        _markers(to_px(before.embedding.eval(before.zero_set.zeros)), "#4682b4"),
        _markers(to_px(after.embedding.eval(after.zero_set.zeros)), "#dc143c"),
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def flow_csv(loop: DecoratedLoop, h, snapshots) -> str:
    """Per-step invariant series: step, time, area, momentum, omegas.

    ``snapshots`` is a list of (step, time, points) triples as recorded by the
    advect observer.  Partial vorticities are constants of the motion by
    construction, so each row repeats the input profile.
    """
    omegas = loop.profile.omegas
    header = "step,t,area,momentum," + ",".join(f"omega_{i+1}" for i in range(omegas.size))
    rows = [header]
    # h per snapshot: on all snapshots at once it would hold every bump term of every point
    momenta = _against([h(pts) for _, _, pts in snapshots], loop.decoration)
    for (step, t, pts), momentum in zip(snapshots, momenta.tolist()):
        # the loop area routine, without re-validating every snapshot
        area = _spline_area(periodic_spline(pts))
        cells = [str(step), format(t, ".12g"), format(area, ".15g"), format(momentum, ".15g")]
        cells.extend(format(w, ".15g") for w in omegas)
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


def thin_snapshots(snapshots, limit: int = 256):
    """Keep at most ``limit`` evenly spaced snapshots, always keeping the ends."""
    if len(snapshots) <= limit:
        return list(snapshots)
    idx = np.unique(np.linspace(0, len(snapshots) - 1, limit).round().astype(int))
    return [snapshots[i] for i in idx]

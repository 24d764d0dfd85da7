"""SVG and CSV output for flow experiments.

Pure string rendering of polylines and markers; nothing interactive.  Output
is deterministic for a given input.
"""

from __future__ import annotations

import numpy as np

from .loops import DecoratedLoop, _spline_area
from .symplectic import _against

_STYLE_BEFORE = 'fill="none" stroke="#4682b4" stroke-width="2"'
_STYLE_AFTER = 'fill="none" stroke="#dc143c" stroke-width="2" stroke-dasharray="6 3"'
# sample points per block of snapshots in ``flow_csv``; a block bounds the bump
# terms of ``h`` and the area spectrum, which peak near 0.5 MB at 4096 points
_BLOCK_POINTS = 4096


def _fill(template: str, points, sep: str = "") -> str:
    """``template``, which takes one (x, y) pair as two ``%.6g``, once per row of
    the (M, 2) ``points``, joined by ``sep`` and formatted by one ``%``;
    ``"%.6g" % x`` is ``format(x, ".6g")`` for every float, nan, inf and -0.0
    included."""
    pairs = np.asarray(points, dtype=float)
    return sep.join([template] * len(pairs)) % tuple(pairs.ravel().tolist())


def _polyline(points, style: str) -> str:
    closed = np.vstack([points, points[:1]])
    coords = _fill("%.6g,%.6g", closed, " ")
    return f'<polyline points="{coords}" {style} />'


def _markers(points, color: str) -> str:
    return _fill(f'<circle cx="%.6g" cy="%.6g" r="4" fill="{color}" stroke="white" />', points)


def svg_overlay(before: DecoratedLoop, after: DecoratedLoop) -> str:
    """Overlay of the two curves with their zero images marked, 640 pixels square."""
    size = 640
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
    # one block of stacked snapshots at a time: h and the loop area routine
    # (without re-validating) each run once per block
    momenta, areas = [], []
    per_block = max(1, _BLOCK_POINTS // loop.embedding.size)  # advect keeps the n points
    for lo in range(0, len(snapshots), per_block):
        block = np.stack([pts for _, _, pts in snapshots[lo:lo + per_block]])
        momenta.extend(_against(h(block), loop.decoration, "momentum").tolist())
        areas.extend(_spline_area(block).tolist())
    # the omega cells are the same in every row
    profile = "".join("," + format(w, ".15g") for w in omegas)
    for (step, t, _), momentum, area in zip(snapshots, momenta, areas):
        rows.append("%d,%.12g,%.15g,%.15g" % (step, t, area, momentum) + profile)
    return "\n".join(rows) + "\n"


def snapshot_steps(count: int) -> set[int]:
    """Which of ``count`` observer calls the flow CSV keeps: at most 256, evenly
    spaced, both ends included, and every one when there are at most 256."""
    return set(np.linspace(0, count - 1, 256).round().astype(int).tolist())

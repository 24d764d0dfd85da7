"""Spans around the package's layers, recorded from outside the package.

For the length of a traced phase, timing wrappers replace the module
attributes that callers look functions up by (``cmd_invariants`` calls
``vortexloop.cli.find_zeros``, ``advect`` calls ``vortexloop.flow.enclosed_area``)
and a few methods on the package's classes.  Each call becomes one span:
``[name, start, end, parent, op, work, tag, error, out]``, where ``parent`` is
the index of the enclosing span (-1 for none), ``op`` the benchmark op id,
``work`` the number of points the call was given, ``tag`` a size or degree
bucket, ``error`` the name of the exception it raised and ``out`` a count read
from its result.  Spans stay in memory and are written out after the run.
Self time is a span's duration minus its direct children's.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np

_perf = time.perf_counter

NAME, START, END, PARENT, OP, WORK, TAG, ERROR, OUT = range(9)


def _points(i):
    return lambda args: int(np.size(args[i]))


def _pairs(i):
    return lambda args: int(np.size(args[i])) // 2


def _degree_bucket(args):
    form = args[0]
    if form.kind == "samples":
        return "samples"
    degree = form.degree
    return "deg3" if degree <= 3 else "deg25" if degree <= 25 else "deg100"


def _loop_size(args):
    return f"n{np.shape(args[1])[0]}"


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, work=None, tag=None, out=None):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                   work(args) if work else 0, tag(args) if tag else None, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = _perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = _perf()
                stack.pop()
            if out is not None:
                rec[OUT] = out(result)
            return result

        return traced

    def _patch(self, owner, attr, name, **hooks):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, **hooks))

    def install(self, vl):
        """Wrap the layers of the imported package ``vl``."""
        cli, io, loops, cf, flow, render = (vl.cli, vl.io, vl.loops, vl.circle_forms,
                                            vl.flow, vl.render)
        zeros = dict(tag=_degree_bucket, out=lambda r: r.k)
        self._patch(cli, "main", "cli.main")
        for attr in ("load", "dumps", "dump", "loop_from_dict", "hamiltonian_from_dict"):
            self._patch(io, attr, f"io.{attr}")
        for owner in (cli, loops):
            self._patch(owner, "find_zeros", "circle_forms.find_zeros", **zeros)
            for attr in ("partial_vorticities", "symmetry_step"):
                self._patch(owner, attr, f"circle_forms.{attr}")
            for attr in ("circular_match", "enclosed_area"):
                self._patch(owner, attr, f"loops.{attr}")
        for attr in ("intertwiner", "pushforward_form"):
            self._patch(cli, attr, f"loops.{attr}")
        self._patch(cli, "advect", "flow.advect", out=lambda r: r.steps)
        self._patch(loops, "_transport", "circle_forms._transport")
        self._patch(cf, "_invert_batch", "circle_forms._invert_batch", work=_points(4))
        self._patch(flow, "enclosed_area", "loops.enclosed_area")
        self._patch(flow, "orbit_invariants", "loops.orbit_invariants")
        self._patch(flow, "momentum_map_eval", "symplectic.momentum_map_eval")
        for attr in ("flow_csv", "svg_overlay"):
            self._patch(render, attr, f"render.{attr}")
        self._patch(cf.CircleForm, "__call__", "circle_forms.eval", work=_points(1))
        self._patch(cf.CircleForm, "derivative", "circle_forms.derivative", work=_points(1))
        self._patch(cf.CircleForm, "antiderivative", "circle_forms.antiderivative",
                    work=_points(1))
        self._patch(cf.CircleDiffeo, "inverse", "circle_forms.CircleDiffeo.inverse")
        self._patch(flow.PlanarHamiltonian, "gradient", "flow.gradient", work=_pairs(1))
        self._patch(loops.LoopEmbedding, "__init__", "loops.LoopEmbedding", tag=_loop_size)
        self._patch(loops.DecoratedLoop, "__init__", "loops.DecoratedLoop")

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _under(spans, i, name):
    """Whether span ``i`` has an ancestor called ``name``."""
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(spans, n_ops):
    """Per-layer metrics of a traced phase of ``n_ops`` ops (per op unless a count)."""
    total, self_time = {}, {}
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    for i, rec in enumerate(spans):
        dur = rec[END] - rec[START]
        total[rec[NAME]] = total.get(rec[NAME], 0.0) + dur
        self_time[rec[NAME]] = self_time.get(rec[NAME], 0.0) + dur - child[i]

    def per_op(table, name):
        return table.get(name, 0.0) / n_ops

    def mean_call(name, tag):
        durs = [r[END] - r[START] for r in spans if r[NAME] == name and r[TAG] == tag]
        return sum(durs) / len(durs) if durs else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    steps = sum(r[OUT] for r in spans if r[NAME] == "flow.advect" and r[OUT] is not None)
    grads = [r for i, r in enumerate(spans)
             if r[NAME] == "flow.gradient" and _under(spans, i, "flow.advect")]
    batches = [r for r in spans if r[NAME] == "circle_forms._invert_batch"]
    batch_anti = [r for i, r in enumerate(spans) if r[NAME] == "circle_forms.antiderivative"
                  and _under(spans, i, "circle_forms._invert_batch")]
    zero_calls = [r for r in spans if r[NAME] == "circle_forms.find_zeros"]
    zero_evals = sum(r[WORK] for i, r in enumerate(spans)
                     if r[NAME] in ("circle_forms.eval", "circle_forms.derivative")
                     and _under(spans, i, "circle_forms.find_zeros"))
    zeros_found = sum(r[OUT] for r in zero_calls if r[OUT] is not None)

    out = {
        "flow.field_calls_per_step": (ratio(len(grads), steps), "count"),
        "flow.field_points_per_step": (ratio(sum(r[WORK] for r in grads), steps), "count"),
        "flow.gradient.s": (per_op(total, "flow.gradient"), "s"),
        "flow.advect.self_s": (per_op(self_time, "flow.advect"), "s"),
        "flow.steps": (steps / n_ops, "count"),
        "loops.LoopEmbedding.s": (per_op(total, "loops.LoopEmbedding"), "s"),
    }
    for n in (256, 1024, 2048):
        out[f"loops.LoopEmbedding.call_s.n{n}"] = (mean_call("loops.LoopEmbedding", f"n{n}"), "s")
    out.update({
        "loops.DecoratedLoop.self_s": (per_op(self_time, "loops.DecoratedLoop"), "s"),
        "circle_forms.antiderivative.calls_per_segment": (ratio(len(batch_anti), len(batches)),
                                                          "count"),
        "circle_forms.antiderivative.points_per_target": (
            ratio(sum(r[WORK] for r in batch_anti), sum(r[WORK] for r in batches)), "count"),
        "loops.intertwiner.self_s": (per_op(self_time, "loops.intertwiner"), "s"),
        "circle_forms.CircleDiffeo.inverse.s": (per_op(total, "circle_forms.CircleDiffeo.inverse"),
                                                "s"),
        "loops.pushforward_form.self_s": (per_op(self_time, "loops.pushforward_form"), "s"),
        "circle_forms.find_zeros.s": (per_op(total, "circle_forms.find_zeros"), "s"),
    })
    for bucket in ("deg3", "deg25", "deg100", "samples"):
        out[f"circle_forms.find_zeros.call_s.{bucket}"] = (
            mean_call("circle_forms.find_zeros", bucket), "s")
    out.update({
        "circle_forms.find_zeros.evals_per_zero": (ratio(zero_evals, zeros_found), "count"),
        "circle_forms.partial_vorticities.s": (per_op(total, "circle_forms.partial_vorticities"),
                                               "s"),
        "circle_forms.symmetry_step.s": (per_op(total, "circle_forms.symmetry_step"), "s"),
        "circle_forms.eval.points": (sum(r[WORK] for r in spans
                                         if r[NAME] == "circle_forms.eval") / n_ops, "count"),
        "loops.enclosed_area.s": (per_op(total, "loops.enclosed_area"), "s"),
        "loops.circular_match.s": (per_op(total, "loops.circular_match"), "s"),
        "render.flow_csv.s": (per_op(total, "render.flow_csv"), "s"),
        "render.svg_overlay.s": (per_op(total, "render.svg_overlay"), "s"),
        "symplectic.momentum_map_eval.s": (per_op(total, "symplectic.momentum_map_eval"), "s"),
        "io.load.s": (per_op(total, "io.load"), "s"),
        "io.loop_from_dict.self_s": (per_op(self_time, "io.loop_from_dict"), "s"),
        "io.dumps.s": (per_op(total, "io.dumps"), "s"),
        "cli.main.self_s": (per_op(self_time, "cli.main"), "s"),
        "flow.step_rejected": (sum(1 for r in spans if r[NAME] == "flow.advect"
                                   and r[ERROR] == "StepRejected"), "count"),
        "circle_forms.find_zeros.raised": (sum(1 for r in zero_calls if r[ERROR]), "count"),
    })
    return out

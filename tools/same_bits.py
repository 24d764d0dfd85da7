"""Whether two trees give the same output bits on every benchmark op, as one JSON record.

    python3 tools/same_bits.py --parent PARENT_ROOT [--child CHILD_ROOT]

``PARENT_ROOT`` and ``--child`` (default: the current directory) are roots of
source checkouts.  One process imports ``vortexloop`` from each tree's ``src``
with ``bench_layers._load_tree``.  For each seed in ``SEEDS`` it builds the
fixtures of every workload of ``benchmark/workloads.py`` (read from the
benchmark beside this tool, as ``benchmark/run.py`` builds them at that seed)
and runs each distinct argument list of their warm-up and pool ops once in
each tree, on the same fixture files: 35 ``flow``, 98 ``invariants`` and 18
``intertwine`` lists per seed.  It also runs ``verify --suite all`` at each
seed in ``VERIFY_SEEDS``.  Every warning is shown on stderr, each time.

For each run it compares the exit code, stdout, stderr and the bytes of every
file the run wrote.  Where bytes differ, it parses the JSON or CSV and
reports, per key, the count of moved numbers and their largest absolute and
relative change; other text is reported as differing.  The last line of
stdout is one JSON record; the exit code is 0 when nothing moved and 1 when
anything did.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib.util
import io
import json
import math
import os
import sys
import tempfile
import warnings

# run as a script, this file's folder is on sys.path
from bench_layers import _load_tree

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmark")
SEEDS = (1, 2, 3)
VERIFY_SEEDS = (0, 3)
WORKLOADS = ("flow", "invariants", "intertwine")


def _benchmark():
    """``benchmark/workloads.py`` and the pool size of ``benchmark/run.py``,
    imported as they are."""
    sys.path.insert(0, BENCH_DIR)
    try:
        import workloads
        spec = importlib.util.spec_from_file_location("_bench_run", os.path.join(BENCH_DIR, "run.py"))
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(BENCH_DIR)
    return workloads, run.POOL_SIZE


def _argument_lists(workloads, pool_size, name, seed, root):
    """The distinct argv of the warm-up and pool ops of workload ``name`` at
    ``seed``, with its fixtures written into ``root``."""
    import numpy as np

    wl = workloads.BUILDERS[name](np.random.default_rng(seed), root, pool_size)
    ops = list(wl.warmups) + [op for entry in wl.pool for op in entry.values()]
    return list(dict.fromkeys(tuple(op.argv) for op in ops))


def _run(vl, argv, folder):
    """One in-process ``cli.main(argv)`` of the tree ``vl``: its exit code,
    stdout, stderr and {name: bytes} of the files it wrote into ``folder``,
    which are removed."""
    before = set(os.listdir(folder))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("always")
        try:
            code = vl.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is an outcome to compare too
            code = f"raised {type(exc).__name__}: {exc}"
    written = {}
    for name in sorted(set(os.listdir(folder)) - before):
        path = os.path.join(folder, name)
        with open(path, "rb") as fh:
            written[name] = fh.read()
        os.remove(path)
    return code, out.getvalue(), err.getvalue(), written


def _numbers(doc, key, into):
    """Every number of the decoded JSON ``doc`` in order, under its key: the
    dotted path of its dict keys, list positions left out."""
    if isinstance(doc, dict):
        for name, value in doc.items():
            _numbers(value, f"{key}.{name}" if key else name, into)
    elif isinstance(doc, list):
        for value in doc:
            _numbers(value, key, into)
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        into.setdefault(key, []).append(float(doc))
    else:
        into.setdefault(f"{key} (text)", []).append(doc)
    return into


def _csv_numbers(text):
    """Every cell of a CSV text under its column's header; a cell that is not a
    number is kept as text."""
    rows = list(csv.reader(io.StringIO(text)))
    into = {}
    for row in rows[1:]:
        for name, cell in zip(rows[0], row):
            try:
                into.setdefault(name, []).append(float(cell))
            except ValueError:
                into.setdefault(f"{name} (text)", []).append(cell)
    return into


def _parsed(text):
    try:
        return _numbers(json.loads(text), "", {})
    except ValueError:
        pass
    first = text.partition("\n")[0]
    if "," in first and not first.startswith("<"):
        return _csv_numbers(text)
    return None


def _moved(a, b):
    """{key: {count, max_abs, max_rel}} of the numbers that differ between the
    texts ``a`` and ``b``, or None when either is neither JSON nor CSV.  A key
    whose values differ in count or kind counts every value as moved, with
    infinite change."""
    pa, pb = _parsed(a), _parsed(b)
    if pa is None or pb is None:
        return None
    moved = {}
    for key in sorted(set(pa) | set(pb)):
        va, vb = pa.get(key, []), pb.get(key, [])
        numeric = not key.endswith("(text)")
        if len(va) != len(vb):
            moved[key] = {"count": max(len(va), len(vb)), "max_abs": math.inf,
                          "max_rel": math.inf}
            continue
        count, max_abs, max_rel = 0, 0.0, 0.0
        for x, y in zip(va, vb):
            if numeric and math.isnan(x) and math.isnan(y):
                continue
            if x == y and (not numeric or math.copysign(1.0, x) == math.copysign(1.0, y)):
                continue
            count += 1
            if numeric:
                change = abs(x - y) if math.isfinite(x) and math.isfinite(y) else math.inf
                max_abs = max(max_abs, change)
                max_rel = max(max_rel, change / max(abs(x), abs(y)) if change else 0.0)
            else:
                max_abs = max_rel = math.inf
        if count:
            moved[key] = {"count": count, "max_abs": max_abs, "max_rel": max_rel}
    return moved


def _compare(parent, child):
    """The parts in which two runs' outcomes differ: {part: detail}."""
    (code_a, out_a, err_a, files_a), (code_b, out_b, err_b, files_b) = parent, child
    parts = {}
    if code_a != code_b:
        parts["exit"] = [code_a, code_b]
    for part, a, b in (("stdout", out_a, out_b), ("stderr", err_a, err_b)):
        if a != b:
            parts[part] = _moved(a, b) or "text differs"
    for name in sorted(set(files_a) | set(files_b)):
        a, b = files_a.get(name), files_b.get(name)
        if a == b:
            continue
        if a is None or b is None:
            parts[f"file {name}"] = "written by one tree only"
            continue
        try:
            parts[f"file {name}"] = _moved(a.decode(), b.decode()) or "bytes differ"
        except UnicodeDecodeError:
            parts[f"file {name}"] = "bytes differ"
    return parts


def _merge(total, parts, label):
    """Adds the per-key moves of ``parts`` to ``total`` under ``label``."""
    for part, detail in parts.items():
        if not isinstance(detail, dict):
            continue
        for key, move in detail.items():
            # a written file by its extension, so the files of all ops add up
            where = f"file .{part.rsplit('.', 1)[-1]}" if part.startswith("file ") else part
            slot = total.setdefault(f"{label} {where} {key}",
                                    {"count": 0, "max_abs": 0.0, "max_rel": 0.0})
            slot["count"] += move["count"]
            slot["max_abs"] = max(slot["max_abs"], move["max_abs"])
            slot["max_rel"] = max(slot["max_rel"], move["max_rel"])


def compare(parent_root, child_root):
    """The record of every run in both trees."""
    trees = {"parent": _load_tree(parent_root), "child": _load_tree(child_root)}
    workloads, pool_size = _benchmark()
    lists, differing, keys = {}, [], {}
    with tempfile.TemporaryDirectory() as scratch:
        runs = []
        for seed in SEEDS:
            for name in WORKLOADS:
                folder = os.path.join(scratch, f"{name}-{seed}")
                os.makedirs(folder)
                argvs = _argument_lists(workloads, pool_size, name, seed, folder)
                lists[f"{name}.seed{seed}"] = len(argvs)
                runs += [(name, seed, folder, argv) for argv in argvs]
        runs += [("verify", seed, scratch, ("verify", "--suite", "all", "--seed", str(seed)))
                 for seed in VERIFY_SEEDS]
        for name, seed, folder, argv in runs:
            outcomes = [_run(vl, argv, folder) for vl in trees.values()]
            parts = _compare(*outcomes)
            if parts:
                shown = [arg.replace(folder + os.sep, "") for arg in argv]
                differing.append({"workload": name, "seed": seed, "argv": shown, "parts": parts})
                _merge(keys, parts, argv[0])
    return {
        "parent": os.path.abspath(parent_root),
        "child": os.path.abspath(child_root),
        "argument_lists": lists,
        "runs": len(runs),
        "same": not differing,
        "moved_runs": len(differing),
        "moved_keys": keys,
        "differing": differing,
    }


def _as_json(value):
    """``value`` with every infinite change written as the string "inf", so
    that the record is strict JSON."""
    if isinstance(value, dict):
        return {key: _as_json(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_as_json(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="root of the parent checkout")
    p.add_argument("--child", default=os.getcwd(), help="root of the changed checkout")
    args = p.parse_args(argv)
    # pinned before numpy loads, as benchmark/run.py pins them
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    record = compare(args.parent, args.child)
    print(json.dumps(_as_json(record)))
    return 0 if record["same"] else 1


if __name__ == "__main__":
    sys.exit(main())

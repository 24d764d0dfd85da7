"""vortexloop benchmark: one closed-loop client running CLI ops in process.

    python3 benchmark/run.py --workload flow --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; the package is imported from
``./src`` and from nowhere else, and the run fails without it.  Each op is one
``vortexloop.cli.main([...])`` call on fixture files written at set-up, and
each op's output is checked against how its input was built (workloads.py).
A run prints machine details first and, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` runs whole op cycles until ``--seconds`` have passed and at
least ``MIN_OPS`` ops are done, and reports the end-to-end metrics.  A fixed
host reference kernel is timed between ops, and each op's latency is scaled
by ``REF_NOMINAL_S`` over the kernel's time around it: the host's speed swings
during a run, and the scaled figures are what stay steady.  Set-up, from
before ``import vortexloop`` to the first timed op, is repeated twice in
fresh processes after the timed window; ``setup_s`` is the median of the
three, scaled the same way.  The unscaled figures are printed too.

``--trace 1`` runs a fixed op list, sized from ``--seconds``, twice: once
plain, then with spans recorded around every layer (trace.py).  It reports the
per-layer metrics, whose counters repeat exactly for a given seed.
"""

import os

# Pinned before numpy loads; a run measures one single-threaded client.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
OUT_DIR = os.path.join(ROOT, ".bench_out")

POOL_SIZE = 8
# A timed run goes on past --seconds until it holds this many ops, so that ten
# samples lie beyond its 90th latency percentile.
MIN_OPS = 100
# Rough seconds per op cycle; a constant, so the traced op list and its counters
# depend on --seconds alone.
CYCLE_S = {"flow": 1.5, "invariants": 4.7, "intertwine": 1.9}
# Nominal reference kernel time, the unit host-adjusted latencies are scaled to.
REF_NOMINAL_S = 1e-3
SUBPROCESS_TIMEOUT_S = 60
SETUP_REF_SAMPLES = 20

_perf = time.perf_counter


def fail(message):
    sys.stderr.write(f"benchmark: {message}\n")
    sys.exit(2)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(CYCLE_S))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up once, print its times and the reference timings after it, and exit")
    return p.parse_args(argv)


class RefKernel:
    """Fixed numpy work shaped like the package's: small-array ufuncs and a trig matmul."""

    def __init__(self, np):
        self.np = np
        rng = np.random.default_rng(0)
        self.pts = rng.uniform(-1.0, 1.0, (256, 2))
        self.t = rng.uniform(0.0, 6.28, 512)
        self.coef = rng.uniform(-1.0, 1.0, 25)

    def timed(self):
        np = self.np
        start = _perf()
        for _ in range(12):
            r = np.hypot(self.pts[:, 0], self.pts[:, 1])
            float(np.sum(np.exp(-0.5 * r * r) * np.clip(r - 0.5, 0.0, 1.0)))
        float(np.sum(np.cos(self.t[:, None] * np.arange(1.0, 26.0)) @ self.coef))
        return _perf() - start

    def sample(self, k=3):
        return [self.timed() for _ in range(k)]


def run_op(cli, op):
    """One in-process CLI call: (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = _perf()
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an uncaught error is a failed op, not a crashed run
            code = f"raised {type(exc).__name__}: {exc}"
        elapsed = _perf() - start
    return code, out.getvalue(), elapsed


class Client:
    """Runs ops, checks them and keeps latencies and failures."""

    def __init__(self, cli, ref):
        self.cli = cli
        self.ref = ref
        self.latencies = []
        self.adjusted = []
        self.ref_times = []
        self.failures = []
        self.attempted = 0

    def run(self, ops, op_base=0, on_op=None):
        before = self.ref.sample()
        for i, op in enumerate(ops):
            if on_op is not None:
                on_op(op_base + i)
            code, out, elapsed = run_op(self.cli, op)
            after = self.ref.sample()
            norm = statistics.median(before + after)
            self.ref_times.extend(after)
            self.latencies.append(elapsed)
            self.adjusted.append(elapsed * REF_NOMINAL_S / norm)
            self.attempted += 1
            try:
                reason = op.check(code, out) if isinstance(code, int) else code
            except (KeyError, TypeError, ValueError) as exc:
                reason = f"output lacks the expected fields: {type(exc).__name__}: {exc}"
            if reason is not None:
                self.failures.append({"op": op_base + i, "kind": str(op.kind),
                                      "input": op.input_id, "reason": reason})
            before = after


def quantile(values, q):
    """Linearly interpolated quantile, as numpy's default method."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def setup(args, t0, work_dir):
    """Cold import, fixtures and one warm-up op of each kind; returns the pieces."""
    sys.path.insert(0, SRC)
    import vortexloop.cli as cli  # the timed, cold import
    import_s = _perf() - t0
    import vortexloop
    if os.path.dirname(os.path.abspath(vortexloop.__file__)) != os.path.join(SRC, "vortexloop"):
        fail(f"imported vortexloop from {vortexloop.__file__}, not from {SRC}")
    import numpy as np

    import workloads
    os.makedirs(work_dir)
    rng = np.random.default_rng(args.seed)
    wl = workloads.BUILDERS[args.workload](rng, work_dir, POOL_SIZE)
    rotation = int(rng.integers(len(wl.pattern)))
    offset = int(rng.integers(len(wl.pool)))
    client = Client(cli, RefKernel(np))
    client.run(wl.warmups, op_base=-len(wl.warmups))
    # warm-up failures stay counted; their timings are not part of the run
    client.latencies, client.adjusted, client.ref_times = [], [], []
    return cli, np, wl, rotation, offset, import_s, client


def machine_info(np):
    import ctypes
    import glob
    import scipy

    blas_threads = None
    # numpy's wheels ship OpenBLAS beside the package; opening it again returns
    # the copy numpy loaded, whose thread count is the one in force
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                blas_threads = fn()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads, "machine": platform.machine()}


def extra_setup(args):
    """One set-up in a fresh process: (set-up s, import s, reference timings after it)."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        fail(f"set-up in a fresh process failed: {proc.stderr.strip()}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc["setup_s"], doc["import_s"], doc["ref_s"]


def timed_run(args, client, wl, rotation, offset):
    start = _perf()
    c = 0
    while len(client.latencies) < MIN_OPS or _perf() - start < args.seconds:
        client.run(wl.cycle(c, rotation, offset), op_base=len(client.latencies))
        c += 1


def end_to_end(client, setups):
    """End-to-end metrics, and the raw (not host-adjusted) figures beside them.

    ``setups`` holds (set-up s, import s, reference timings right after it)
    for each of the three set-ups.
    """
    n = len(client.latencies)
    metrics = {
        "host_adj_ops_per_s": (n / sum(client.adjusted), "1/s"),
        "host_adj_latency_p50_s": (quantile(client.adjusted, 0.5), "s"),
        "host_adj_latency_p90_s": (quantile(client.adjusted, 0.9), "s"),
        "ok_ratio": ((client.attempted - len(client.failures)) / client.attempted, "ratio"),
        "setup_s": (statistics.median(s * REF_NOMINAL_S / statistics.median(refs)
                                      for s, _, refs in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = {
        "ops": n,
        "ops_per_s": n / sum(client.latencies),
        "latency_p50_s": quantile(client.latencies, 0.5),
        "latency_p90_s": quantile(client.latencies, 0.9),
        "setup_s": statistics.median(s for s, _, _ in setups),
        "import_s": statistics.median(i for _, i, _ in setups),
    }
    return metrics, raw


def traced_run(args, client, wl, rotation, offset):
    import trace

    cycles = max(1, round(0.5 * args.seconds / CYCLE_S[args.workload]))
    ops = [op for c in range(cycles) for op in wl.cycle(c, rotation, offset)]
    client.run(ops)
    plain = sum(client.latencies)
    tracer = trace.Tracer()
    import vortexloop
    tracer.install(vortexloop)

    def set_op(i):
        tracer.op = i

    try:
        client.run(ops, op_base=len(ops), on_op=set_op)
    finally:
        tracer.uninstall()
    traced = sum(client.latencies) - plain
    metrics = trace.layer_metrics(tracer.spans, len(ops))
    metrics["host.ref_kernel_s"] = (statistics.median(client.ref_times), "s")
    metrics["trace.overhead"] = (traced / plain, "ratio")
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}.jsonl"))
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "vortexloop", "cli.py")):
        fail(f"no package source at {SRC}/vortexloop; run from the root of a checkout")
    work_dir = os.path.join(WORK, str(os.getpid()))
    try:
        t0 = _perf()
        cli, np, wl, rotation, offset, import_s, client = setup(args, t0, work_dir)
        setup_s = _perf() - t0
        # the host's speed right after set-up, timed in the process that set up
        setup_refs = client.ref.sample(SETUP_REF_SAMPLES)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "import_s": import_s, "ref_s": setup_refs}))
            return 0
        raw = None
        if args.trace:
            metrics = traced_run(args, client, wl, rotation, offset)
        else:
            setups = [(setup_s, import_s, setup_refs)]
            timed_run(args, client, wl, rotation, offset)
            setups += [extra_setup(args) for _ in range(2)]
            metrics, raw = end_to_end(client, setups)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({"machine": machine_info(np), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace, "raw": raw}))
    for failure in client.failures:
        print(json.dumps({"failed_op": failure}))
    print(json.dumps({
        "correct": not client.failures,
        "attempted": client.attempted,
        "failed": len(client.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

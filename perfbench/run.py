"""Benchmark of fgmpc: offline sets, the governed loop and the long-horizon
baseline.

    python3 perfbench/run.py --workload offline_sets --seed 0 --seconds 30 \
        --trace 0

Run from the root of a source tree that holds ``src/fgmpc``. Each run is
one process with one Python thread and OpenBLAS pinned to one thread. It
sets up the workload, then runs operations back to back (a closed loop)
for about ``--seconds`` seconds, checks every output against oracles that
share no code with fgmpc, and prints a human-readable report followed by
one JSON line:

* ``--trace 0`` gives the end-to-end metrics ``setup_s``, ``op_s`` and
  ``peak_rss_mb``, with no wrapper in the program's path;
* ``--trace 1`` runs each operation twice, untraced and then traced, and
  gives the per-layer metrics of ``layers.json`` plus the tracing
  overhead. It fails when a layer expected on the workload has no calls
  or when tracing changes an output.

``--workload all`` runs the three workloads one after another, each in
its own process, and prints their reports. Reports and spans are written
under ``perfbench/out/``.
"""

import argparse
import ctypes
import glob
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
NAMES = ("offline_sets", "governed_loop", "long_horizon")
SETUP_REPEATS = 3
BLAS_THREADS = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Run environment
# ---------------------------------------------------------------------------


def blas_threads():
    """Thread count OpenBLAS reports, or None when its library or symbol
    cannot be found."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def steal_seconds():
    """Cumulative steal time of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def calibration_s():
    """Time of a fixed loop of interpreter and small-matrix work; a run
    whose value is far from the others ran on a slower or busier CPU."""
    import numpy as np

    times = []
    for _ in range(5):
        tic = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        M = np.eye(8) + 0.01
        for _ in range(1000):
            M = M @ M
            M /= np.abs(M).max()
        times.append(time.perf_counter() - tic)
    return statistics.median(times)


def environment():
    import numpy as np
    import scipy

    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas_threads": blas_threads(), "loadavg": os.getloadavg(),
            "steal_s": steal_seconds(), "calibration_s": calibration_s()}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


class Run:
    """One workload in one process: set-up, the closed loop of
    operations, checks and the tally of failures."""

    def __init__(self, wl, seconds):
        self.wl = wl
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.results = []

    def operation(self, inst, index):
        """Run, check and fingerprint one operation; returns its result or
        None when it raised."""
        self.attempted += 1
        try:
            res = self.wl.run(inst)
            fails = self.wl.check(inst, res)
            res["fingerprint"] = self.wl.fingerprint(res)
        except Exception:  # a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append("op {}: {}".format(
                index, traceback.format_exc().strip().replace("\n", " | ")))
            return None
        if fails:
            self.failed += 1
            self.errors += ["op {}: {}".format(index, f) for f in fails]
        return res

    def loop(self, step, minimum):
        """Call step(i) back to back: at least ``minimum`` times, then while
        another call of median length still ends within the time budget."""
        start = time.perf_counter()
        durations = []
        i = 0
        while i < minimum or (time.perf_counter() - start
                              + statistics.median(durations) <= self.seconds):
            tic = time.perf_counter()
            step(i)
            durations.append(time.perf_counter() - tic)
            i += 1

    def untraced(self):
        setup_times, digests = [], set()
        for _ in range(SETUP_REPEATS):
            tic = time.perf_counter()
            digests.add(self.wl.setup())
            setup_times.append(time.perf_counter() - tic)
        if len(digests) != 1:
            self.errors.append("set-up is not deterministic")

        def step(i):
            res = self.operation(self.wl.instance(i), i)
            if res is not None:
                self.results.append(res)

        self.loop(step, self.wl.min_ops)
        return {"setup_s": statistics.median(setup_times),
                "op_s": statistics.median(res["op_s"]
                                          for res in self.results)
                if self.results else 0.0}

    def traced(self, layers):
        """Set up once and run pairs of operations, untraced then traced;
        per-layer metrics come from the set-up and the first
        ``traced_ops`` traced operations."""
        import tracer as tracing

        tracer = self.tracer = tracing.Tracer()
        tracer.install()
        try:
            self.wl.setup()
        finally:
            tracer.uninstall()
        plain, traced = [], []
        counted = 0

        def step(i):
            nonlocal counted
            inst = self.wl.instance(i)
            a = self.operation(inst, "{}u".format(i))
            tracer.install()
            try:
                b = self.operation(inst, "{}t".format(i))
            finally:
                tracer.uninstall()
            if i < self.wl.traced_ops:
                counted = len(tracer.spans)
            else:  # spans of later pairs only served the overhead figure
                del tracer.spans[counted:]
            if a is None or b is None:
                return
            self.results.append(b)
            plain.append(a["op_s"])
            traced.append(b["op_s"])
            if a["fingerprint"] != b["fingerprint"]:
                self.errors.append("op {}: output differs with tracing on "
                                   "and off".format(i))

        self.loop(step, self.wl.traced_ops)
        stats = tracing.aggregate(tracer.spans)
        for layer, spec in layers.items():
            if (self.wl.name in spec["expect"]
                    and stats.get(layer, {}).get("calls", 0) == 0):
                self.errors.append("tracer guard: no calls to {} (stale "
                                   "binding?)".format(layer))
        metrics = tracing.layer_metrics(stats, layers)
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0 \
            if plain else 0.0
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
        return metrics


def run_one(args):
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "fgmpc", "__init__.py")):
        print("perfbench: no fgmpc sources under {}".format(src),
              file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    os.environ["OMP_NUM_THREADS"] = BLAS_THREADS
    sys.path[:0] = [src, BENCH_DIR]
    import fgmpc

    if not os.path.abspath(fgmpc.__file__).startswith(src + os.sep):
        print("perfbench: imported fgmpc from {}, not {}".format(
            fgmpc.__file__, src), file=sys.stderr)
        return 2
    import workloads

    with open(os.path.join(BENCH_DIR, "layers.json")) as fh:
        layers = json.load(fh)
    tag = "{}-s{}-t{}".format(args.workload, args.seed, args.trace)
    work_dir = os.path.join(OUT_DIR, "work-{}-{}".format(tag, os.getpid()))
    os.makedirs(work_dir)
    env_start = environment()
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        run = Run(wl, args.seconds)
        if args.trace:
            metrics = run.traced(layers)
            run.tracer.dump(os.path.join(OUT_DIR, tag + ".spans.jsonl"))
        else:
            e2e = run.untraced()
            metrics = {"setup_s": {"value": e2e["setup_s"], "unit": "s"},
                       "op_s": {"value": e2e["op_s"], "unit": "s"}}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.trace:
        metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    env_end = environment()

    lines = ["perfbench {} seed={} trace={} seconds={:g}".format(
        args.workload, args.seed, args.trace, args.seconds)]
    for key in ("python", "numpy", "scipy", "nproc", "blas_threads"):
        lines.append("env {} = {}".format(key, env_start[key]))
    lines.append("env loadavg = {} -> {}".format(
        " ".join("{:.2f}".format(v) for v in env_start["loadavg"]),
        " ".join("{:.2f}".format(v) for v in env_end["loadavg"])))
    lines.append("env calibration_s = {:.4f} -> {:.4f}".format(
        env_start["calibration_s"], env_end["calibration_s"]))
    if env_start["steal_s"] is not None and env_end["steal_s"] is not None:
        lines.append("env steal_s = {:.2f}".format(
            env_end["steal_s"] - env_start["steal_s"]))
    detail = wl.report(run.results) if run.results else []
    detail.append(("fail_frac", run.failed / max(run.attempted, 1), "1",
                   "{} of {} operations failed".format(run.failed,
                                                       run.attempted)))
    detail.append(("peak_rss_mb", rss_mb, "MB", "peak resident set"))
    for name, value, unit, note in detail:
        lines.append("{} = {} {} ({})".format(name, value, unit, note))
    for name, m in metrics.items():
        lines.append("metric {} = {!r} {}".format(name, m["value"],
                                                  m["unit"]))
    fingerprints = [res["fingerprint"] for res in run.results]
    if wl.same_input and len(set(fingerprints)) > 1:
        run.errors.append("outputs differ between operations on one input")
    lines.append("fingerprint of op 0 = {} ({} distinct in {} ops)".format(
        fingerprints[0] if fingerprints else None, len(set(fingerprints)),
        len(fingerprints)))
    for err in run.errors:
        lines.append("FAIL {}".format(err))
    print("\n".join(lines))

    result = {"correct": run.failed == 0 and not run.errors,
              "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    with open(os.path.join(OUT_DIR, tag + ".json"), "w") as fh:
        json.dump({"result": result, "env_start": env_start,
                   "env_end": env_end,
                   "detail": {name: {"value": value, "unit": unit,
                                     "note": note}
                              for name, value, unit, note in detail},
                   "report": lines}, fh, indent=1)
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("perfbench: {} exited {}".format(name, proc.returncode),
                  file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            merged["metrics"]["{}.{}".format(name, key)] = val
    print(json.dumps(merged))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

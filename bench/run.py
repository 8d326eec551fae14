"""Benchmark of ibreg: one workload per process, end-to-end or per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload binary-curves --seed 20240917 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see bench/README.md).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` (checked
operations) and ``metrics``.  The exit code is 0 when every check passed, 1
when one failed, and 2 when the benchmark could not run at all.

The program is imported from ``src/`` next to this directory.  Timed and
untraced work is single-threaded: the thread variables below are pinned to 1
before numpy loads, here and in every set-up probe.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("IBREG_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")  # scratch outputs and traces, inside the checkout

WORKLOADS = ("binary-curves", "binary-oracles", "gaussian-regions", "figures")
DEFAULT_SEED = 20240917
SETUP_SAMPLES = 5     # fresh processes per run; setup_s is their median
PROBE_TIMEOUT = 120.0
TRACE_SHARE = 0.5     # share of --seconds the traced run spends untraced


class BenchError(Exception):
    """The benchmark cannot run: no program to import, or set-up failed."""


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED}, the figures seed)")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measuring time of the run (at least one pass runs)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print 'ready' and exit (a set-up probe)")
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# set-up probes and run record
# ---------------------------------------------------------------------------


def probe_setup(args) -> float:
    """Seconds from starting a fresh process to its 'ready' line."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    try:
        ready = select.select([proc.stdout], [], [], PROBE_TIMEOUT)[0]
        line = proc.stdout.readline() if ready else b""
        elapsed = perf_counter() - t0
        if line.strip() != b"ready" or proc.wait(timeout=PROBE_TIMEOUT) != 0:
            raise BenchError(f"set-up probe for {args.workload} failed")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return elapsed


def git_commit(root: str) -> str:
    """HEAD of the checkout's git metadata, or 'unknown' without any."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(package_dir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(package_dir, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def run_record(args, loadavg) -> dict:
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "commit": git_commit(ROOT), "source_sha256": source_digest(os.path.join(SRC, "ibreg")),
        "loadavg_1m_at_start": loadavg[0],
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "setup_samples": SETUP_SAMPLES,
    }


# ---------------------------------------------------------------------------
# timed and traced runs
# ---------------------------------------------------------------------------


def measure(wl, rec, seconds: float, min_passes: int = 1) -> list[list]:
    """Run passes for ``seconds`` (and at least ``min_passes``); return them."""
    first = len(rec.passes)
    start = perf_counter()
    while len(rec.passes) - first < min_passes or perf_counter() - start < seconds:
        wl.run_pass(rec)
    return rec.passes[first:]


def timed_run(wl, rec, seconds: float, setup: list[float]) -> dict:
    passes = measure(wl, rec, seconds, wl.min_passes())
    # read before the pooled latencies below add to the process's memory
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    items_ms = [1e3 * x for _, _, items, _ in passes for x in items]
    p90 = (statistics.quantiles(items_ms, n=10, method="inclusive")[8]
           if len(items_ms) > 1 else items_ms[0])
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p[0] for p in passes), "s"),
        "item_ms.p50": (statistics.median(items_ms), "ms"),
        "item_ms.p90": (p90, "ms"),
        "cpu_s": (statistics.median(p[1] for p in passes), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": (1.0 - rec.failed / rec.attempted, "fraction"),
    }


def traced_run(wl, rec, seconds: float, record: dict) -> dict:
    import tracer

    extra = {}
    if wl.name == "figures" and record["nproc"] >= 2:
        extra["search.scaling_2t"] = wl.scaling_2t(rec)
    untraced = measure(wl, rec, TRACE_SHARE * seconds)
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = measure(wl, rec, (1.0 - TRACE_SHARE) * seconds)
    finally:
        tr.remove()
    extra["trace.overhead_s"] = (statistics.median(p[0] for p in traced)
                                 - statistics.median(p[0] for p in untraced))
    path = os.path.join(OUT, f"trace-{wl.name}-{wl.seed}.json")
    with open(path, "w") as fh:
        json.dump({"run": record, "traced_passes": len(traced), "spans": tr.spans,
                   "aggregates": tr.aggregates()}, fh)
    scale = statistics.median(p[3] for p in traced)
    return tracer.per_layer(tr, len(traced), rec.observed, extra, scale)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, SRC)
    if args.setup_only:
        import workloads

        workloads.build(args.workload, args.seed, OUT).setup()
        print("ready", flush=True)
        return 0
    loadavg = os.getloadavg()
    try:
        import ibreg
        import workloads

        if not os.path.abspath(ibreg.__file__).startswith(SRC + os.sep):
            raise BenchError(f"ibreg imported from {ibreg.__file__}, not from {SRC}")
        # the traced run reports no setup_s, so it starts no set-up probes
        setup = [t * k for t, k in (workloads.at_reference_speed(lambda: probe_setup(args))
                                    for _ in range(0 if args.trace else SETUP_SAMPLES))]
    except (BenchError, ImportError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2
    record = run_record(args, loadavg)
    os.makedirs(OUT, exist_ok=True)
    wl = workloads.build(args.workload, args.seed, OUT)
    wl.setup()
    rec = workloads.Recorder(wl.probe)
    if args.trace:
        metrics = traced_run(wl, rec, args.seconds, record)
    else:
        metrics = timed_run(wl, rec, args.seconds, setup)

    items = sum(len(p[2]) for p in rec.passes)
    print(f"bench: {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(rec.passes)} passes, {items} items ({items // 10} beyond p90), "
          f"{rec.attempted} checked operations, {rec.failed} failed")
    print("run record: " + json.dumps(record, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:.6g} {unit}")
    print(f"  {'failed_frac':<30} {rec.failed / max(rec.attempted, 1):.6g} fraction")
    for what in rec.failures:
        print(f"bench: check failed: {what}", file=sys.stderr)
    print(json.dumps({
        "correct": rec.failed == 0 and rec.attempted > 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if rec.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""One workload process of the benchmark; `run.py` starts it.

Modes:
  setup    generate the inputs and warm up, then report the set-up time;
  measure  set up, then time iterations of the workload for --seconds
           (with --trace 1 every second iteration is traced: those give the
           per-layer metrics, and against the others the tracing overhead);
  scan     set up verify-trio, then time one agent's best-response scan
           (run under two thread settings for the thread speed-up).

The last stdout line is one JSON object for `run.py`.  Set-up time is
counted from --spawned, the parent's CLOCK_MONOTONIC reading just before it
started this process, so it includes interpreter start and imports.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np
import scipy

import merton_arena
from merton_arena import MertonArenaError, simulation
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, Outcome, time_scan


def _parse() -> argparse.Namespace:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "scan"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--out-dir", required=True)
    return ap.parse_args()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_bytes() -> dict:
    """Per-level unified/data cache sizes of CPU 0, in bytes."""
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return out
    for entry in entries:
        if not entry.startswith("index"):
            continue
        try:
            with open(os.path.join(base, entry, "level"), encoding="utf-8") as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type"), encoding="utf-8") as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size"), encoding="utf-8") as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        mult = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(size[-1:], 1)
        out[f"l{level}_bytes"] = int(size.rstrip("KMG")) * mult
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "package": merton_arena.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "threads": simulation.worker_count(),
        "merton_arena_threads_env": os.environ.get("MERTON_ARENA_THREADS"),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        **_cache_bytes(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _iterate(workload, state, seconds: float, tracer_factory=None) -> list[tuple]:
    """(wall, outcome, tracer) per iteration, until the next would end after `seconds`.

    With a tracer factory every second iteration is traced (untraced first),
    and at least one of each kind runs.  A package error ends the iteration
    as a failed check.
    """
    runs = []
    start = time.perf_counter()
    while True:
        tracer = tracer_factory() if tracer_factory and len(runs) % 2 else None
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            outcome = workload.run(state)
        except MertonArenaError as exc:
            outcome = Outcome()
            outcome.expect(f"raised {type(exc).__name__}: {exc}", False)
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        runs.append((wall, outcome, tracer))
        elapsed = time.perf_counter() - start
        enough = len(runs) >= (2 if tracer_factory else 1)
        if enough and elapsed + statistics.fmean(r[0] for r in runs) > seconds:
            return runs


def measure(args, workload, state, setup_s: float) -> dict:
    result = {"setup_s": setup_s, "sizes": state["sizes"]}
    if args.trace:
        # An untimed full-size iteration first, so that the one-off costs of
        # the first (the allocator growing its heap) do not fall on the
        # untraced side of the overhead ratio.
        workload.run(state)
    runs = _iterate(workload, state, args.seconds, Tracer if args.trace else None)
    outcomes = [o for _, o, _ in runs]
    result["walls"] = [w for w, _, t in runs if t is None]
    if args.trace:
        tracers = [t for _, _, t in runs if t is not None]
        per_iter = [layer_metrics(t.spans) for t in tracers]
        result["layers"] = {k: statistics.median(m[k] for m in per_iter)
                            for k in per_iter[0]}
        result["layer_counts_repeat"] = all(
            m[k] == per_iter[0][k] for m in per_iter for k in m
            if k.endswith((".calls", ".normals", ".bytes_computed")))
        result["traced_walls"] = [w for w, _, t in runs if t is not None]
        path = os.path.join(args.out_dir, f"spans-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(tracers[-1].as_records(), fh)
        result["spans_file"] = path
    result["checks"] = outcomes[-1].checks
    result["attempted"] = sum(len(o.checks) for o in outcomes)
    result["failed"] = sum(not c["passed"] for o in outcomes for c in o.checks.values())
    result["max_stderr"] = outcomes[-1].max_stderr
    result["fixed_point_verdicts"] = [v for o in outcomes for v in o.fixed_point_verdicts]
    result["report_sha256"] = sorted({o.report_sha256 for o in outcomes if o.report_sha256})
    result["peak_rss_mb"] = _peak_rss_mb()
    result["environment"] = environment()
    return result


def main() -> int:
    args = _parse()
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(merton_arena.__file__).startswith(src + os.sep):
        print(f"merton_arena was imported from {merton_arena.__file__}, "
              f"not from this checkout's src/", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out_dir)
    try:
        state = workload.setup(args.seed, workdir)
        setup_s = time.monotonic() - args.spawned
        if args.mode == "setup":
            result = {"setup_s": setup_s}
        elif args.mode == "scan":
            result = {"scan_s": time_scan(state)}
        else:
            result = measure(args, workload, state, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

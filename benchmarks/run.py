"""Benchmark of merton-arena: one workload per invocation, run from the repo root.

    python3 benchmarks/run.py --workload verify-trio --seed 1 --seconds 25 --trace 0

Workloads and metric definitions are in benchmarks/README.md.  The
package is imported from ./src of the current directory, in fresh worker
processes with the BLAS thread count pinned.  With --trace 0 the last
stdout line carries the end-to-end metrics; with --trace 1 the per-layer
metrics of a traced run; its "correct" is false when a check failed.  The
line before it is the run record (seed, sizes, environment, per-check
value vs tolerance).  Exit code 0 when a result was printed, 1 when a
worker process failed, 2 for bad arguments or a directory without src/.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# The keys of workloads.WORKLOADS; this parent process imports neither numpy
# nor the package, so that a checkout without src/ fails before any work.
WORKLOAD_NAMES = ("verify-trio", "solve-wide", "solve-many", "simulate-store")
SETUP_REPS = 3          # set-ups per run; setup_s is their median
BLAS_THREADS = "1"      # held identical for every run (see README)
DEADLINE_S = 170.0      # the whole run, worker processes included
OUT_DIR = ".bench_out"


class RunFailed(Exception):
    pass


def _worker(args, mode: str, deadline: float, extra_env: dict | None = None,
            drop_env: tuple = ()) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in drop_env}
    env.update({
        "PYTHONPATH": os.path.abspath("src"),
        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
        "OMP_NUM_THREADS": BLAS_THREADS,
        "MKL_NUM_THREADS": BLAS_THREADS,
    })
    env.update(extra_env or {})
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.abspath(OUT_DIR)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed("time budget exhausted before a worker could start")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)], env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=remaining)
    except BaseException as exc:
        proc.kill()
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RunFailed(f"{mode} worker exceeded the time budget") from exc
        raise
    if proc.returncode != 0:
        raise RunFailed(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def _units() -> dict:
    """Metric name -> unit, as BENCHMARK.json at the repository root lists them."""
    with open("BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run(args) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    main = _worker(args, "measure", deadline)
    setups = [main["setup_s"]]
    if not args.trace:
        setups += [_worker(args, "setup", deadline)["setup_s"]
                   for _ in range(SETUP_REPS - 1)]
    checks = main["checks"]
    verdicts = main["fixed_point_verdicts"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": main["sizes"],
        "timings": {"wall_s": main["walls"], "setup_s": setups},
        "environment": main["environment"],
        "checks": checks,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "max_stderr": main["max_stderr"],
        "fixed_point_verdicts": verdicts,
        "report_sha256": main["report_sha256"],
        "source_commit": _git_commit(),
    }
    if args.trace:
        values = dict(main["layers"])
        speedup = 0.0
        if args.workload == "verify-trio":
            one = _worker(args, "scan", deadline, {"MERTON_ARENA_THREADS": "1"})["scan_s"]
            default = _worker(args, "scan", deadline,
                              drop_env=("MERTON_ARENA_THREADS",))["scan_s"]
            speedup = one / default
            record["timings"]["scan_s"] = {"threads_1": one, "threads_default": default}
        values["verification.scan.thread_speedup"] = speedup
        values["verification.fixed_point_check.fail_ratio"] = (
            sum(not v for v in verdicts) / len(verdicts) if verdicts else 0.0)
        values["max_stderr"] = main["max_stderr"]
        values["trace.overhead_ratio"] = (
            statistics.fmean(main["traced_walls"]) / statistics.fmean(main["walls"]) - 1.0)
        record["timings"]["traced_wall_s"] = main["traced_walls"]
        record["layer_counts_repeat"] = main["layer_counts_repeat"]
        record["spans_file"] = os.path.relpath(main["spans_file"])
    else:
        values = {
            "wall_s": statistics.fmean(main["walls"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": main["peak_rss_mb"],
        }
    units = _units()
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    result = {"correct": main["failed"] == 0 and record.get("layer_counts_repeat", True),
              "attempted": main["attempted"], "failed": main["failed"],
              "metrics": metrics}
    return record, result


def _git_commit() -> str | None:
    """HEAD of the git checkout rooted here, or None (not a checkout, or no git)."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return None
    top, head = lines
    return head if os.path.realpath(top) == os.path.realpath(os.getcwd()) else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Termination unwinds through _worker, which stops the running worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (os.path.isfile(os.path.join("src", "merton_arena", "__init__.py"))
            and os.path.isfile("BENCHMARK.json")):
        print("run.py: no src/merton_arena or BENCHMARK.json here; "
              "run it from the repository root",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        record, result = run(args)
    except RunFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    path = os.path.join(OUT_DIR, f"record-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Repeat the benchmark over seeds and summarise it, e.g. to record a baseline.

    python3 benchmarks/collect.py --seeds 1-10 --seconds 25 --out baseline.json

For every workload: one untraced run per seed (each end-to-end metric's
values, median, quartiles and quartile spread as a share of the median, as
`statistics.quantiles(values, n=4)` gives them) and one traced run at the
first seed (the per-layer metrics).  Runs one process at a time.
"""
from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import WORKLOAD_NAMES  # noqa: E402


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["run_record"], json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--workload", nargs="*", default=list(WORKLOAD_NAMES))
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    seeds = _seeds(args.seeds)
    summary = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        failed = attempted = 0
        for seed in seeds:
            record, result = bench(workload, seed, args.seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  file=sys.stderr, flush=True)
        record, traced = bench(workload, seeds[0], args.seconds, 1)
        summary["workloads"][workload] = {
            "end_to_end": {k: summarise(v) for k, v in values.items()},
            "attempted": attempted,
            "failed": failed,
            "fixed_point_verdicts_at_first_seed": record["fixed_point_verdicts"],
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
            "sizes": record["sizes"],
        }
        summary["environment"] = record["environment"]
        summary["source_commit"] = record["source_commit"]
    summary["date"] = datetime.date.today().isoformat()
    text = json.dumps(summary, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-check of the benchmark: two traced runs at one seed must agree exactly.

    python3 benchmarks/selfcheck.py --seed 3 --seconds 10 [--workload verify-trio ...]

For each workload it runs `run.py --trace 1` twice with the same seed and
compares the per-layer counts (calls, normals, bytes), the seed-fixed
metrics (largest standard error, reuse and fail ratios) and, for verify-trio,
the digest of the `verify` JSON report with any timing or environment
fields left out.  Prints one JSON summary line; exit code 1 on a mismatch.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from collect import bench  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402

COUNT_UNITS = ("count", "bytes")
# Metrics that are not counts but are fixed by the seed as well.
EXACT = ("max_stderr", "verification.scan.normal_reuse_ratio",
         "verification.fixed_point_check.fail_ratio")


def exact_metrics(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["unit"] in COUNT_UNITS or k in EXACT}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--workload", nargs="*", default=list(WORKLOAD_NAMES))
    args = ap.parse_args()
    summary = {}
    for workload in args.workload:
        (rec_a, res_a), (rec_b, res_b) = (bench(workload, args.seed, args.seconds, 1)
                                          for _ in range(2))
        counts_a, counts_b = exact_metrics(res_a), exact_metrics(res_b)
        summary[workload] = {
            "correct": res_a["correct"] and res_b["correct"],
            "counts_equal": counts_a == counts_b,
            "counts_repeat_within_runs": bool(rec_a["layer_counts_repeat"]
                                              and rec_b["layer_counts_repeat"]),
            "reports_equal": rec_a["report_sha256"] == rec_b["report_sha256"],
            "counts": counts_a,
        }
    ok = all(s["correct"] and s["counts_equal"] and s["counts_repeat_within_runs"]
             and s["reports_equal"] for s in summary.values())
    print(json.dumps({"ok": ok, "seed": args.seed, "workloads": summary}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Check that the machine-independent counters repeat exactly.

    python3 bench/check_trace_repeat.py [--seed 1] [workload ...]

Runs ``run.py --trace 1`` twice per workload on the same seed and compares
the counters in ``tracer.DETERMINISTIC``.  Exits 1 on any mismatch or
incorrect result.
"""

from __future__ import annotations

import argparse
import json
import sys

from spread import run_once

WORKLOADS = ("game_corpus", "sweep_nonconvex", "sparse_convex")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = parser.parse_args()
    ok = True
    for workload in args.workloads:
        runs = [run_once(workload, args.seed, 0, 1) for _ in range(2)]
        first, second = (r["info"]["deterministic"] for r in runs)
        correct = all(r["result"]["correct"] for r in runs)
        same = first == second
        ok = ok and same and correct
        print(json.dumps({"workload": workload, "repeat": same,
                          "correct": correct, "counters": first,
                          "overhead_ratio": [
                              r["result"]["metrics"]["trace.overhead_ratio"]
                              ["value"] for r in runs]}), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

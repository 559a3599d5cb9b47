"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/spread.py --workload game_corpus --seeds 1-10 [--seconds 30]

For every end-to-end metric it prints the median over the runs and the
distance between the first and third quartiles (statistics.quantiles, n=4)
as a share of the median, next to the metric's bound in BENCHMARK.json.
Exits 1 when a run fails or reports an incorrect result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n"
                           + proc.stderr)
    lines = proc.stdout.strip().splitlines()
    return {"info": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    with open("BENCHMARK.json", "r", encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    ok = True
    for seed in parse_seeds(args.seeds):
        run = run_once(args.workload, seed, seconds, 0)
        result = run["result"]
        ok = ok and result["correct"] and result["failed"] == 0
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(json.dumps({"seed": seed, "correct": result["correct"],
                          "attempted": result["attempted"],
                          **{n: v["value"] for n, v in
                             result["metrics"].items()}}), flush=True)
    for name, vals in values.items():
        spread = stats.relative_iqr(vals) if len(vals) > 1 else 0.0
        print(f"{args.workload:16s} {name:18s} median {stats.median(vals):.6g}"
              f"  spread {spread:.4f}  bound {bounds[name]}"
              f"  {'ok' if spread <= bounds[name] / 3 else 'WIDE'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 perfbench/spread.py [--write-baseline]

Run from the root of a qcap checkout.  Runs the benchmark once per seed
(1..10) on every workload of BENCHMARK.json, one run after another, and
prints for every end-to-end metric its median and its spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median.  A spread above a third of the metric's bound in
BENCHMARK.json is flagged.  With --write-baseline the medians, quartiles
and the machine they were measured on go to perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RUNS = 10


def main() -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline = {"runs": RUNS, "run_seconds": spec["run_seconds"], "workloads": {}}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(1, RUNS + 1):
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            baseline["machine"] = json.loads(lines[-2].removeprefix("env "))
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} "
                      f"failed\n{proc.stderr}", file=sys.stderr)
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        rows = {}
        for name, xs in values.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            flag = spread > bounds[name] / 3
            steady &= not flag
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": xs}
            print(f"{workload:>11} {name:<12} median {med:12.6g}  spread {spread:7.2%}"
                  f"  (bound {bounds[name]:.0%}){'  TOO WIDE' if flag else ''}", flush=True)
        baseline["workloads"][workload] = rows
    if args.write_baseline:
        (BENCH / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

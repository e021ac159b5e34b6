#!/usr/bin/env python3
"""Measures the run-to-run spread of every end-to-end metric.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1]

Runs every workload of BENCHMARK.json --runs times through run.py for
its run_seconds, alternating workloads (one run of each per cycle) and
giving every run its own seed. For each workload and metric it prints the
median, the quartiles (Python's statistics.quantiles(values, n=4)) and
the spread (q3 - q1) / median, marked "!" when the spread is a third of
the metric's bound in BENCHMARK.json or more. It also prints each
workload's share of failed operations, which must be the same in every
run. Raw results go to .bench_build/spread.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            seed = args.first_seed + i
            run = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if run.returncode != 0:
                print("%s seed %d: run failed (exit %d)" % (w, seed, run.returncode))
                return 1
            out = json.loads(run.stdout.strip().splitlines()[-1])
            results[w].append(out)
            print("%s seed %d: correct=%s attempted=%d failed=%d" %
                  (w, seed, out["correct"], out["attempted"], out["failed"]),
                  flush=True)

    with open(os.path.join(ROOT, ".bench_build", "spread.json"), "w") as f:
        json.dump(results, f, indent=1)
    print("\n%-13s %-14s %12s %12s %12s %8s %6s" %
          ("workload", "metric", "median", "q1", "q3", "spread", "bound"))
    for w in workloads:
        runs = results[w]
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            flag = "!" if spread >= bound / 3 else ""
            print("%-13s %-14s %12.6g %12.6g %12.6g %8.4f %6.2f %s" %
                  (w, name, median, q1, q3, spread, bound, flag))
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        print("%-13s failed share(s) %s, all correct: %s" % (w, shares, correct))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Steadiness check: run one perfbench workload k times and print, for
each end-to-end metric, the median, the quartiles, the spread (distance
between the quartiles as a share of the median) and the metric's bound
from BENCHMARK.json.

    python3 perfbench/steady.py --workload study --runs 10

Run it from the repository root. Run j uses seed j (1..k), as a bound
is judged over runs with distinct seeds: the spread covers both the
host's noise and what the seeds change in the work. A last run repeats
seed 1 and must give its virt_* metrics exactly, since simulated time
depends on the inputs alone. Exits 1 when a spread exceeds its bound,
a run is incorrect, the repeat differs, or the share of failed
operations differs between runs.
"""

import argparse
from fractions import Fraction
import json
import statistics
import subprocess
import sys


def run(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    print(f"seed {seed}: correct={res['correct']} "
          f"attempted={res['attempted']} failed={res['failed']}", flush=True)
    return res


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    results = [run(bench, a.workload, seed) for seed in range(1, a.runs + 1)]
    results.append(run(bench, a.workload, 1))
    ok = all(r["correct"] for r in results)
    for r in results[:-1]:
        for name in bounds:
            values[name].append(r["metrics"][name]["value"])

    print(f"\n{a.workload}: {a.runs} runs of {bench['run_seconds']} s")
    print(f"{'metric':16} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds[name]
        flag = ""
        if spread > bound:
            flag, ok = "  OVER BOUND", False
        elif spread > bound / 3:
            flag = "  above bound/3"
        print(f"{name:16} {med:14.6f} {q1:14.6f} {q3:14.6f} {spread:8.4f} {bound:6.3f}{flag}")
    first, repeat = results[0]["metrics"], results[-1]["metrics"]
    for name in bounds:
        if name.startswith("virt_") and first[name]["value"] != repeat[name]["value"]:
            print(f"{name}: seed 1 gave {first[name]['value']}, "
                  f"then {repeat[name]['value']}")
            ok = False
    shares = {Fraction(r["failed"], r["attempted"]) for r in results}
    if len(shares) != 1:
        print(f"failed share differs between runs: {sorted(map(str, shares))}")
        ok = False
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

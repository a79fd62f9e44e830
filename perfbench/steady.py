#!/usr/bin/env python3
"""Steadiness tool: runs one workload of the benchmark several times,
each with another seed, and prints for each end-to-end metric the
median, the quartiles and the spread (interquartile distance over the
median) next to the bound BENCHMARK.json gives it.

Run from the root of the repository:

    python3 perfbench/steady.py --workload t2_mix --runs 10

Run i uses seed i and the run_seconds of BENCHMARK.json. Each run's
values are printed as it ends. A spread under a third of its bound is
marked "ok".
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    values = {name: [] for name in bounds}
    failed_share = set()
    for seed in range(1, args.runs + 1):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit code {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if not res["correct"]:
            sys.exit(f"seed {seed}: output checks failed\n{proc.stdout}")
        failed_share.add((res["failed"], res["attempted"]) if res["failed"] else 0)
        for name in values:
            values[name].append(res["metrics"][name]["value"])
        print(f"seed {seed}: " + "  ".join(f"{n}={values[n][-1]:.6g}" for n in values), flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds}s, failed shares seen: {sorted(map(str, failed_share))}")
    print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds[name]["bound"]
        flag = "ok" if spread < bound / 3 else ("within" if spread <= bound else "OVER")
        print(f"{name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f} {bound:>6.2f}  {flag}")


if __name__ == "__main__":
    main()

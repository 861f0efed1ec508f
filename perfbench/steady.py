#!/usr/bin/env python3
"""Steadiness check for the patternlets benchmark.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--sets 2]
                                [--seed 1000]

Run from the repository root. Runs `perfbench/run.py` on one workload
`--runs` times per set, each run with its own seed and the run length
`run_seconds` of BENCHMARK.json, and prints for every
end-to-end metric in BENCHMARK.json its median, first and third quartile
(`statistics.quantiles(values, n=4)`) and the quartile spread as a share
of the median, next to the metric's bound. With two or more sets it also
compares each set's median with the first set's.

Checks, exit status 1 if any fails:
  * each spread is within its bound;
  * no set's median differs from the first set's, better or worse, by
    more than the bound;
  * the share of failed operations is the same in every set.
It also flags, without failing, any spread above a third of its bound:
the margin the bounds are chosen to keep.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"steady.py: run failed: {' '.join(cmd)}")
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    if not result["correct"]:
        sys.exit(f"steady.py: seed {seed} produced incorrect output")
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seed", type=int, default=1000, help="first seed; each run adds one")
    args = parser.parse_args()
    if args.runs < 4:
        parser.error("--runs must be at least 4 for quartiles")

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]

    sets = []
    seed = args.seed
    for s in range(args.sets):
        results = []
        for _ in range(args.runs):
            results.append(run_once(args.workload, seed, seconds))
            seed += 1
        sets.append(results)

    ok = True
    shares = set()
    for s, results in enumerate(sets):
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        per_run = {r["failed"] / r["attempted"] for r in results}
        shares.add(tuple(sorted(per_run)))
        print(f"set {s + 1}: {len(results)} runs of {args.workload}, {seconds} s each; "
              f"{attempted} operations attempted, {failed} failed")
        print(f"  {'metric':<12} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med, q1, q3, spread = summarize(values)
            flag = ""
            if spread > m["bound"]:
                flag, ok = "  OVER BOUND", False
            elif spread > m["bound"] / 3:
                flag = "  above bound/3"
            print(f"  {m['name']:<12} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} "
                  f"{spread:>8.4f} {m['bound']:>6.3f}{flag}")
    if len(shares) != 1:
        print(f"failed-operation shares differ between sets: {sorted(shares)}")
        ok = False

    for s in range(1, len(sets)):
        print(f"set {s + 1} against set 1 (positive = worse, bounded both ways):")
        for m in metrics:
            first = statistics.median(r["metrics"][m["name"]]["value"] for r in sets[0])
            this = statistics.median(r["metrics"][m["name"]]["value"] for r in sets[s])
            worse = (this - first) / first if m["better"] == "lower" else (first - this) / first
            flag = ""
            if abs(worse) > m["bound"]:
                flag, ok = "  OUTSIDE BOUND", False
            print(f"  {m['name']:<12} {first:>14.4f} -> {this:>14.4f}  {worse:+.4f} "
                  f"(bound {m['bound']:.3f}){flag}")
    print("steady" if ok else "NOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the patternlets benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `perfbench` package (its own
Cargo workspace, depending on the repository's crates by path) into
$CARGO_TARGET_DIR (default `.bench_build`), runs it, and prints as its
last line one JSON object: `correct`, `attempted`, `failed`, `metrics`.

With `--trace 0` the metrics are the named workload's end-to-end metrics.
With `--trace 1` they are every per-layer metric: each workload's ladder
runs in its own process (the wire workloads install a process-global
fabric provider that must never share a process with the gateway), the
named workload first with half the run length, the others with a sixth
of it each, so a traced run lasts about as long as an untraced one.
Their metrics are merged.

Every benchmark process runs on one CPU, the lowest this process may
use (see "Noise" in README.md for why).
"""

import argparse
import json
import os
import subprocess
import sys
import time

WORKLOADS = ["shm_small", "tcp_bulk", "gateway", "pipeline"]
PACKAGE = "perfbench"
# A run must end within 180 s of its build; keep a margin for shutdown.
DEADLINE_S = 170.0


def build(target_dir):
    manifest = os.path.join(PACKAGE, "Cargo.toml")
    if not os.path.isfile(manifest):
        sys.exit(f"run.py: {manifest} not found; run from the repository root")
    cmd = ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    # Cargo's progress goes to stderr; keep stdout for the result line.
    result = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if result.returncode != 0:
        sys.exit(f"run.py: build failed ({' '.join(cmd)})")
    return os.path.join(target_dir, "release", PACKAGE)


def run_child(binary, workload, seed, seconds, trace, deadline):
    """Run one benchmark process; echo its report, return its result."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace),
           "--out", os.path.join(PACKAGE, "out")]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        sys.exit("run.py: no time left for " + workload)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        sys.exit(f"run.py: {workload} did not finish in time")
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        sys.exit(f"run.py: {workload} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"run.py: malformed result from {workload}: {lines[-1]}")
    return result


def main():
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    binary = build(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    # Pin after the build, so the build still uses every CPU; the
    # benchmark processes inherit the mask. On two virtual CPUs, every
    # hand-off between the workload's threads can wake a halted CPU, and
    # how long the host takes to run it again varies from run to run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # The build may take long on a cold checkout; the run's own budget
    # starts once it is done.
    deadline = time.monotonic() + DEADLINE_S - min(time.monotonic() - start, 10.0)

    if args.trace == 0:
        result = run_child(binary, args.workload, args.seed, args.seconds, 0, deadline)
    else:
        order = [args.workload] + [w for w in WORKLOADS if w != args.workload]
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in order:
            share = 2 if workload == args.workload else 6
            seconds = max(1.0, args.seconds / share)
            part = run_child(binary, workload, args.seed, seconds, 1, deadline)
            result["correct"] = result["correct"] and part["correct"]
            result["attempted"] += part["attempted"]
            result["failed"] += part["failed"]
            result["metrics"].update(part["metrics"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds the GMS benchmark program from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload paging_read --seed 1 --seconds 10 --trace 0

The benchmark program (perfbench/gms_perfbench.cc) is compiled with the
simulator's sources under .bench_build/ in the checkout; later runs rebuild
only what changed. With --trace 1 the span log of the traced run is written
to .bench_build/traces/<workload>-seed<seed>.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only when the build
succeeded, every output check passed and that line is well formed.
"""

import argparse
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("paging_read", "paging_write", "epoch_scaleout")
RUN_TIMEOUT_S = 170  # the program itself must finish well within 180 s


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds the program; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "gms_perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        result = subprocess.run(cmd, cwd=root, stdout=sys.stderr,
                                stderr=sys.stderr)
        if result.returncode != 0:
            log(f"build step failed ({result.returncode}): {' '.join(cmd)}")
            return None
    return os.path.join(build_dir, "gms_perfbench")


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)
            and isinstance(result["metrics"], dict))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build", "gms_perfbench")
    started = time.monotonic()
    binary = build(root, build_dir)
    if binary is None:
        return 1
    log(f"build ready in {time.monotonic() - started:.1f} s")

    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"]
    if args.trace:
        trace_dir = os.path.join(root, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd.append("--trace_out=" + os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json"))
    try:
        # subprocess.run kills and reaps the program if it overruns.
        result = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                                stderr=sys.stderr, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark program exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1
    lines = result.stdout.rstrip("\n").split("\n")
    if not valid_result(lines[-1]):
        sys.stderr.write(result.stdout)
        log("benchmark program printed no valid result line")
        return 1
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())

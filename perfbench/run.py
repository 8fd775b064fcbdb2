#!/usr/bin/env python3
"""Builds and runs the layered benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (which compiles the simulator libraries
from src/) into .bench_build/ at the repository root, then runs one
workload in its own process (`all` runs every workload, one process each,
in turn). The benchmark's own output is passed through; for one workload
its last stdout line is the JSON result. Build output goes to stderr.
Exits nonzero if a correctness check fails, and without printing a result
if the build fails or the run crashes or overruns.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("serve_knee", "serve_over", "rdma_mix", "fleet_migrate")
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then brings the build up to date. True on success."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    # A configure step that failed leaves a cache but no Makefile: redo it.
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-G", "Unix Makefiles",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return os.path.exists(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.workload != "all":
        return run_one(args.workload, args)
    codes = [run_one(w, args) for w in WORKLOADS]
    return next((c for c in codes if c != 0), 0)


def run_one(workload, args):
    """Runs one workload in its own process; returns its exit code."""
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, "%s-seed%d.jsonl" % (workload, args.seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    # A failed correctness check still prints its result (correct: false)
    # and keeps the nonzero exit code.
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

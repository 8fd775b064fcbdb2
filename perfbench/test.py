#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test.py

1. Builds the benchmark and runs the metric-arithmetic unit test.
2. Runs each workload twice at one seed, untraced and traced, and checks
   that every simulated metric and every per-layer count is bit-identical
   between the two runs (host-time metrics are left out).
3. Runs each workload once at a held-out seed and checks that it keeps its
   shape: serve_knee barely sheds, serve_over sheds, rdma_mix completes
   reads and writes, fleet_migrate completes migrations.

Exits nonzero on the first failure. Takes several minutes (rdma_mix rounds
are slow on today's code).
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build step and binary path)

SEED = 4242
HELD_OUT_SEED = 977


def bench(workload, seed, trace):
    cmd = [run.BINARY, "--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode != 0 or not result["correct"]:
        raise AssertionError("%s seed %d trace %d failed:\n%s" % (workload, seed, trace, out.stdout))
    return result


def deterministic(result):
    """Metrics that a seed must fix exactly: simulated ones and counts."""
    host = {"host_us_per_ok_op", "setup_s", "peak_rss_mb", "bench.trace_overhead_pct",
            "bench.attributed_share"}
    return {k: v["value"] for k, v in result["metrics"].items()
            if k not in host and "host_" not in k}


def check_same_seed(workload):
    for trace in (0, 1):
        a = bench(workload, SEED, trace)
        b = bench(workload, SEED, trace)
        da, db = deterministic(a), deterministic(b)
        if not da or da != db or (a["attempted"], a["failed"]) != (b["attempted"], b["failed"]):
            diff = sorted(k for k in da if da[k] != db.get(k))
            raise AssertionError("%s trace %d differs between same-seed runs: %s"
                                 % (workload, trace, diff))


def check_shape(workload):
    m = {k: v["value"] for k, v in bench(workload, HELD_OUT_SEED, 1)["metrics"].items()}
    shapes = {
        "serve_knee": m["router.shed_ratio"] < 0.05 and m["router.mean_batch"] >= 1,
        "serve_over": m["router.shed_ratio"] > 0.5,
        "rdma_mix": m["net.roce.read_sim_p50_us"] > 0 and m["net.roce.write_sim_p50_us"] > 0,
        "fleet_migrate": m["vfpga.ckpt.bytes_per_migration"] > 0 and m["sim.windows_per_op"] > 0,
    }
    if not shapes[workload]:
        raise AssertionError("%s lost its shape at seed %d: %s" % (workload, HELD_OUT_SEED, m))


def main():
    if not run.build():
        print("perfbench test: build failed")
        return 1
    unit = subprocess.run([os.path.join(run.BUILD, "perfbench_metrics_test")])
    if unit.returncode != 0:
        return 1
    for workload in run.WORKLOADS:
        check_same_seed(workload)
        check_shape(workload)
        print("perfbench test: %s ok" % workload)
    print("perfbench test: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The repository benchmark: build the simulator, run one workload, print
its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
simulator library and the C++ workload runner (perfbench/src) under
.bench_build/perfbench; later runs reuse the build.

--trace 0 prints the end-to-end metrics. Set-up time is the median of
several cold set-ups, each in its own process; every other figure comes
from one measuring process that runs the timed window, then checks every
output outside it. --trace 1 runs the workload once more with spans on,
times the per-layer cells, and prints the per-layer metrics; the spans
are written to .bench_build/perfbench-work/spans-<workload>.jsonl.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The exit code is 0 only when every output check passed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")

WORKLOADS = ("serve_fleet_stream", "infer_resnet20", "noise_accuracy")

# Cold set-ups per run, each in its own process; setup_s is their median.
SETUP_PROCESSES = 5

# The measurement stays well inside 180 s; only a first build (in a
# fresh checkout) may take longer.
DEADLINE_S = 170.0
BUILD_DEADLINE_S = 800.0

# The metric names, units and order come from BENCHMARK.json at the
# checkout root. Host figures are CPU time normalised to a reference host;
# "_sim" units are simulated time, deterministic per seed.
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# End-to-end metrics only some workloads exercise; every other one is
# exercised by all three. A workload that does not exercise a metric
# reports this neutral constant for it: every run prints every metric,
# and none is 0.
EXERCISED_BY = {
    "replay_requests_per_cpu_s": ("serve_fleet_stream",),
    "sim_throughput_per_us": ("serve_fleet_stream", "infer_resnet20"),
    "sim_latency_p50_ns": ("serve_fleet_stream", "infer_resnet20"),
    "sim_latency_p99_ns": ("serve_fleet_stream",),
    "sim_energy_per_request_nj": ("infer_resnet20",),
    "sim_top1_agreement": ("infer_resnet20", "noise_accuracy"),
}
NOT_EXERCISED = 1.0


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("deadline exceeded")
    return left


def build(deadline):
    """Configure once, then an incremental build (a no-op when current)."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=remaining(deadline))
        if proc.returncode != 0:
            raise BenchError("build step failed: " + " ".join(cmd))


def run_workload(args, mode, work_dir, deadline):
    """Run one workload process; returns its parsed JSON record."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--work-dir", work_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=remaining(deadline))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("%s process printed nothing (exit %d)"
                         % (mode, proc.returncode))
    record = json.loads(lines[-1])
    if proc.returncode != 0 and record.get("correct", False):
        raise BenchError("%s process exited %d" % (mode, proc.returncode))
    for check in record.get("checks", []):
        if not check["ok"]:
            log("check failed: %s %s" % (check["name"], check["detail"]))
    return record


def end_to_end(args, spec, work_dir, deadline):
    setups = []
    for _ in range(SETUP_PROCESSES):
        rec = run_workload(args, "setup", work_dir, deadline)
        setups.append(rec["metrics"]["setup_s"])
    rec = run_workload(args, "measure", work_dir, deadline)
    metrics = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        if name == "setup_s":
            value = statistics.median(setups)
        elif args.workload in EXERCISED_BY.get(name, WORKLOADS):
            value = rec["metrics"][name]
        else:
            value = NOT_EXERCISED
        metrics[name] = {"value": value, "unit": m["unit"]}
    return rec, metrics


def per_layer(args, spec, work_dir, deadline):
    """A layer the workload does not touch reads 0."""
    rec = run_workload(args, "trace", work_dir, deadline)
    metrics = {m["name"]: {"value": rec["metrics"].get(m["name"], 0.0),
                           "unit": m["unit"]}
               for m in spec["per_layer"]}
    return rec, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    work_dir = os.path.join(ROOT, ".bench_build", "perfbench-work")
    try:
        with open(SPEC) as f:
            spec = json.load(f)
        build(time.monotonic() + BUILD_DEADLINE_S)
        deadline = time.monotonic() + DEADLINE_S
        os.makedirs(work_dir, exist_ok=True)
        if args.trace:
            rec, metrics = per_layer(args, spec, work_dir, deadline)
        else:
            rec, metrics = end_to_end(args, spec, work_dir, deadline)
    except (BenchError, OSError, subprocess.SubprocessError,
            ValueError, KeyError) as e:
        log("error: %s" % e)
        return 1
    finally:
        shutil.rmtree(os.path.join(work_dir, "serve-segments"),
                      ignore_errors=True)

    result = {"correct": bool(rec["correct"]),
              "attempted": int(rec["attempted"]),
              "failed": int(rec["failed"]),
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the repo benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under perfbench/; each run's scratch files go to a
private directory there and are removed afterwards. Build output goes to
stderr; stdout carries perfbench's lines, the last of which is the JSON
result. The exit code is perfbench's: 0 when every correctness oracle
passed, nonzero otherwise (no result is printed when the build fails).
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("attack_sweep", "synthesis", "campaign", "explore")
RUN_TIMEOUT_S = 170


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args()


def build(source_dir, build_dir):
    """Configures (once) and builds the benchmark; False on failure."""
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not any(os.path.exists(os.path.join(build_dir, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", source_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def run_perfbench(command):
    """Runs perfbench in its own process group and reaps the group."""
    proc = subprocess.Popen(command, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        # Campaign workers are perfbench's children; make sure none
        # outlives it, even when perfbench died mid-campaign.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def main():
    args = parse_args()
    source_dir = os.path.dirname(os.path.abspath(__file__))
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    if not build(source_dir, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    work_dir = os.path.join(build_root, "perfbench-work", str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    try:
        sys.stdout.flush()
        return run_perfbench([
            os.path.join(build_dir, "perfbench"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--work-dir", work_dir,
        ])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

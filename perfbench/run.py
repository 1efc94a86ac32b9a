#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs one workload.

    python3 perfbench/run.py --workload fence_storm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test      # build, then run the fidelity test

Run from the root of a checkout. The build goes to .bench_build/perfbench
(Release, compiled from ../src by perfbench/CMakeLists.txt); build output is
sent to stderr. The last line of stdout is the benchmark's JSON result; the
lines before it are the host record (compiler, nproc, load average, seed)
and a human-readable copy of the metrics. Exits non-zero, printing no
result, when the build fails, the run fails or the run takes too long.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def child_env():
    # The library reads NBE_* variables; none may change what is measured.
    return {k: v for k, v in os.environ.items() if not k.startswith("NBE_")}


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=child_env()).returncode != 0:
            return False
    return True


def run_workload(args):
    cmd = [str(BUILD / "nbe_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch", str(BUILD / "scratch")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=child_env())
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        print("perfbench: benchmark exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("perfbench: no JSON result", file=sys.stderr)
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(lines[-1])
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload",
                    help="fence_storm, transactions, bulk_rw or diagnose")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--test", action="store_true",
                    help="build and run the fidelity test instead")
    args = ap.parse_args()
    if not args.test and (args.workload is None or args.seed is None
                          or args.seed < 0 or not args.seconds
                          or args.seconds < 1):
        ap.error("--workload, --seed >= 0 and --seconds >= 1 are required")
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.test:
        return subprocess.run([str(BUILD / "perfbench_fidelity_test")],
                              env=child_env()).returncode
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds fairjob-bench from source and runs one workload.

    python3 fairjob-bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 fairjob-bench/run.py --self-test

Run from the root of a checkout. The build (a Release CMake tree of this
package, which pulls in the library from the repository root) goes to
.bench_build/; build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Exits non-zero if the build fails, an output check
fails or the arguments are wrong.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
WORKLOADS = ("paper-audit", "scale-rebuild")


def build(targets):
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] +
        list(targets),
    ]
    for step in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("fairjob-bench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def binary(name):
    return os.path.join(BUILD_DIR, name)


def self_test():
    if not build(["fairjob_bench", "fairjob_bench_test"]):
        return 1
    unit = subprocess.run([binary("fairjob_bench_test")])
    if unit.returncode != 0:
        return unit.returncode
    schema = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "tests", "test_schema.py"),
         binary("fairjob_bench")])
    return schema.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the harness's own tests")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    missing = [flag for flag in ("workload", "seed", "seconds", "trace")
               if getattr(args, flag) is None]
    if missing:
        parser.error("required: " + ", ".join("--" + m for m in missing))
    if not build(["fairjob_bench"]):
        return 2
    sys.stdout.flush()
    done = subprocess.run([
        binary("fairjob_bench"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", os.path.join(BUILD_DIR, "work")])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())

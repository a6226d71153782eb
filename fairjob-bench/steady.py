#!/usr/bin/env python3
"""Runs one workload N times on consecutive seeds and prints, per metric,
the median, the quartiles and the spread (interquartile range / median),
next to the bound BENCHMARK.json gives it.

    python3 fairjob-bench/steady.py --workload scale-rebuild --runs 10
    python3 fairjob-bench/steady.py --workload paper-audit --runs 5 --trace 1
    python3 fairjob-bench/steady.py --workload paper-audit --runs 5 --same-seed

Seeds start at seeds.json's default seed unless --first-seed is given;
--same-seed runs every time on that first seed, so the spread is the host's
and the run's own, without the seed's. Run
from the root of a checkout. Exits non-zero if a run fails or reports an
incorrect output. The spreads are what the bounds are set from: a metric is
flagged when its spread is not below a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def load_json(path):
    with open(path) as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int)
    parser.add_argument("--same-seed", action="store_true",
                        help="repeat the first seed instead of counting up")
    args = parser.parse_args()

    bench = load_json(os.path.join(BENCH_DIR, "..", "BENCHMARK.json"))
    seeds = load_json(os.path.join(BENCH_DIR, "seeds.json"))
    seconds = args.seconds or bench["run_seconds"]
    first = seeds["default"] if args.first_seed is None else args.first_seed
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values, units, ok = {}, {}, True
    seeds = ([first] * args.runs if args.same_seed
             else range(first, first + args.runs))
    for seed in seeds:
        done = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        if done.returncode != 0 or result is None or not result["correct"]:
            print(f"seed {seed}: FAILED (exit {done.returncode})")
            print("\n".join(lines[-20:]))
            ok = False
            continue
        print(f"seed {seed}: attempted {result['attempted']}, "
              f"failed {result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s, "
          f"trace {args.trace}, "
          f"{'seed ' + str(first) if args.same_seed else 'seeds from ' + str(first)}")
    print(f"{'metric':48} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, series in values.items():
        q1, median, q3 = quartiles(series)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread >= bound / 3:
            flag = "  <-- spread >= bound/3: " + " ".join(
                f"{v:.4g}" for v in series)
        print(f"{name:48} {units[name]:6} {median:12.6g} {q1:12.6g} "
              f"{q3:12.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

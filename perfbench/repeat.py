"""Run one workload over several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/repeat.py --workload desk --seeds 1-10 [--seconds 30] [--trace 0]

For each metric it prints the median of the runs, the first and third
quartile as ``statistics.quantiles(values, n=4)`` gives them, and the spread:
the interquartile distance as a share of the median. Runs go one after
another. The result line of every run is also printed, so the output can be
kept as the record of a measurement.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from stats import median, quartiles, spread

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def parse_seeds(text):
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    values = {}
    units = {}
    for seed in parse_seeds(args.seeds):
        argv = [sys.executable, RUN, "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: run failed with exit code {proc.returncode}")
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: {lines[-1]}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    print(f"{'metric':34} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, xs in values.items():
        mid = median(xs)
        q1, q3 = quartiles(xs) if len(xs) >= 2 else (mid, mid)
        share = spread(xs) if len(xs) >= 2 and mid else 0.0
        print(f"{name:34} {units[name]:6} {mid:12.6g} {q1:12.6g} {q3:12.6g} {share:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

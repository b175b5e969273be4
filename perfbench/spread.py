#!/usr/bin/env python3
"""Run the benchmark over several seeds and report how steady each metric is.

    python3 perfbench/spread.py --seeds 1-10 --seconds 20 --trace 0 sgemm-4096 random-6x

For every workload and metric, prints the median over the seeds and the
distance between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)). Each run is one call of run.py, made
one after another. With --json FILE the per-seed values, medians and spreads
are also written to FILE. Exits non-zero if any run fails or reports correct=false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--seeds", default="1-10", help="inclusive range A-B")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write medians and spreads here")
    args = parser.parse_args()

    summary = {}
    for workload in args.workloads:
        values = {}
        units = {}
        for seed in seeds_of(args.seeds):
            run = subprocess.run(
                [sys.executable, RUN, "--workload", workload, "--seed",
                 str(seed), "--seconds", str(args.seconds), "--trace",
                 str(args.trace)],
                stdout=subprocess.PIPE, text=True)
            if run.returncode != 0:
                print(f"{workload} seed {seed}: run.py exited {run.returncode}")
                return 1
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect result")
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed}: {result['attempted']} runs",
                  flush=True)
        summary[workload] = {}
        for name, vals in values.items():
            median = statistics.median(vals)
            spread = 0.0
            if len(vals) > 1 and median:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / median
            summary[workload][name] = {"median": median, "iqr_share": spread,
                                       "unit": units[name], "values": vals}
            print(f"  {workload:16} {name:30} median {median:<14.6g} "
                  f"{units[name]:6} iqr/median {spread:.4f}", flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

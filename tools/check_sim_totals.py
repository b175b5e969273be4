#!/usr/bin/env python3
"""Check perfbench's simulated totals at paper scale against a golden file.

    python3 tools/check_sim_totals.py [--binary PATH] [--golden PATH] [--write]

Run from the repository root after building perfbench
(`cmake -S perfbench -B .bench_build/perfbench -DCMAKE_BUILD_TYPE=Release`
and `cmake --build .bench_build/perfbench --target uvmsim_perfbench`).
Runs `uvmsim_perfbench --seconds 1 --trace 1` on every workload at seeds 1
and 104729, one run at a time, and compares every simulated total (the
`*_sim_ns`, count, byte and ratio metrics) with the golden file. Host-side
call counts and host-time ratios are not simulated results and are skipped.
Exits 1 naming each metric that differs; `--write` records the current
totals as the new golden file instead.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BINARY = os.path.join(ROOT, ".bench_build", "perfbench", "uvmsim_perfbench")
GOLDEN = os.path.join(ROOT, "tests", "golden", "perfbench_totals.json")
WORKLOADS = ("sgemm-4096", "random-6x", "gauss-seidel-4x", "tenants-16")
SEEDS = (1, 104729)
RUN_TIMEOUT_S = 170

# Counted on the host side of the replay, not by the simulation.
HOST_METRICS = {"gpu.generate_calls", "gpu.classify_calls",
                "gpu.bulk_probe_calls", "trace.overhead_ratio"}


def is_sim_total(name, unit):
    if name in HOST_METRICS:
        return False
    return name.endswith("_sim_ns") or unit in ("count", "B", "ratio")


def sim_totals(binary, workload, seed):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "1"]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         timeout=RUN_TIMEOUT_S, check=True)
    result = json.loads(run.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError(f"{workload} seed {seed}: perfbench checks failed")
    return {name: m["value"] for name, m in result["metrics"].items()
            if is_sim_total(name, m["unit"])}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", default=BINARY)
    parser.add_argument("--golden", default=GOLDEN)
    parser.add_argument("--write", action="store_true",
                        help="record the current totals as the golden file")
    args = parser.parse_args()

    current = {}
    for workload in WORKLOADS:
        current[workload] = {}
        for seed in SEEDS:
            current[workload][str(seed)] = sim_totals(args.binary, workload,
                                                      seed)
            print(f"ran {workload} seed {seed}", flush=True)

    if args.write:
        with open(args.golden, "w") as f:
            json.dump(current, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.golden}")
        return 0

    with open(args.golden) as f:
        golden = json.load(f)
    diffs = []
    for workload, seeds in golden.items():
        for seed, expected in seeds.items():
            got = current.get(workload, {}).get(seed, {})
            for name in sorted(set(expected) | set(got)):
                if expected.get(name) != got.get(name):
                    diffs.append(f"{workload} seed {seed} {name}: golden "
                                 f"{expected.get(name)}, got {got.get(name)}")
    for line in diffs:
        print(f"MISMATCH {line}")
    if diffs:
        return 1
    print(f"all simulated totals match {args.golden}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed on each chosen workload
(untraced) and prints, per metric, the median and the distance between
the first and third quartile as a share of the median, next to the
metric's bound. Run from the repository root:

    python3 perfbench/spread.py --seeds 10 [--workloads restart paper]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", default=names)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    # Build where the benchmark's own runs build.
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    failed = False
    for workload in args.workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            run = subprocess.run(cmd, capture_output=True, text=True, env=env)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {run.returncode}\n{run.stderr}")
                failed = True
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
                failed = True
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items())), flush=True)
        for name, vals in sorted(values.items()):
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(name, float("nan"))
            flag = "" if spread < bound / 3 else ("  > bound/3" if spread <= bound else "  > BOUND")
            print(f"  {workload:12s} {name:22s} median {med:10.4g}  spread {spread:6.3f}  bound {bound}{flag}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()

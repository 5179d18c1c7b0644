#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command from BENCHMARK.json once per seed on each named workload
and prints, per metric, the median and the interquartile range as a share
of the median (statistics.quantiles(values, n=4)), next to the metric's
bound. Run from the repository root:

    python3 perfbench/spread.py --seeds 10 paper-matrix journaled-run
    python3 perfbench/spread.py --seeds 5 --first-seed 100 service-calm

The first run in a fresh checkout builds the benchmark.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*", help="default: every workload")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    ok = True
    for workload in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + [
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]),
                "--trace", args.trace,
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last)
            if proc.returncode != 0 or not result.get("correct") or result.get("failed") != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}, result {last}")
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            raw = re.search(r"^ops: n=\d+ host p50 ([0-9.]+) ms", proc.stderr, re.M)
            if raw:
                values.setdefault("(raw host p50 ms)", []).append(float(raw.group(1)))
        print(f"{workload} ({args.seeds} seeds)")
        for name, vs in values.items():
            med = statistics.median(vs)
            if len(vs) < 2 or med == 0:
                print(f"  {name:<20} median {med:<14.6g} n={len(vs)}")
                continue
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / abs(med)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- above a third of the bound"
            print(f"  {name:<20} median {med:<14.6g} spread {spread:7.2%}  bound {bound}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

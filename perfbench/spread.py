#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Usage, from the root of a checkout:

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [WORKLOAD ...]

Runs the benchmark command of BENCHMARK.json `--runs` times per workload,
each time with the next seed, and prints for every end-to-end metric its
median and its spread: the distance between the first and third
quartiles (`statistics.quantiles(values, n=4)`) as a share of the median,
next to the metric's bound. Spreads at or above a third of the bound are
flagged, `setup_s` included.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_once(bench, workload, seed):
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect output\n{out.stdout[-2000:]}")
    return result["metrics"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    worst = 0.0
    for w in workloads:
        runs = [run_once(bench, w, args.first_seed + i) for i in range(args.runs)]
        print(f"{w}: {args.runs} runs")
        for m in bench["end_to_end"]:
            values = [r[m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "  <-- over a third of the bound" if spread >= m["bound"] / 3 else ""
            worst = max(worst, spread / m["bound"])
            print(f"  {m['name']:<14} median {med:>14.6f} {m['unit']:<4} "
                  f"spread {spread:6.3f} bound {m['bound']:.2f}{flag}")
            print("      " + " ".join(f"{v:.4g}" for v in values))
    print(f"largest spread as a share of its bound: {worst:.2f}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Self-tests of the benchmark.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Checks, with short runs of the benchmark command of BENCHMARK.json:

* the metric names and units printed with --trace 0 (every workload) and
  --trace 1 equal those declared in BENCHMARK.json;
* two different seeds give the same set of metrics;
* an injected wrong answer and an injected refused operation each make
  the run report failed > 0 and correct = false, on every workload.

Exits 0 when every check passes.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SECONDS = 2


def run(bench, workload, seed, trace, inject=None):
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)}: exit {out.returncode}\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def declared(bench, key):
    return {m["name"]: m["unit"] for m in bench[key]}


def printed(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for w in workloads:
        r = run(bench, w, 1, 0)
        check(printed(r) == declared(bench, "end_to_end"), f"{w}: --trace 0 prints the end_to_end metrics")
        check(r["correct"] and r["failed"] == 0, f"{w}: clean run is correct")
        r2 = run(bench, w, 2, 0)
        check(set(r2["metrics"]) == set(r["metrics"]), f"{w}: seeds 1 and 2 give the same metrics")
        for inject in ["wrong", "refuse"]:
            bad = run(bench, w, 1, 0, inject)
            check(bad["failed"] > 0 and not bad["correct"], f"{w}: --inject {inject} is counted as a failure")
    t1 = run(bench, workloads[0], 1, 1)
    t2 = run(bench, workloads[-1], 2, 1)
    check(printed(t1) == declared(bench, "per_layer"), "--trace 1 prints the per_layer metrics")
    check(set(t2["metrics"]) == set(t1["metrics"]), "--trace 1: other workload and seed, same metrics")
    if failures:
        sys.exit(f"{len(failures)} self-test(s) failed")
    print("all self-tests passed")


if __name__ == "__main__":
    main()

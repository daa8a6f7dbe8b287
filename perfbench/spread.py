#!/usr/bin/env python3
"""Run-to-run steadiness of the end-to-end metrics.

    python3 perfbench/spread.py

Run it from the root of a checkout. For every workload in BENCHMARK.json it
makes two sets of untraced runs of perfbench/run.py, seeds 1..10 in each
(all workloads' first set, then all workloads' second set), and prints per
metric and set the median of the ten values and the distance between their
first and third quartile as a share of that median, then how far the second
set's median moved from the first's. The benchmark is steady when every
spread except that of setup_s, and every move, stays within the metric's
bound in BENCHMARK.json; the script exits non-zero otherwise. A run takes
about a minute, so the whole check takes about 40 minutes per two workloads.
"""

import json
import os
import statistics
import subprocess
import sys

SEEDS = range(1, 11)
SETS = 2


def run_set(spec, workload):
    """Values of each end-to-end metric over the seeds, or None on a failure."""
    run_py = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in SEEDS:
        proc = subprocess.run(
            [sys.executable, run_py, "--workload", workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True)
        if proc.returncode != 0:
            print("%s seed %d: FAILED\n%s%s" % (workload, seed, proc.stdout, proc.stderr),
                  file=sys.stderr)
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
    return values


def main():
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    medians = {}
    steady = True
    for s in range(SETS):
        for workload in workloads:
            values = run_set(spec, workload)
            if values is None:
                return 1
            print("%s, set %d (seeds %d..%d)" % (workload, s + 1, SEEDS[0], SEEDS[-1]))
            for m in spec["end_to_end"]:
                q1, med, q3 = statistics.quantiles(values[m["name"]], n=4)
                spread = (q3 - q1) / med
                ok = m["name"] == "setup_s" or spread <= m["bound"]
                line = "  %-14s median %12.6g %-4s  spread %6.2f%% (bound %5.2f%%)" % (
                    m["name"], med, m["unit"], 100 * spread, 100 * m["bound"])
                first = medians.setdefault((workload, m["name"]), med)
                if s > 0:
                    move = med / first - 1 if m["better"] == "lower" else first / med - 1
                    ok = ok and move <= m["bound"]
                    line += "  moved %+6.2f%% from set 1" % (100 * move)
                steady = steady and ok
                print(line + ("" if ok else "  TOO WIDE"), flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

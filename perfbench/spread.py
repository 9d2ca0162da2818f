#!/usr/bin/env python3
"""Run workloads over several seeds and report each metric's spread.

Usage, from the root of the repository:

    python3 perfbench/spread.py [--workloads still_vga,still_5mp,serve_fleet]
                                [--seeds 1-10] [--seconds 20] [--trace 0]

Every run prints its metrics by name and unit and its output-check
verdict. For each workload and metric the summary then gives the median
of the runs and the distance between their first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median, next to
the bound BENCHMARK.json fixes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", trace]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    for line in lines:
        if line.startswith("host:"):
            print("  " + line)
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", default="0", choices=["0", "1"])
    a = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in a.workloads.split(","):
        values = {}
        for seed in seed_list(a.seeds):
            result = run(workload, seed, a.seconds, a.trace)
            verdict = "correct" if result["correct"] else "INCORRECT"
            print("%s seed %d: %s, %d of %d failed" % (workload, seed, verdict, result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                print("  %-28s %.6g %s" % (name, m["value"], m["unit"]))
            sys.stdout.flush()
        for name, vals in values.items():
            med = statistics.median(vals)
            spread = "-"
            if len(vals) >= 2 and med:
                q = statistics.quantiles(vals, n=4)
                spread = "%.4f" % ((q[2] - q[0]) / med)
            print("%s %-28s median %-14.6g iqr/median %-8s bound %s"
                  % (workload, name, med, spread, bounds.get(name, "-")))


if __name__ == "__main__":
    main()

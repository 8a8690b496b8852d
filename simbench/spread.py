#!/usr/bin/env python3
"""Run the benchmark N times per workload and print the spread of
every end-to-end metric next to its bound.

    python3 simbench/spread.py [--runs 10] [--sets 1] [--seed0 1]
                               [--workloads a,b] [--out file.json]

Run from the repository root. It reads BENCHMARK.json for the command,
run length, workloads and bounds, runs each workload --runs times per
set with seeds seed0, seed0+1, ..., and prints per metric the median,
the quartiles (statistics.quantiles(n=4)), the interquartile spread as
a share of the median, and the bound. With --sets 2 it runs two sets
of runs with different seeds and also prints how far the second
set's median moved from the first's in the worse direction. Raw
results go to --out (default .bench_build/spread.json).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds):
    full = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(full, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    last = r.stdout.rstrip("\n").split("\n")[-1]
    if r.returncode != 0:
        sys.exit("spread: %s seed %d failed (exit %d): %s"
                 % (workload, seed, r.returncode, last))
    return json.loads(last)


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1, choices=[1, 2])
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--workloads", default="")
    p.add_argument("--out", default=os.path.join(".bench_build",
                                                 "spread.json"))
    a = p.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    if a.workloads:
        names = a.workloads.split(",")

    raw = {}
    for w in names:
        sets = []
        for s in range(a.sets):
            runs = []
            for i in range(a.runs):
                seed = a.seed0 + s * 1000 + i
                res = run_once(bench["command"], w, seed,
                               bench["run_seconds"])
                runs.append(res)
                print("%s set %d seed %d: %s" % (w, s + 1, seed, " ".join(
                    "%s=%.6g" % (k, v["value"])
                    for k, v in res["metrics"].items())), flush=True)
            sets.append(runs)
        raw[w] = sets

        print("\n%s" % w)
        print("  %-18s %4s %12s %12s %12s %8s %7s %8s" % (
            "metric", "set", "median", "q1", "q3", "spread", "bound",
            "drift"))
        first = {}
        for s, runs in enumerate(sets):
            fails = {(r["failed"], r["attempted"]) for r in runs}
            shares = {f / att for f, att in fails}
            print("  failed share set %d: %s" % (s + 1, sorted(shares)))
            for m in runs[0]["metrics"]:
                vals = [r["metrics"][m]["value"] for r in runs]
                med, q1, q3, spread = summarize(vals)
                b = bounds.get(m, {})
                drift = ""
                if s == 0:
                    first[m] = med
                elif b:
                    worse = (first[m] - med if b["better"] == "higher"
                             else med - first[m])
                    drift = "%+.4f" % (worse / first[m])
                print("  %-18s %4d %12.6g %12.6g %12.6g %8.4f %7s %8s" % (
                    m, s + 1, med, q1, q3, spread,
                    b.get("bound", "-"), drift))
        sys.stdout.flush()

    os.makedirs(os.path.dirname(a.out) or ".", exist_ok=True)
    with open(a.out, "w") as f:
        json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()

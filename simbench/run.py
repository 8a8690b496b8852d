#!/usr/bin/env python3
"""Build the simbench program from this checkout's sources and run one
workload.

    python3 simbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The first call configures and builds
(Release) under .bench_build/simbench; later calls rebuild only what
changed. Build output goes to stderr, so the last line of stdout is
the program's JSON result. A traced run (--trace 1) also writes Chrome
trace-event JSON to .bench_build/trace-<workload>-<seed>.json and
fails unless that file parses as such.

For a workload listed in BENCHMARK.json the result line holds exactly
the manifest's metrics (end_to_end untraced, per_layer traced), in its
order and units; a metric the program did not report is an error.
Figures the program measures beyond the manifest stay in the tables
printed above the result line.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "simbench")
WORKLOADS = ["ops-sweep", "serve-knn", "tenant-mix", "bulk-checked"]
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build the program; exit non-zero on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "simbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("simbench: build failed: " + " ".join(cmd))


def check_trace(path):
    """Exit non-zero unless @path is Chrome trace-event JSON."""
    try:
        with open(path) as f:
            doc = json.load(f)
        events = doc["traceEvents"]
        ok = bool(events) and all(
            e["ph"] == "X" and e["dur"] >= 0 and "ts" in e for e in events)
    except (OSError, ValueError, KeyError, TypeError) as e:
        sys.exit("simbench: bad trace file %s: %s" % (path, e))
    if not ok:
        sys.exit("simbench: trace file %s has no valid events" % path)


def manifest_result(line, workload, traced):
    """@return The result line @line cut to BENCHMARK.json's metrics
    for @workload, or @line unchanged for a workload outside it."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if workload not in [w["name"] for w in bench["workloads"]]:
        return line
    res = json.loads(line)
    wanted = bench["per_layer" if traced else "end_to_end"]
    got = res["metrics"]
    metrics = {}
    for m in wanted:
        v = got.get(m["name"])
        if v is None or v["unit"] != m["unit"]:
            sys.exit("simbench: %s did not report %s in %s"
                     % (workload, m["name"], m["unit"]))
        metrics[m["name"]] = v
    extra = sorted(set(got) - set(metrics))
    if extra:
        print("outside BENCHMARK.json: " + " ".join(extra))
    res["metrics"] = metrics
    return json.dumps(res)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()

    build()
    cmd = [os.path.join(BUILD, "simbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace)]
    trace_path = os.path.join(ROOT, ".bench_build",
                              "trace-%s-%d.json" % (a.workload, a.seed))
    if a.trace:
        cmd += ["--trace-out", trace_path]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("simbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = r.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    if r.returncode != 0:
        print(lines[-1], flush=True)
        sys.exit("simbench: program exited with %d" % r.returncode)
    if a.trace:
        check_trace(trace_path)
    print(manifest_result(lines[-1], a.workload, a.trace), flush=True)


if __name__ == "__main__":
    main()

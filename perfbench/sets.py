#!/usr/bin/env python3
"""Runs sets of benchmark runs and reports their spread.

    python3 perfbench/sets.py [--seeds 1-10] [--workloads a,b] [--trace 0|1]
                              [--compare EARLIER.json]

Run from the repository root.  For every seed it runs each workload once
(python3 perfbench/run.py ... --seconds <run_seconds of BENCHMARK.json>),
round-robin so that host drift hits every workload alike.  It prints, per
workload and metric, the median, the quartiles and the spread
(q3 - q1) / median, the latter beside the metric's bound from
BENCHMARK.json, and the host-probe times of every run.  With --compare it
also prints each median as a share of the earlier set's median.  The whole
set is saved to .bench_out/set-<time>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def invoke(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.monotonic()
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True)
    wall = time.monotonic() - t0
    lines = p.stdout.strip().splitlines()
    reps = [json.loads(l[4:]) for l in lines if l.startswith("rep ")]
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    return dict(workload=workload, seed=seed, exit=p.returncode, wall=wall,
                reps=reps, result=result,
                stderr=p.stderr[-2000:] if p.returncode else "")


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return dict(median=med, q1=q1, q3=q3,
                spread=(q3 - q1) / abs(med) if med else 0.0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--compare", default="")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in seeds_of(args.seeds):
        for w in workloads:
            r = invoke(w, seed, bench["run_seconds"], args.trace)
            runs.append(r)
            res = r["result"] or {}
            print("%-14s seed %-3d exit %d  %5.1fs  probe %s  correct %s  "
                  "failed %s/%s" % (
                      w, seed, r["exit"], r["wall"],
                      " ".join("%.3f" % x["probe_s"] for x in r["reps"]),
                      res.get("correct"), res.get("failed"),
                      res.get("attempted")), flush=True)
            if r["exit"]:
                print(r["stderr"], flush=True)
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)["summary"]
    table = {}
    for w in workloads:
        results = [r["result"] for r in runs
                   if r["workload"] == w and r["result"]]
        if not results:
            continue
        print("\n%s (%d runs)" % (w, len(results)))
        table[w] = {}
        for m in results[0]["metrics"]:
            vals = [x["metrics"][m]["value"] for x in results]
            s = summary(vals)
            table[w][m] = s
            line = "  %-26s %12.5f  q1 %12.5f  q3 %12.5f  spread %6.3f" % (
                m, s["median"], s["q1"], s["q3"], s["spread"])
            if m in bounds:
                line += "  bound %.3f%s" % (
                    bounds[m], "" if s["spread"] <= bounds[m] / 3 else "  WIDE")
            old = earlier.get(w, {}).get(m)
            if old and old["median"]:
                line += "  vs earlier %.3f" % (s["median"] / old["median"])
            print(line + " " + results[0]["metrics"][m]["unit"])
    os.makedirs(".bench_out", exist_ok=True)
    path = ".bench_out/set-%d.json" % time.time()
    with open(path, "w") as f:
        json.dump(dict(runs=runs, summary=table, trace=args.trace), f,
                  indent=1)
    print("\nsaved", path)
    return 0 if all(r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())

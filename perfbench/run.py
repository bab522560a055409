#!/usr/bin/env python3
"""Mirage end-to-end benchmark: one workload, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/worker.exe (release profile,
build directory .bench_build), then runs instances of the workload for about
S seconds, each in a fresh worker process with its own generation seed
(instance_seed).  An instance generates the database through the library's
public API, exports it and replays every query on it; its output is checked
here (check_output).

--trace 0 reports the end-to-end metrics of BENCHMARK.json as medians over
the instances, and closes with a repeat of the first instance, whose output
must be identical.  --trace 1 runs every instance untraced and then traced
(same seed, so again identical output) and reports the per-layer metrics,
derived from the traced instances' Chrome trace files (kept under
.bench_out/traces), plus the tracing overhead.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
attempted counts replayed queries, failed the non-exact ones (all of an
instance's queries when it crashed).  Exit code 0 only when every output
check passed and no query failed.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import zlib

# Each workload makes one layer dominate its e2e_s (see perfbench/README.md).
WORKLOADS = {
    "ssb_membership": dict(workload="ssb", sf=32.0, domains=1, chunk_rows=0,
                           copies=1, compress=False, queries=13),
    "tpcds_cp": dict(workload="tpcds", sf=3.2, domains=1, chunk_rows=65536,
                     copies=1, compress=False, queries=100),
    "tpch_gz_tiles": dict(workload="tpch", sf=0.8, domains=2, chunk_rows=65536,
                          copies=8, compress=True, queries=22),
}

# --tiny: same code paths at a scale that runs in about a second (tests)
TINY = {
    "ssb_membership": dict(sf=0.5),
    "tpcds_cp": dict(sf=0.5, chunk_rows=2000),
    "tpch_gz_tiles": dict(sf=0.2, chunk_rows=2000),
}

SETUP_SAMPLES = 10  # setup_s is the median of at least this many set-ups
RUN_DEADLINE_S = 165.0  # after the build; an invocation must end in 180 s
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
WORKER = os.path.join(BUILD_DIR, "default", "perfbench", "worker.exe")
MB = 1e6
STAGES = ["t_extract", "t_decouple", "t_cdf", "t_gd", "t_acc", "t_cs",
          "t_cp", "t_pf"]


def log(*a):
    print(*a, file=sys.stderr, flush=True)


def build():
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", BUILD_DIR, "./perfbench/worker.exe"]
    try:
        p = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        log("build failed:", e)
        return False
    return p.returncode == 0 and os.path.isfile(WORKER)


def worker_env():
    # CLI-default GC and column settings whatever the caller's environment
    env = dict(os.environ)
    for k in ("OCAMLRUNPARAM", "CAMLRUNPARAM", "MIRAGE_BIG_ROWS",
              "MIRAGE_BIG_DIR"):
        env.pop(k, None)
    return env


def worker_cmd(spec, seed, out, trace_file=None, setup_only=False):
    cmd = [WORKER, "--workload", spec["workload"], "--sf", repr(spec["sf"]),
           "--seed", str(seed), "--domains", str(spec["domains"]),
           "--out", out, "--chunk-rows", str(spec["chunk_rows"]),
           "--copies", str(spec["copies"])]
    if spec["compress"]:
        cmd.append("--compress")
    if trace_file:
        cmd += ["--trace", trace_file]
    if setup_only:
        cmd.append("--setup-only")
    return cmd


def run_worker(cmd, timeout):
    """One fresh process; returns its JSON record, or None if it failed."""
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           env=worker_env(), timeout=max(5.0, timeout),
                           text=True)
    except subprocess.TimeoutExpired:
        log("worker timed out:", " ".join(cmd))
        return None
    if p.returncode != 0:
        log("worker exited %d: %s" % (p.returncode, p.stderr.strip()[-2000:]))
        return None
    try:
        return json.loads(p.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log("worker printed no record")
        return None


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def data_files(spec, out):
    """The committed data files in output order, as (name, manifest entry
    or None for a raw to_csv_dir file), plus the manifest's problems."""
    if not spec["chunk_rows"]:
        return [(n, None) for n in sorted(os.listdir(out))
                if n.endswith(".csv")], []
    try:
        with open(os.path.join(out, "MANIFEST.json")) as f:
            man = json.load(f)
    except (OSError, ValueError) as e:
        return [], ["unreadable MANIFEST.json: %s" % e]
    problems = [] if man.get("complete") is True else ["manifest not sealed"]
    shards = sorted(man.get("shards", []), key=lambda s: s["seq"])
    listed = {s["name"] for s in shards} | {"MANIFEST.json"}
    problems += ["stray file %s" % n for n in os.listdir(out)
                 if n not in listed]
    return [(s["name"], s) for s in shards], problems


def check_output(spec, out, rec):
    """Checks one repetition's output directory against its worker record.
    Returns (problems, facts); facts hold the output digest and sizes."""
    problems = []
    if rec["queries"] != spec["queries"]:
        problems.append("replayed %d queries, expected %d"
                        % (rec["queries"], spec["queries"]))
    files, p = data_files(spec, out)
    problems += p
    if not files:
        problems.append("no output files")
    digest = hashlib.sha256()
    raw = disk = 0
    for name, entry in files:
        try:
            with open(os.path.join(out, name), "rb") as f:
                body = f.read()
        except OSError:
            problems.append("missing shard %s" % name)
            continue
        if entry and (len(body) != entry["bytes"]
                      or "%08x" % zlib.crc32(body) != entry["crc32"]):
            problems.append("shard %s differs from its manifest entry" % name)
        digest.update(name.encode() + b"\0%d\0" % len(body))
        digest.update(body)
        disk += len(body)
        raw += entry["raw"] if entry else len(body)
    if raw != rec["csv_bytes"]:
        problems.append("committed %d raw bytes, Scale_out.csv_bytes says %d"
                        % (raw, rec["csv_bytes"]))
    gz = [os.path.join(out, n) for n, _ in files if n.endswith(".gz")]
    if spec["compress"] and len(gz) != len(files):
        problems.append("uncompressed shard in a compressed export")
    if gz and subprocess.run(["gzip", "-t"] + gz,
                             stderr=subprocess.DEVNULL).returncode != 0:
        problems.append("gzip -t failed")
    facts = dict(digest=digest.hexdigest(), raw=raw, disk=disk,
                 shards=len(files))
    return problems, facts


def layer_metrics(trace_file, facts):
    """Per-layer metrics of one traced instance, from its spans."""
    with open(trace_file) as f:
        events = json.load(f)["traceEvents"]
    dur = {}
    for e in events:
        dur.setdefault(e["name"], []).append(e["dur"] / 1e6)
    gen = next(e for e in events if e["name"] == "generate")["args"]
    ver = next(e for e in events if e["name"] == "verify")["args"]
    tables = dur.get("export_table", [])
    tail = dur["export.tail"][0]
    busy = sum(tables) + tail
    lookups = gen["cache_hits"] + gen["cache_misses"]
    gen_wall = gen["t_total"] - gen["t_extract"]
    return {
        "host.probe_s": (dur["host.probe"][0], "s"),
        "workloads.make_s": (dur["workloads.make"][0], "s"),
        "par.spawn_s": (dur["par.get"][0], "s"),
        "gen.s": (dur["generate"][0], "s"),
        "gen.cpu_s": (gen["t_cpu"], "s"),
        "gen.utilization": (gen["t_cpu"] / (gen_wall * gen["domains_used"])
                            if gen_wall > 0 else 0.0, "ratio"),
        "gen.other_s": (gen["t_total"] - sum(gen[s] for s in STAGES), "s"),
        "gen.peak_heap_mb": (gen["peak_bytes"] / MB, "MB"),
        "extract.s": (gen["t_extract"], "s"),
        "decouple.s": (gen["t_decouple"], "s"),
        "cdf.s": (gen["t_cdf"], "s"),
        "nonkey.s": (gen["t_gd"], "s"),
        "acc.s": (gen["t_acc"], "s"),
        "keygen.cs_s": (gen["t_cs"], "s"),
        "keygen.cp_s": (gen["t_cp"], "s"),
        "keygen.pf_s": (gen["t_pf"], "s"),
        "keygen.batch_alloc_mb": (gen["batch_alloc_bytes"] / MB, "MB"),
        "cp.solves": (gen["cp_solves"], "count"),
        "cp.nodes": (gen["cp_nodes"], "count"),
        "cp.props": (gen["cp_props"], "count"),
        "cp.restarts": (gen["cp_restarts"], "count"),
        "solve_cache.hits": (gen["cache_hits"], "count"),
        "solve_cache.misses": (gen["cache_misses"], "count"),
        "solve_cache.lookups": (lookups, "count"),
        "solve_cache.hit_ratio": (gen["cache_hits"] / lookups
                                  if lookups else 0.0, "ratio"),
        "export.busy_s": (busy, "s"),
        "export.tail_s": (tail, "s"),
        "export.max_table_s": (max(tables + [tail]), "s"),
        "export.raw_mb": (facts["raw"] / MB, "MB"),
        "export.disk_mb": (facts["disk"] / MB, "MB"),
        "export.shards": (facts["shards"], "count"),
        "export.raw_mb_per_busy_s": (facts["raw"] / MB / busy, "MB/s"),
        "verify.queries": (ver["queries"], "count"),
        "verify.exact": (ver["exact"], "count"),
    }


def instance_seed(seed, i):
    """Generation seed of a run's i-th instance: a function of --seed."""
    return seed * 1000 + i


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="test scale: same paths, about a second per run")
    args = ap.parse_args(argv)
    if args.workload not in WORKLOADS:
        log("unknown workload %s (%s)" % (args.workload, ", ".join(WORKLOADS)))
        return 2
    spec = dict(WORKLOADS[args.workload])
    if args.tiny:
        spec.update(TINY[args.workload])
    if not build():
        return 2
    start = time.monotonic()
    out = os.path.join(OUT_DIR, args.workload)
    traces = os.path.join(OUT_DIR, "traces")
    os.makedirs(traces, exist_ok=True)

    def left():
        return RUN_DEADLINE_S - (time.monotonic() - start)

    reps, problems, setups, layers, overheads = [], [], [], [], []
    digests = {}
    attempted = failed = 0

    def rep(i, traced=False):
        """One instance in a fresh process; False if it crashed."""
        nonlocal attempted, failed
        seed = instance_seed(args.seed, i)
        trace_file = None
        if traced:
            trace_file = os.path.join(traces, "%s-seed%d.json"
                                      % (args.workload, seed))
        fresh_dir(out)  # untimed; the export never resumes
        t0 = time.monotonic()
        rec = run_worker(worker_cmd(spec, seed, out, trace_file), left())
        attempted += spec["queries"]
        if rec is None:
            failed += spec["queries"]
            problems.append("instance %d crashed" % seed)
            return False
        failed += rec["queries"] - rec["exact"]
        if rec["inexact"]:
            log("instance %d: non-exact queries: %s"
                % (seed, " ".join(rec["inexact"])))
        p, facts = check_output(spec, out, rec)
        if digests.setdefault(seed, facts["digest"]) != facts["digest"]:
            p.append("output differs from the first run of the same seed")
        problems.extend("instance %d: %s" % (seed, x) for x in p)
        rec.update(facts, seed=seed, traced=traced,
                   wall=time.monotonic() - t0)
        reps.append(rec)
        setups.append(rec["setup_s"])
        if traced:
            layers.append(layer_metrics(trace_file, facts))
        print("rep %s" % json.dumps(
            {k: rec[k] for k in ("seed", "traced", "probe_s", "setup_s",
                                 "e2e_s", "verify_s", "vm_hwm_kb", "raw",
                                 "disk")}), flush=True)
        return True

    def room(n):
        # time for n more repetitions of the mean length so far
        used = time.monotonic() - start
        mean = statistics.mean(r["wall"] for r in reps)
        return used + n * mean <= args.seconds

    # --trace 0: instances 0, 1, 2, ... and a closing repeat of instance 0,
    # whose output must match the first.  --trace 1: each instance untraced,
    # then traced; the pair's outputs must match.
    i = 0
    while True:
        if not rep(i):
            break
        if args.trace == 1:
            if not rep(i, traced=True):
                break
            overheads.append(reps[-1]["e2e_s"] - reps[-2]["e2e_s"])
        i += 1
        if not room(2):
            if args.trace == 0:
                rep(0)
            break
    shutil.rmtree(out, ignore_errors=True)
    # setup depends only on the reference seed: top up its samples with
    # set-up-only processes so setup_s is a median of several
    while not problems and len(setups) < SETUP_SAMPLES and left() > 10:
        s = run_worker(worker_cmd(spec, args.seed, out, setup_only=True),
                       left())
        if s is None:
            problems.append("set-up run crashed")
            break
        setups.append(s["setup_s"])

    median = statistics.median
    metrics = {}
    plain = [r for r in reps if not r["traced"]]
    if problems or not plain:
        pass  # an incorrect run reports no metrics
    elif args.trace == 0:
        metrics = {
            "e2e_s": (median([r["e2e_s"] for r in plain]), "s"),
            "setup_s": (median(setups), "s"),
            "verify_s": (median([r["verify_s"] for r in plain]), "s"),
            "out_mb_per_s": (median([r["csv_bytes"] / MB / r["e2e_s"]
                                     for r in plain]), "MB/s"),
            "peak_rss_mb": (median([r["vm_hwm_kb"] * 1024 / MB
                                    for r in plain]), "MB"),
            "disk_ratio": (median([r["disk"] / r["raw"] for r in plain]),
                           "ratio"),
        }
    elif layers:
        metrics = {k: (median([l[k][0] for l in layers]), u)
                   for k, (_, u) in layers[0].items()}
        metrics["trace.e2e_s"] = (
            median([r["e2e_s"] for r in reps if r["traced"]]), "s")
        metrics["trace.overhead_s"] = (median(overheads), "s")
    for p in problems:
        log("CHECK FAILED:", p)
    correct = not problems and bool(metrics)
    for k, (v, u) in metrics.items():
        print("%-26s %14.6f %s" % (k, v, u))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Tests for the benchmark itself, at tiny scale (a few seconds each).

    python3 perfbench/test_bench.py

Drives the full record path of every workload (build, worker processes,
output checks, metric derivation) through run.py's --tiny mode.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
os.chdir(ROOT)

import run  # noqa: E402

with open("BENCHMARK.json") as f:
    BENCH = json.load(f)

SCRATCH = os.path.join(run.OUT_DIR, "test")


def invoke(workload, trace):
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    return p.returncode, json.loads(p.stdout.strip().splitlines()[-1])


def tiny_rep(workload, name, trace=False):
    """One tiny repetition into SCRATCH/name: (spec, out dir, record)."""
    spec = dict(run.WORKLOADS[workload], **run.TINY[workload])
    out = os.path.join(SCRATCH, name)
    run.fresh_dir(out)
    tf = out + ".trace.json" if trace else None
    rec = run.run_worker(run.worker_cmd(spec, 1, out, tf), 120)
    assert rec is not None, "worker failed"
    return spec, out, rec


class Benchmark(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        assert run.build(), "build failed"

    def test_workloads_match_benchmark_json(self):
        self.assertEqual(sorted(w["name"] for w in BENCH["workloads"]),
                         sorted(run.WORKLOADS))

    def test_every_metric_emitted_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in BENCH[key]}
            for w in run.WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    code, res = invoke(w, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(res), {"correct", "attempted",
                                                "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(res["failed"], 0)
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)

    def test_stages_reconcile_to_t_total(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                spec, out, rec = tiny_rep(w, "reconcile", trace=True)
                problems, facts = run.check_output(spec, out, rec)
                self.assertEqual(problems, [])
                m = run.layer_metrics(out + ".trace.json", facts)
                with open(out + ".trace.json") as f:
                    gen = next(e for e in json.load(f)["traceEvents"]
                               if e["name"] == "generate")["args"]
                stages = sum(m[k][0] for k in (
                    "extract.s", "decouple.s", "cdf.s", "nonkey.s", "acc.s",
                    "keygen.cs_s", "keygen.cp_s", "keygen.pf_s"))
                self.assertAlmostEqual(stages + m["gen.other_s"][0],
                                       gen["t_total"], places=6)
                self.assertLessEqual(gen["t_total"], m["gen.s"][0])

    def corrupt(self, workload, mutate):
        spec, out, rec = tiny_rep(workload, "pristine")
        problems, facts = run.check_output(spec, out, rec)
        self.assertEqual(problems, [])
        copy = os.path.join(SCRATCH, "corrupt")
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(out, copy)
        files, _ = run.data_files(spec, copy)
        mutate(os.path.join(copy, files[-1][0]))
        problems, bad = run.check_output(spec, copy, rec)
        return problems, facts, bad

    def test_corrupted_gzip_shard_fails_the_check(self):
        def flip(path):
            with open(path, "r+b") as f:
                body = bytearray(f.read())
                body[len(body) // 2] ^= 0xFF
                f.seek(0)
                f.write(body)
        problems, _, _ = self.corrupt("tpch_gz_tiles", flip)
        self.assertIn("gzip -t failed", problems)

    def test_corrupted_raw_shard_fails_the_check(self):
        def truncate(path):
            with open(path, "r+b") as f:
                f.truncate(os.path.getsize(path) - 1)
        problems, good, bad = self.corrupt("tpcds_cp", truncate)
        self.assertTrue(any("differs from its manifest" in p
                            for p in problems), problems)
        self.assertNotEqual(good["digest"], bad["digest"])

    def test_bare_tree_fails_without_a_result(self):
        # a tree holding only the benchmark cannot build: non-zero exit and
        # no result line
        bare = os.path.abspath(os.path.join(SCRATCH, "bare"))
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy("BENCHMARK.json", bare)
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "ssb_membership", "--seed", "1", "--seconds", "1", "--trace",
             "0"], cwd=bare, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, timeout=170)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn("correct", p.stdout)


if __name__ == "__main__":
    unittest.main()

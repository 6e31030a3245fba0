#!/usr/bin/env python3
"""Smoke test of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/smoke.py

For every workload of BENCHMARK.json, at a tiny size:
  - the untraced run prints exactly the declared end-to-end metrics, and
    the traced run exactly the declared per-layer metrics, each with its
    declared unit, with every operation correct and none failed;
  - a run whose oracle was deliberately corrupted reports correct = false.
Then, in a directory holding only BENCHMARK.json and the benchmark's
own files, the benchmark must fail without printing a result.
Exits non-zero on the first failed assertion.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py"] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result(proc, what):
    assert proc.returncode == 0, f"{what}: exit {proc.returncode}\n{proc.stderr}"
    last = proc.stdout.strip().splitlines()[-1]
    res = json.loads(last)
    assert set(res) == RESULT_KEYS, f"{what}: result keys {sorted(res)}"
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1, what
    assert isinstance(res["failed"], int), what
    return res


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for w in (w["name"] for w in bench["workloads"]):
        for trace in ("0", "1"):
            what = f"{w} trace {trace}"
            res = result(
                run(["--workload", w, "--seed", "1", "--seconds", "1",
                     "--trace", trace, "--tiny"]),
                what,
            )
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == declared[trace], f"{what}: metrics {got}"
            for k, v in res["metrics"].items():
                assert isinstance(v["value"], (int, float)), f"{what}: {k}"
            assert res["correct"] is True, f"{what}: not correct"
            assert res["failed"] == 0, f"{what}: {res['failed']} failed"
            print(f"ok   {what}: {len(got)} metrics, {res['attempted']} operations")
        what = f"{w} corrupted"
        res = result(
            run(["--workload", w, "--seed", "1", "--seconds", "1", "--trace", "0",
                 "--tiny", "--corrupt-expectations"]),
            what,
        )
        assert res["correct"] is False, f"{what}: corruption went unnoticed"
        print(f"ok   {what}: the check rejects a corrupted expectation table")
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
    proc = run(["--workload", bench["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "bare directory: exit 0"
    assert "\"metrics\"" not in proc.stdout, "bare directory: printed a result"
    print("ok   bare directory: fails without a result")
    print("smoke test passed")


if __name__ == "__main__":
    main()

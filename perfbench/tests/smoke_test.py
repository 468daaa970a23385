#!/usr/bin/env python3
"""Smoke test of the benchmark: runs every workload at a small scale,
untraced and traced, and checks that each run prints every metric
BENCHMARK.json names, with its unit, and passes its output checks. Also
checks that config.json says which end-to-end metric each per-layer metric
should move, and that BENCHMARK.json lists only known workloads.

    python3 perfbench/tests/smoke_test.py      # from the root of a checkout
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
# Every workload run.py accepts; BENCHMARK.json gates a subset.
WORKLOADS = ["train-pubmed", "serve-mixed", "stream-refresh"]


def fail(message):
    print("FAIL: " + message)
    sys.exit(1)


def run(workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--scale", "0.1"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    if proc.returncode != 0:
        fail("%s trace=%d exited with %d:\n%s"
             % (workload, trace, proc.returncode, proc.stdout))
    lines = proc.stdout.strip().split("\n")
    return lines, json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(ROOT, "perfbench", "config.json")) as f:
        config = json.load(f)

    e2e_names = {m["name"] for m in bench["end_to_end"]}
    workload_names = set(WORKLOADS)
    if not {w["name"] for w in bench["workloads"]} <= workload_names:
        fail("BENCHMARK.json names a workload config.json does not define")
    for layer in bench["per_layer"]:
        moves = config["layers"].get(layer["name"])
        if moves is None:
            fail("config.json does not map per-layer metric " + layer["name"])
        for move in moves["moves"] + moves.get("flat", []):
            if move["metric"] not in e2e_names or move["workload"] not in workload_names:
                fail("bad mapping for %s: %s" % (layer["name"], move))

    for workload in WORKLOADS:
        for trace, expected in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            lines, result = run(workload, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail("result keys: %s" % sorted(result))
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                fail("%s trace=%d: checks failed:\n%s"
                     % (workload, trace, "\n".join(lines)))
            got = result["metrics"]
            if set(got) != {m["name"] for m in expected}:
                fail("%s trace=%d metrics differ: %s"
                     % (workload, trace,
                        sorted(set(got) ^ {m["name"] for m in expected})))
            for metric in expected:
                entry = got[metric["name"]]
                if entry["unit"] != metric["unit"]:
                    fail("%s: unit %s, expected %s"
                         % (metric["name"], entry["unit"], metric["unit"]))
                printed = [l for l in lines[:-1] if l.split()[:1] == [metric["name"]]]
                if not printed or printed[0].split()[-1] != metric["unit"]:
                    fail("%s is not printed with its unit" % metric["name"])
                if trace == 0 and not entry["value"] > 0:
                    fail("%s: end-to-end metric %s is not positive"
                         % (workload, metric["name"]))
            print("ok: %s trace=%d, %d metrics" % (workload, trace, len(got)))
    print("smoke test passed")


if __name__ == "__main__":
    main()

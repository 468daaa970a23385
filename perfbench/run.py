#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--scale <f>]

Run it from the root of a checkout. On first use it builds perfbench and the
library sources it links (src/) into .bench_build/perfbench, in Release
mode. It then runs the workload with the limits perfbench/config.json
records (the NMI floor, the ladder of offered rates, the reference rate and
the p99 limit). The workload prints a report and, as the last line of
standard output, one JSON object with the keys correct, attempted, failed
and metrics. When the build or the run fails, this script exits non-zero
and prints no result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "aneci_perfbench")
RUN_TIMEOUT_S = 170


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configures once and builds the benchmark binary; output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no library sources under %s/src\n" % ROOT)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "aneci_perfbench",
                  "-j", str(nproc())])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return os.path.isfile(BINARY)


def limit_flags():
    """The limits config.json records, as flags of the benchmark binary."""
    with open(os.path.join(HERE, "config.json")) as f:
        limits = json.load(f)["limits"]
    return ["--nmi-floor=%s" % limits["nmi-floor"],
            "--ladder-qps=" + ",".join(str(q) for q in limits["ladder-qps"]),
            "--reference-qps=%s" % limits["reference-qps"],
            "--p99-limit-ms=%s" % limits["p99-limit-ms"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every input (the smoke tests use this)")
    args = parser.parse_args()

    # Keep the compiler's and the workload's temporary files in the checkout.
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    if not build():
        return 2

    work = os.path.join(BUILD_ROOT, "work", "%s-%d" % (args.workload, os.getpid()))
    traces = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    env = dict(os.environ)
    env.setdefault("ANECI_THREADS", str(nproc()))
    cmd = [BINARY, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--scale=%g" % args.scale, "--work-dir=" + work,
           "--trace-out=" + os.path.join(
               traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    cmd += limit_flags()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s timed out\n" % args.workload)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stderr.write("perfbench: %s exited with %d\n"
                         % (args.workload, proc.returncode))
        return proc.returncode or 4
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

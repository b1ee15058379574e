#!/usr/bin/env python3
"""Builds qobench from the checkout's sources and runs one workload.

    python3 qobench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

--trace 0 runs with the program's metrics off (QO_METRICS=0) and prints the
end-to-end metrics. --trace 1 runs with metrics on and a Chrome trace
(QO_TRACE), prints the per-layer metrics, and then repeats the same number
of rounds untraced to measure the observability overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the host and
configuration stamp. Build output goes to stderr.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "qobench")
BINARY = os.path.join(BUILD, "qobench")
WORKLOADS = ("pipeline_recurring", "pipeline_adhoc", "service_mixed")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"qobench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources next to the benchmark (src/ is missing)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "qobench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run(args, env_extra, rounds=0):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if rounds:
        cmd += ["--rounds", str(rounds)]
    env = dict(os.environ, **env_extra)
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S}s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{args.workload} exited with {done.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # Fail closed: a stray knob (QO_COMPILE_CACHE=0, QO_SIMD=0, ...) would
    # silently change which program is measured.
    stray = sorted(k for k in os.environ if k.startswith("QO_"))
    if stray:
        fail("refusing to run with " + ", ".join(stray) + " set")

    build()
    if not args.trace:
        result = run(args, {"QO_METRICS": "0"})
        correct = result["correct"]
    else:
        trace_path = os.path.join(BUILD, f"trace-{os.getpid()}.json")
        try:
            result = run(args, {"QO_METRICS": "1", "QO_TRACE": trace_path})
        finally:
            if os.path.exists(trace_path):
                os.remove(trace_path)
        reference = run(args, {"QO_METRICS": "0"}, rounds=result["rounds"])
        overhead = (result["work_wall_s"] - reference["work_wall_s"]) / \
            result["rounds"]
        result["metrics"]["obs.overhead_s"] = {"value": overhead, "unit": "s"}
        correct = result["correct"] and reference["correct"]

    stamp = dict(result["stamp"], rounds=result["rounds"],
                 seconds=args.seconds, trace=args.trace,
                 qo_env="QO_METRICS=%d%s" % (args.trace,
                                             " QO_TRACE" if args.trace else ""))
    print(json.dumps({"stamp": stamp, "errors": result["errors"]}))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))


if __name__ == "__main__":
    main()

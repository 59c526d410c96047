#!/usr/bin/env python3
"""Builds and runs ordlog's end-to-end serving benchmark.

Run from anywhere inside a source checkout:

  python3 perfbench/run.py --workload read_hot --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --smoke

The first form builds perfbench/serve_bench (Release, against the
libraries under src/) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset, then runs one workload.
The last line of its output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.

--smoke runs every workload briefly, traced and untraced, and checks that
each run emits exactly the metrics BENCHMARK.json names, answers every
request correctly, and fails none.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds serve_bench; returns its path or None."""
    out = build_dir()
    commands = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        commands.append(["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"])
    commands.append(["cmake", "--build", out, "--target", "serve_bench",
                     "-j", str(os.cpu_count() or 1)])
    for command in commands:
        # Build output goes to stderr: the last stdout line is the result.
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            return None
    return os.path.join(out, "serve_bench")


def run(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, stdout text)."""
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out", build_dir()]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, ""
    if echo:
        sys.stdout.write(done.stdout)
    return done.returncode, done.stdout


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: {m["name"] for m in spec["end_to_end"]},
              1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, text = run(binary, workload, 1, 1, trace, echo=False)
            label = f"{workload} --trace {trace}"
            if code != 0 or not text.strip():
                problems.append(f"{label}: exit code {code}")
                continue
            result = json.loads(text.strip().splitlines()[-1])
            names = set(result["metrics"])
            if names != wanted[trace]:
                problems.append(
                    f"{label}: missing {sorted(wanted[trace] - names)}, "
                    f"unexpected {sorted(names - wanted[trace])}")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: failed_ratio "
                                f"{result['failed']}/{result['attempted']}")
            if result["attempted"] < 1:
                problems.append(f"{label}: no requests")
            print(f"{label}: {result['attempted']} requests, "
                  f"{result['failed']} failed, {len(names)} metrics")
    for problem in problems:
        print("SMOKE FAILURE:", problem)
    print("smoke:", "FAILED" if problems else "ok")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        print("build failed", file=sys.stderr)
        return 1
    if args.smoke:
        return smoke(binary)
    code, _ = run(binary, args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())

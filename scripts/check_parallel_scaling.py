#!/usr/bin/env python3
"""Speedup-vs-threads gate over the bench_ablation_solver JSON report.

Reads build/BENCH_ablation_solver.json (written by scripts/check.sh) and
checks the BM_Solver_Parallel_DeepSearch/<threads> series emitted by
bench/bench_ablation_solver.cc: the 4-thread parallel stable-model
search must be at least ORDLOG_PARALLEL_MIN_SPEEDUP (default 1.8) times
faster, by real_time, than the 1-thread sequential solver on the same
deep gadget workload. The series runs UseRealTime + MeasureProcessCPUTime,
so the rows carry a `/process_time/real_time` suffix; real_time is the
wall clock the gate compares, cpu_time records total work for the log.

Every row must also report the same answer: a `stable_models` counter of
1024 (2^10, the stable models of the 10-gadget workload). A row that
misses the counter or reports another count fails the check on any
machine and also under --warn-only, because a wrong answer is not runner
noise and a fast wrong search must not pass the speed gate.

The gate SKIPS (exit 0) when the benchmark machine reports fewer than 4
CPUs in the report's context — a 4-way search cannot beat sequential on
one core, and the identity of the result set is already enforced
deterministically by tests/runtime/parallel_search_test. With
--warn-only (used on PR CI, where shared runners are noisy and may be
throttled) a shortfall is printed but the exit code stays 0; pushes to
main enforce.
"""

import json
import os
import pathlib
import sys

REPORT = pathlib.Path("build/BENCH_ablation_solver.json")
BENCH = "BM_Solver_Parallel_DeepSearch"
MIN_CPUS = 4
MIN_SPEEDUP = float(os.environ.get("ORDLOG_PARALLEL_MIN_SPEEDUP", "1.8"))
EXPECTED_STABLE_MODELS = 1024


def fail(message, warn_only):
    label = "WARN" if warn_only else "FAIL"
    print("check_parallel_scaling: %s: %s" % (label, message))
    sys.exit(0 if warn_only else 1)


def main():
    warn_only = "--warn-only" in sys.argv[1:]
    if not REPORT.exists():
        fail("%s not found (run scripts/check.sh first)" % REPORT, warn_only)
    report = json.loads(REPORT.read_text())

    # Row names look like "BM_Solver_Parallel_DeepSearch/4/process_time/
    # real_time" (UseRealTime + MeasureProcessCPUTime add the suffixes).
    times = {}
    for bench in report.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name", "")
        parts = name.split("/")
        if len(parts) < 2 or parts[0] != BENCH:
            continue
        try:
            threads = int(parts[1])
        except ValueError:
            continue
        times[threads] = bench

    wrong = ["%d threads: %s" % (threads, times[threads].get("stable_models"))
             for threads in sorted(times)
             if times[threads].get("stable_models") != EXPECTED_STABLE_MODELS]
    if wrong:
        fail("%s must report stable_models=%d on every row, got %s"
             % (BENCH, EXPECTED_STABLE_MODELS, ", ".join(wrong)),
             warn_only=False)

    num_cpus = report.get("context", {}).get("num_cpus", 0)
    if num_cpus < MIN_CPUS:
        print("check_parallel_scaling: SKIP: machine has %d CPUs (< %d); "
              "a %d-thread search cannot scale here. Result-set identity "
              "is still enforced by tests/runtime/parallel_search_test."
              % (num_cpus, MIN_CPUS, MIN_CPUS))
        sys.exit(0)

    if 1 not in times or MIN_CPUS not in times:
        fail("missing %s rows for 1 and %d threads (found threads=%s)"
             % (BENCH, MIN_CPUS, sorted(times)), warn_only)

    for threads in sorted(times):
        row = times[threads]
        print("  %2d threads: real_time=%.3f ms  cpu_time=%.3f ms  "
              "subtrees=%d steals=%d stable_models=%d"
              % (threads, row.get("real_time", 0.0) / 1e6,
                 row.get("cpu_time", 0.0) / 1e6,
                 int(row.get("subtrees", 0)), int(row.get("steals", 0)),
                 int(row.get("stable_models", 0))))

    base = times[1].get("real_time", 0.0)
    par = times[MIN_CPUS].get("real_time", 0.0)
    if base <= 0 or par <= 0:
        fail("non-positive real_time in %s rows" % BENCH, warn_only)
    speedup = base / par
    print("check_parallel_scaling: %d-thread speedup %.2fx "
          "(required >= %.2fx, ORDLOG_PARALLEL_MIN_SPEEDUP to override)"
          % (MIN_CPUS, speedup, MIN_SPEEDUP))
    if speedup < MIN_SPEEDUP:
        fail("parallel search speedup %.2fx at %d threads is below the "
             "%.2fx floor" % (speedup, MIN_CPUS, MIN_SPEEDUP), warn_only)
    print("check_parallel_scaling: OK")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Least-model evaluation gate over the bench_ablation JSON report.

Reads build/BENCH_ablation_least_model.json (written by scripts/check.sh)
and checks the RoundBased/Worklist/SemiNaive series emitted by
bench/bench_ablation_least_model.cc:

 * identity: every Worklist and SemiNaive row must report identical=1 (a
   full model comparison against the oracle, done at bench setup) and
   matching model_size across the engines;
 * the semi-naive property, deterministically: on SemiNaive rows,
   delta_tuples == model_size — every derived literal is committed into
   exactly one round's delta and never rescanned (a naive evaluator
   reprocesses the whole interpretation every round);
 * wall-time wins, with generous noise margins below the measured ratios:
     - chain_512 (deep recursion, ~512 rounds): semi-naive must beat the
       round-based naive V sweep >= 3x (measured ~50-80x — this is the
       workload class the semi-naive transformation exists for);
     - ancestor_16 (dense join program, ~4.6k ground rules): semi-naive
       must beat the worklist >= 1.4x (measured ~2.0-2.2x: flat CSR
       wiring + set-at-a-time rounds vs per-literal vector-of-vectors);
     - loan_grid_256 (the paper's Fig. 3 scenario as a grid): semi-naive
       must beat the worklist >= ORDLOG_EVAL_MIN_SPEEDUP (default 1.1,
       measured ~1.3x). The grid reaches fixpoint in ~3 rounds, so both
       engines are dominated by per-view wiring rather than rule
       re-evaluation; the delta machinery cannot buy more there, and the
       gate encodes the measured win, not the aspirational one.

Wall time is noisy on shared runners; the margins above are roughly half
the locally measured ratios. ORDLOG_EVAL_MIN_SPEEDUP raises (or lowers)
the loan-grid bar for quiet machines.
"""

import json
import os
import pathlib
import sys

REPORT = pathlib.Path("build/BENCH_ablation_least_model.json")
PREFIX = "BM_Ablation_"

# (workload row, baseline series, target series, required real_time
# ratio baseline/target).
MIN_NAIVE_SPEEDUP = 3.0     # chain_512: semi-naive vs round-based naive V
MIN_JOIN_SPEEDUP = 1.4      # ancestor_16: semi-naive vs worklist
MIN_GRID_SPEEDUP = float(os.environ.get("ORDLOG_EVAL_MIN_SPEEDUP", "1.1"))
GATES = (
    ("Chain/512", "RoundBased", "SemiNaive", MIN_NAIVE_SPEEDUP),
    ("Ancestor/16", "Worklist", "SemiNaive", MIN_JOIN_SPEEDUP),
    ("LoanGrid/256", "Worklist", "SemiNaive", MIN_GRID_SPEEDUP),
)


def fail(message):
    print("check_eval_regression: FAIL: %s" % message)
    sys.exit(1)


def main():
    if not REPORT.exists():
        fail("%s not found (run scripts/check.sh first)" % REPORT)
    report = json.loads(REPORT.read_text())
    rows = {}
    for bench in report.get("benchmarks", []):
        name = bench.get("name", "")
        if not name.startswith(PREFIX):
            continue
        # BM_Ablation_<Series>_<Workload>/<arg>
        series, _, workload = name[len(PREFIX):].partition("_")
        rows.setdefault(workload, {})[series] = bench

    problems = []
    checked = 0
    for workload, by_series in sorted(rows.items()):
        present = [by_series[s] for s in ("Worklist", "SemiNaive")
                   if s in by_series]
        for series in ("Worklist", "SemiNaive"):
            bench = by_series.get(series)
            if bench is None:
                continue
            checked += 1
            if bench.get("identical") != 1.0:
                problems.append("%s/%s: model differs from the oracle"
                                % (series, workload))
        sizes = {bench.get("model_size") for bench in present}
        if len(sizes) > 1:
            problems.append("%s: model sizes diverge across engines (%s)"
                            % (workload, sorted(sizes)))
        bench = by_series.get("SemiNaive")
        if (bench is not None
                and bench.get("delta_tuples") != bench.get("model_size")):
            problems.append(
                "SemiNaive/%s: committed %s delta tuples for a %s-literal "
                "model (tuples must be committed exactly once)"
                % (workload, bench.get("delta_tuples"),
                   bench.get("model_size")))

    for workload, baseline_series, target_series, min_speedup in GATES:
        by_series = rows.get(workload, {})
        baseline = by_series.get(baseline_series)
        target = by_series.get(target_series)
        if baseline is None or target is None:
            problems.append("%s: missing %s/%s pair"
                            % (workload, baseline_series, target_series))
            continue
        ratio = baseline["real_time"] / max(target["real_time"], 1e-9)
        print("  %-14s %-10s/%-10s = %6.2fx  (need >= %.1fx)"
              % (workload, baseline_series.lower(),
                 target_series.lower(), ratio, min_speedup))
        if ratio < min_speedup:
            problems.append(
                "%s: %s speedup %.2fx over %s below required %.1fx"
                % (workload, target_series, ratio, baseline_series,
                   min_speedup))

    if checked == 0:
        problems.append("no Worklist/SemiNaive rows found in %s"
                        % REPORT)
    if problems:
        fail("; ".join(problems))
    print("check_eval_regression: OK (%d strategy rows)" % checked)


if __name__ == "__main__":
    main()

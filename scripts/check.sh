#!/bin/sh
# Full verification: configure, build, test, run every benchmark once.
# Benchmark results are collected as JSON in build/BENCH_runtime.json so
# the perf trajectory can be tracked across commits.
set -e
cd "$(dirname "$0")/.."
# Respect an already-configured build tree (its generator may differ).
if [ -f build/CMakeCache.txt ]; then
  cmake -B build
else
  cmake -B build -G Ninja
fi
cmake --build build
ctest --test-dir build --output-on-failure -j"$(nproc)"
mkdir -p build/bench_json
for b in build/bench/*; do
  name=$(basename "$b")
  # JSON goes to a file (not stdout: some benches print reproduction
  # tables before the benchmark report).
  "$b" --benchmark_min_time=0.01 \
       --benchmark_out="build/bench_json/$name.json" \
       --benchmark_out_format=json
done
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json, pathlib
merged = {}
for path in sorted(pathlib.Path("build/bench_json").glob("*.json")):
    merged[path.stem] = json.loads(path.read_text())
pathlib.Path("build/BENCH_runtime.json").write_text(json.dumps(merged, indent=1))
print("wrote build/BENCH_runtime.json (%d suites)" % len(merged))
# The grounding suite also stands alone: scripts/check_grounding_regression.py
# gates the indexed matcher's speedup and exactness on it.
grounding = json.loads(pathlib.Path("build/bench_json/bench_grounding.json").read_text())
pathlib.Path("build/BENCH_grounding.json").write_text(json.dumps(grounding, indent=1))
print("wrote build/BENCH_grounding.json")
# Same for the incremental suite: scripts/check_incremental_regression.py
# gates the delta grounder's speedup and differential exactness on it.
incremental = json.loads(pathlib.Path("build/bench_json/bench_incremental.json").read_text())
pathlib.Path("build/BENCH_incremental.json").write_text(json.dumps(incremental, indent=1))
print("wrote build/BENCH_incremental.json")
# And the least-model ablation suite: scripts/check_eval_regression.py
# gates the semi-naive engine's identity and speedups on it.
ablation = json.loads(pathlib.Path("build/bench_json/bench_ablation_least_model.json").read_text())
pathlib.Path("build/BENCH_ablation_least_model.json").write_text(json.dumps(ablation, indent=1))
print("wrote build/BENCH_ablation_least_model.json")
# And the solver ablation suite: scripts/check_parallel_scaling.py gates
# the parallel stable-model search's speedup-vs-threads curve on it.
solver = json.loads(pathlib.Path("build/bench_json/bench_ablation_solver.json").read_text())
pathlib.Path("build/BENCH_ablation_solver.json").write_text(json.dumps(solver, indent=1))
print("wrote build/BENCH_ablation_solver.json")
EOF
  # Tracing must be pay-for-what-you-use: the null sink AND sampled
  # request spans have to stay within 2% of the untraced loan-throughput
  # baseline.
  python3 scripts/check_trace_overhead.py
  # Same deal for the metrics stack: armed-but-unscraped observability
  # has to stay within 2% of the plain engine.
  python3 scripts/check_metrics_overhead.py
  # Registered metric names must follow the documented naming scheme.
  python3 scripts/check_metrics_names.py
  # The indexed grounder must beat the naive enumerator on the grid
  # workload and stay exact + regression-free on the paper programs.
  python3 scripts/check_grounding_regression.py
  # The delta grounder must beat a full rebuild on the mutate-one-fact
  # workload and patch to exactly the cold-reground program.
  python3 scripts/check_incremental_regression.py
  # The semi-naive evaluator must agree with the worklist oracle on every
  # ablation row and hold its measured wall-time wins.
  python3 scripts/check_eval_regression.py
  # The parallel stable-model search must hold its speedup-vs-threads
  # curve (skips automatically on machines with fewer than 4 CPUs).
  python3 scripts/check_parallel_scaling.py
  # WAL durability holds under kill -9: every acked mutation survives a
  # mid-storm SIGKILL and recovery is deterministic.
  python3 scripts/check_server_recovery.py
  # The end-to-end serving benchmark (BENCHMARK.json) builds against src/
  # and answers every request correctly.
  python3 perfbench/run.py --smoke
fi
echo "ordlog: all checks passed"

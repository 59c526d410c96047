// Ablation: stable-model search with and without partial-assignment
// pruning (certain Definition-3 violations). Both variants are exact
// (verified against 3^n brute force in tests/core/stable_test); the
// ablation quantifies the pruning pay-off and its overhead per node.
//
// Also the speedup-vs-threads series: BM_Solver_Parallel_DeepSearch runs
// the deep gadget workload at 1/2/4/8 search threads; CI's
// scripts/check_parallel_scaling.py reads these rows out of the bench
// JSON and enforces the minimum 4-thread speedup (docs/RUNTIME.md).

#include <iostream>
#include <memory>
#include <random>

#include "benchmark/benchmark.h"
#include "core/stable_solver.h"
#include "ground/grounder.h"
#include "parser/parser.h"
#include "runtime/thread_pool.h"
#include "transform/versions.h"
#include "workloads.h"

namespace {

using ordlog::GroundProgram;
using ordlog::Grounder;
using ordlog::ParseProgram;
using ordlog::StableModelSolver;
using ordlog::StableSolverOptions;

GroundProgram MustGround(const std::string& source) {
  auto parsed = ParseProgram(source);
  if (!parsed.ok()) std::abort();
  auto ground = Grounder::Ground(*parsed);
  if (!ground.ok()) std::abort();
  return std::move(ground).value();
}

GroundProgram RandomOrderedSeminegative(uint32_t seed, int atoms,
                                        int rules) {
  std::mt19937 rng(seed);
  const std::string source =
      ordlog_bench::RandomSeminegative(rng, atoms, rules, 2);
  auto parsed = ParseProgram(source);
  if (!parsed.ok()) std::abort();
  auto version =
      ordlog::OrderedVersion(parsed->component(0), parsed->shared_pool());
  if (!version.ok()) std::abort();
  auto ground = Grounder::Ground(*version);
  if (!ground.ok()) std::abort();
  return std::move(ground).value();
}

void RunSolver(benchmark::State& state, const GroundProgram& ground,
               ordlog::ComponentId view, bool pruning) {
  StableSolverOptions options;
  options.enable_pruning = pruning;
  ordlog::StableSolverStats stats;
  for (auto _ : state) {
    StableModelSolver solver(ground, view, options);
    const auto stable = solver.StableModels(&stats);
    if (!stable.ok()) {
      state.SkipWithError("solver failed");
      return;
    }
    benchmark::DoNotOptimize(stable->size());
  }
  state.counters["search_nodes"] = static_cast<double>(stats.nodes);
}

void BM_Solver_Pruned_Gadgets(benchmark::State& state) {
  GroundProgram ground = MustGround(
      ordlog_bench::Example5Gadgets(static_cast<int>(state.range(0))));
  RunSolver(state, ground, 1, /*pruning=*/true);
}
BENCHMARK(BM_Solver_Pruned_Gadgets)->DenseRange(2, 5);

void BM_Solver_Unpruned_Gadgets(benchmark::State& state) {
  GroundProgram ground = MustGround(
      ordlog_bench::Example5Gadgets(static_cast<int>(state.range(0))));
  RunSolver(state, ground, 1, /*pruning=*/false);
}
BENCHMARK(BM_Solver_Unpruned_Gadgets)->DenseRange(2, 4);

void BM_Solver_Pruned_RandomOV(benchmark::State& state) {
  GroundProgram ground = RandomOrderedSeminegative(
      7, static_cast<int>(state.range(0)),
      static_cast<int>(state.range(0)) * 2);
  RunSolver(state, ground, ordlog::kQueryComponent, /*pruning=*/true);
}
BENCHMARK(BM_Solver_Pruned_RandomOV)->Arg(6)->Arg(9)->Arg(12);

void BM_Solver_Unpruned_RandomOV(benchmark::State& state) {
  GroundProgram ground = RandomOrderedSeminegative(
      7, static_cast<int>(state.range(0)),
      static_cast<int>(state.range(0)) * 2);
  RunSolver(state, ground, ordlog::kQueryComponent, /*pruning=*/false);
}
BENCHMARK(BM_Solver_Unpruned_RandomOV)->Arg(6)->Arg(9)->Arg(12);

// Speedup-vs-threads on the deep-search workload: 10 Example-5 gadgets
// (2^10 stable models, ~3^10 nodes). threads == 1 is the sequential
// solver (no executor); N > 1 attaches a ThreadPool of N workers, with
// the benchmark thread participating as one of the N searchers. The
// model set is identical at every thread count (the solver's contract,
// enforced by tests/runtime/parallel_search_test).
void BM_Solver_Parallel_DeepSearch(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  GroundProgram ground = MustGround(ordlog_bench::Example5Gadgets(10));
  std::unique_ptr<ordlog::ThreadPool> pool;
  StableSolverOptions options;
  if (threads > 1) {
    pool = std::make_unique<ordlog::ThreadPool>(threads);
    options.executor = pool.get();
    options.search_threads = threads;
    options.parallel_min_branch = 0;
  }
  ordlog::StableSolverStats stats;
  size_t stable_models = 0;
  for (auto _ : state) {
    StableModelSolver solver(ground, 1, options);
    const auto stable = solver.StableModels(&stats);
    if (!stable.ok()) {
      state.SkipWithError("solver failed");
      return;
    }
    stable_models = stable->size();
  }
  state.counters["search_nodes"] = static_cast<double>(stats.nodes);
  // The answer itself: scripts/check_parallel_scaling.py requires 1024
  // (2^10) on every row, so the speed gate cannot pass on a wrong result.
  state.counters["stable_models"] = static_cast<double>(stable_models);
  state.counters["subtrees"] = static_cast<double>(stats.subtrees);
  state.counters["steals"] = static_cast<double>(stats.steals);
}
BENCHMARK(BM_Solver_Parallel_DeepSearch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

}  // namespace

int main(int argc, char** argv) {
  // Sanity: pruned and unpruned enumerations agree.
  {
    GroundProgram ground = RandomOrderedSeminegative(3, 6, 12);
    StableSolverOptions pruned, unpruned;
    unpruned.enable_pruning = false;
    const auto a =
        StableModelSolver(ground, ordlog::kQueryComponent, pruned)
            .StableModels();
    const auto b =
        StableModelSolver(ground, ordlog::kQueryComponent, unpruned)
            .StableModels();
    if (!a.ok() || !b.ok() || a->size() != b->size()) {
      std::cerr << "solver ablation sanity check failed\n";
      return 1;
    }
  }
  std::cout << "=== Ablation: stable-model search pruning ===\n\n";
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

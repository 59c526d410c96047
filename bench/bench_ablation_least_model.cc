// Ablation: three exact least-model engines over the same ground
// programs — the round-based V fixpoint (the paper's Definition 4,
// applied naively), the event-driven worklist, and the semi-naive
// set-at-a-time evaluator over the columnar fact store
// (docs/EVALUATION.md). Each iteration measures construction plus the
// fixpoint, matching the per-cache-miss cost a production query pays.
//
// scripts/check_eval_regression.py consumes this suite's JSON report: it
// requires the `identical` counter (a full model comparison done at
// setup) to be 1 and `delta_tuples` == `model_size` (each tuple committed
// in exactly one delta) on every strategy row, and gates the semi-naive
// engine's wall-time wins on the chain, ancestor, and loan-grid rows.
//
// `--strategy=<round|worklist|semi_naive>` restricts the run to one
// series (a convenience filter; any other argv is passed through to the
// benchmark library, so --benchmark_filter still works).

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "benchmark/benchmark.h"
#include "core/least_model.h"
#include "core/v_operator.h"
#include "eval/evaluator.h"
#include "ground/grounder.h"
#include "parser/parser.h"
#include "transform/versions.h"
#include "workloads.h"

namespace {

using ordlog::ComputeLeastModel;
using ordlog::EvalStrategy;
using ordlog::GroundProgram;
using ordlog::Grounder;
using ordlog::LeastModelEvaluator;
using ordlog::ParseProgram;
using ordlog::VOperator;

GroundProgram MustGround(const std::string& source) {
  auto parsed = ParseProgram(source);
  if (!parsed.ok()) std::abort();
  auto ground = Grounder::Ground(*parsed);
  if (!ground.ok()) std::abort();
  return std::move(ground).value();
}

GroundProgram GroundOrderedAncestor(int n) {
  auto parsed = ParseProgram(ordlog_bench::AncestorChain(n));
  if (!parsed.ok()) std::abort();
  auto version = ordlog::OrderedVersion(parsed->component(0),
                                        parsed->shared_pool());
  if (!version.ok()) std::abort();
  auto ground = Grounder::Ground(*version);
  if (!ground.ok()) std::abort();
  return std::move(ground).value();
}

ordlog::ComponentId ComponentByName(const GroundProgram& ground,
                                    const std::string& name) {
  for (ordlog::ComponentId c = 0; c < ground.NumComponents(); ++c) {
    if (ground.component_name(c) == name) return c;
  }
  std::abort();
}

// The loan grid's bottom component sees the whole program.
GroundProgram GroundLoanGrid(int n) {
  return MustGround(ordlog_bench::LoanGrid(n));
}

void StrategyBench(benchmark::State& state, const GroundProgram& ground,
                   ordlog::ComponentId view, EvalStrategy strategy) {
  // Setup-time identity check, exported so the regression gate can insist
  // the timed engines agree before trusting the timings.
  const ordlog::Interpretation reference = ComputeLeastModel(ground, view);
  LeastModelEvaluator checker(ground, view, {.strategy = strategy});
  const ordlog::Interpretation mine = checker.Compute();
  state.counters["identical"] = (mine == reference) ? 1.0 : 0.0;
  for (auto _ : state) {
    LeastModelEvaluator evaluator(ground, view, {.strategy = strategy});
    benchmark::DoNotOptimize(evaluator.Compute().NumAssigned());
  }
  state.counters["model_size"] = static_cast<double>(mine.NumAssigned());
  // Deterministic work counters (zero for the worklist engine). The gate
  // checks delta_tuples == model_size on semi-naive rows: every tuple is
  // committed in exactly one round's delta, never rescanned.
  const ordlog::EvalStats stats = checker.last_stats();
  state.counters["rounds"] = static_cast<double>(stats.rounds);
  state.counters["delta_tuples"] = static_cast<double>(stats.delta_tuples);
  // Ground rule instances the timed engine iterates over (the grounding
  // itself runs in untimed setup).
  state.counters["ground_rules"] = static_cast<double>(ground.NumRules());
}

void BM_Ablation_RoundBased_Chain(benchmark::State& state) {
  GroundProgram ground =
      MustGround(ordlog_bench::Chain(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        VOperator(ground, 0).LeastFixpoint().NumAssigned());
  }
}
BENCHMARK(BM_Ablation_RoundBased_Chain)->Arg(32)->Arg(128)->Arg(512);

void BM_Ablation_Worklist_Chain(benchmark::State& state) {
  GroundProgram ground =
      MustGround(ordlog_bench::Chain(static_cast<int>(state.range(0))));
  StrategyBench(state, ground, 0, EvalStrategy::kWorklist);
}
BENCHMARK(BM_Ablation_Worklist_Chain)->Arg(32)->Arg(128)->Arg(512);

void BM_Ablation_SemiNaive_Chain(benchmark::State& state) {
  GroundProgram ground =
      MustGround(ordlog_bench::Chain(static_cast<int>(state.range(0))));
  StrategyBench(state, ground, 0, EvalStrategy::kSemiNaive);
}
BENCHMARK(BM_Ablation_SemiNaive_Chain)->Arg(32)->Arg(128)->Arg(512);

void BM_Ablation_RoundBased_Ancestor(benchmark::State& state) {
  GroundProgram ground =
      GroundOrderedAncestor(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        VOperator(ground, ordlog::kQueryComponent)
            .LeastFixpoint()
            .NumAssigned());
  }
}
BENCHMARK(BM_Ablation_RoundBased_Ancestor)->Arg(8)->Arg(16);

void BM_Ablation_Worklist_Ancestor(benchmark::State& state) {
  GroundProgram ground =
      GroundOrderedAncestor(static_cast<int>(state.range(0)));
  StrategyBench(state, ground, ordlog::kQueryComponent,
                EvalStrategy::kWorklist);
}
BENCHMARK(BM_Ablation_Worklist_Ancestor)->Arg(8)->Arg(16)->Arg(24);

void BM_Ablation_SemiNaive_Ancestor(benchmark::State& state) {
  GroundProgram ground =
      GroundOrderedAncestor(static_cast<int>(state.range(0)));
  StrategyBench(state, ground, ordlog::kQueryComponent,
                EvalStrategy::kSemiNaive);
}
BENCHMARK(BM_Ablation_SemiNaive_Ancestor)->Arg(8)->Arg(16)->Arg(24);

// Loan grid: hundreds of components, ~n^2 ground rule instances. The
// round-based series stops at 64 (the naive V sweep revisits every rule
// every round, which is exactly the cost the other engines avoid).
void BM_Ablation_RoundBased_LoanGrid(benchmark::State& state) {
  GroundProgram ground = GroundLoanGrid(static_cast<int>(state.range(0)));
  const ordlog::ComponentId view = ComponentByName(ground, "c1");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        VOperator(ground, view).LeastFixpoint().NumAssigned());
  }
}
BENCHMARK(BM_Ablation_RoundBased_LoanGrid)->Arg(64);

void BM_Ablation_Worklist_LoanGrid(benchmark::State& state) {
  GroundProgram ground = GroundLoanGrid(static_cast<int>(state.range(0)));
  StrategyBench(state, ground, ComponentByName(ground, "c1"),
                EvalStrategy::kWorklist);
}
BENCHMARK(BM_Ablation_Worklist_LoanGrid)->Arg(64)->Arg(256);

void BM_Ablation_SemiNaive_LoanGrid(benchmark::State& state) {
  GroundProgram ground = GroundLoanGrid(static_cast<int>(state.range(0)));
  StrategyBench(state, ground, ComponentByName(ground, "c1"),
                EvalStrategy::kSemiNaive);
}
BENCHMARK(BM_Ablation_SemiNaive_LoanGrid)->Arg(64)->Arg(256);

// Deep recursion: the TcChain least model is O(n^2) tc tuples reached
// over n rounds, but its ground instantiation carries O(n^3) candidate
// instances of the recursive rule, which both ground engines walk on
// every computation.
void BM_Ablation_SemiNaive_TcChain(benchmark::State& state) {
  GroundProgram ground =
      MustGround(ordlog_bench::TcChain(static_cast<int>(state.range(0))));
  StrategyBench(state, ground, 0, EvalStrategy::kSemiNaive);
}
BENCHMARK(BM_Ablation_SemiNaive_TcChain)->Arg(32)->Arg(64);

void BM_Ablation_Worklist_TcChain(benchmark::State& state) {
  GroundProgram ground =
      MustGround(ordlog_bench::TcChain(static_cast<int>(state.range(0))));
  StrategyBench(state, ground, 0, EvalStrategy::kWorklist);
}
BENCHMARK(BM_Ablation_Worklist_TcChain)->Arg(32)->Arg(64);

// Maps --strategy=<name> to the series prefix it selects.
const char* SeriesFilter(const std::string& strategy) {
  if (strategy == "round") return "BM_Ablation_RoundBased_";
  if (strategy == "worklist") return "BM_Ablation_Worklist_";
  if (strategy == "semi_naive") return "BM_Ablation_SemiNaive_";
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  // Sanity: all engines agree before we time them.
  {
    GroundProgram ground = GroundOrderedAncestor(8);
    const auto a =
        VOperator(ground, ordlog::kQueryComponent).LeastFixpoint();
    const auto b = ComputeLeastModel(ground, ordlog::kQueryComponent);
    const auto c = LeastModelEvaluator(ground, ordlog::kQueryComponent)
                       .Compute();
    if (!(a == b) || !(a == c)) {
      std::cerr << "ablation sanity check failed\n";
      return 1;
    }
  }
  std::cout << "=== Ablation: round-based V vs worklist vs semi-naive ===\n"
            << "identical outputs (checked); timings quantify the engine "
               "design choices\n\n";

  // Translate --strategy=<name> into a benchmark filter.
  std::vector<char*> args(argv, argv + argc);
  std::string filter_arg;
  for (auto it = args.begin(); it != args.end(); ++it) {
    if (std::strncmp(*it, "--strategy=", 11) != 0) continue;
    const char* filter = SeriesFilter(*it + 11);
    if (filter == nullptr) {
      std::cerr
          << "unknown --strategy (want round|worklist|semi_naive)\n";
      return 1;
    }
    filter_arg = std::string("--benchmark_filter=") + filter;
    *it = filter_arg.data();
    break;
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

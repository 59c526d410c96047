#ifndef ORDLOG_EVAL_EVALUATOR_H_
#define ORDLOG_EVAL_EVALUATOR_H_

#include <optional>

#include "base/cancel.h"
#include "base/status.h"
#include "core/least_model.h"
#include "eval/semi_naive.h"

namespace ordlog {

// Declared only for the perfbench/serve_bench.cc call of the
// four-argument LeastModelEvaluator constructor below.
class FamilySet;

// Which least-model engine to run (docs/EVALUATION.md compares them).
enum class EvalStrategy : uint8_t {
  // The event-driven, atom-at-a-time worklist (LeastModelComputer).
  // Kept as the differential oracle and for relevance-restricted views.
  kWorklist,
  // Semi-naive, set-at-a-time rounds over the columnar fact store
  // (SemiNaiveEvaluator). The production default.
  kSemiNaive,
};

// Canonical lowercase name of a strategy ("worklist", "semi_naive").
const char* EvalStrategyName(EvalStrategy strategy);

// Engine selection for the ablation bench and the differential suites;
// the kb/ and runtime/ layers always run the default.
struct EvalOptions {
  // Engine selection; both produce the identical least model.
  EvalStrategy strategy = EvalStrategy::kSemiNaive;
};

// Strategy-dispatching front end for least-model computation: constructs
// the engine selected by EvalOptions and exposes the common surface
// (Compute, cancellable Compute, warm-start ComputeFrom, tracing, work
// stats). This is the entry point the kb/ and runtime/ layers use; the
// concrete engines stay directly constructible for tests and ablations.
class LeastModelEvaluator {
 public:
  // Compiles `view` of `program` under the selected strategy. The program
  // must outlive the evaluator.
  LeastModelEvaluator(const GroundProgram& program, ComponentId view,
                      EvalOptions options = {});

  // As above; the first argument is ignored. Kept only for the
  // perfbench/serve_bench.cc call site.
  LeastModelEvaluator(const FamilySet* /*unused*/,
                      const GroundProgram& program, ComponentId view,
                      EvalOptions options = {})
      : LeastModelEvaluator(program, view, options) {}

  // Computes V∞(∅) for the view.
  Interpretation Compute() const;

  // As above, but cancellable (kCancelled / kDeadlineExceeded).
  StatusOr<Interpretation> Compute(const CancelToken& cancel) const;

  // Warm start from `seed` (sound when seed ⊆ V∞(∅); kInvalidArgument on
  // a conflicting seed — see LeastModelComputer::ComputeFrom).
  StatusOr<Interpretation> ComputeFrom(const Interpretation& seed,
                                       const CancelToken* cancel) const;

  // Attaches a structured trace sink (not owned; may be null).
  void set_trace(TraceSink* sink);

  // Work counters of the most recent computation. The worklist engine
  // does not track rounds/deltas and reports zeros.
  EvalStats last_stats() const;

  // The strategy this evaluator runs.
  EvalStrategy strategy() const { return options_.strategy; }

 private:
  EvalOptions options_;
  // Exactly one engine is constructed, per the strategy.
  std::optional<LeastModelComputer> worklist_;
  std::optional<SemiNaiveEvaluator> semi_naive_;
};

}  // namespace ordlog

#endif  // ORDLOG_EVAL_EVALUATOR_H_

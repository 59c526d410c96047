#include "eval/evaluator.h"

namespace ordlog {

const char* EvalStrategyName(EvalStrategy strategy) {
  switch (strategy) {
    case EvalStrategy::kWorklist:
      return "worklist";
    case EvalStrategy::kSemiNaive:
      return "semi_naive";
  }
  return "unknown";
}

LeastModelEvaluator::LeastModelEvaluator(const GroundProgram& program,
                                         ComponentId view,
                                         EvalOptions options)
    : options_(options) {
  if (options_.strategy == EvalStrategy::kWorklist) {
    worklist_.emplace(program, view);
  } else {
    semi_naive_.emplace(program, view);
  }
}

Interpretation LeastModelEvaluator::Compute() const {
  return worklist_.has_value() ? worklist_->Compute()
                               : semi_naive_->Compute();
}

StatusOr<Interpretation> LeastModelEvaluator::Compute(
    const CancelToken& cancel) const {
  return worklist_.has_value() ? worklist_->Compute(cancel)
                               : semi_naive_->Compute(cancel);
}

StatusOr<Interpretation> LeastModelEvaluator::ComputeFrom(
    const Interpretation& seed, const CancelToken* cancel) const {
  return worklist_.has_value() ? worklist_->ComputeFrom(seed, cancel)
                               : semi_naive_->ComputeFrom(seed, cancel);
}

void LeastModelEvaluator::set_trace(TraceSink* sink) {
  if (worklist_.has_value()) {
    worklist_->set_trace(sink);
  } else {
    semi_naive_->set_trace(sink);
  }
}

EvalStats LeastModelEvaluator::last_stats() const {
  return semi_naive_.has_value() ? semi_naive_->last_stats() : EvalStats{};
}

}  // namespace ordlog

#ifndef ORDLOG_EVAL_SEMI_NAIVE_H_
#define ORDLOG_EVAL_SEMI_NAIVE_H_

#include <cstdint>

#include "base/cancel.h"
#include "base/status.h"
#include "core/interpretation.h"
#include "eval/columnar.h"
#include "eval/compiled.h"
#include "trace/sink.h"

namespace ordlog {

// Work counters of one least-model computation (docs/EVALUATION.md).
// Populated by SemiNaiveEvaluator; the worklist engine reports zeros.
struct EvalStats {
  // Semi-naive rounds until fixpoint (0 for an empty model).
  uint64_t rounds = 0;
  // Tuples committed across all per-round delta tables (= literals of the
  // least model, plus warm-start seed literals).
  uint64_t delta_tuples = 0;
  // Rule firings (each in-view rule fires at most once).
  uint64_t firings = 0;
};

// Semi-naive, set-at-a-time computation of the least model V∞(∅)
// (Definition 4 / Theorem 1b), equivalent to VOperator::LeastFixpoint and
// to the worklist LeastModelComputer (the differential oracle in
// tests/eval/semi_naive_differential_test.cc). The pipeline, specified in
// docs/EVALUATION.md:
//
//  * the view is compiled once (CompiledView: program-order compact rule
//    ids, flat CSR body index and silencer graph);
//  * each round fires every rule that is applicable and unsilenced under
//    the interpretation as of the round start, committing the newly
//    derived literals into per-predicate columnar delta tables
//    (FactStore);
//  * the next round propagates only those delta tables — channel by
//    channel, in sorted order — through the body index, maintaining
//    unsatisfied-body and live-silencer counters; rules with no delta
//    body atom (and no delta-blocked silencer) are never revisited.
//
// The firing condition is monotone in I (Lemma 1), so the round-batched
// iteration reaches the same least fixpoint as chaotic iteration.
class SemiNaiveEvaluator {
 public:
  // Compiles `view` of `program` for evaluation. The program must outlive
  // the evaluator.
  SemiNaiveEvaluator(const GroundProgram& program, ComponentId view);

  // Computes V∞(∅) for the view.
  Interpretation Compute() const;

  // As above, but polls `cancel` every round and every few thousand delta
  // propagations, aborting with kCancelled / kDeadlineExceeded.
  StatusOr<Interpretation> Compute(const CancelToken& cancel) const;

  // Warm start: the fixpoint seeded with the literals of `seed` instead
  // of ∅, with the same contract as LeastModelComputer::ComputeFrom —
  // sound when seed ⊆ V∞(∅); a seed outside the least model can surface
  // as a conflict, reported as kInvalidArgument (callers fall back to a
  // cold start). Seed literals enter as the round-0 delta.
  StatusOr<Interpretation> ComputeFrom(const Interpretation& seed,
                                       const CancelToken* cancel) const;

  // Attaches a structured trace sink (not owned; may be null). When set,
  // the evaluator emits kRuleFired per firing, one kFixpointRound per
  // round (a = round, b = literals so far, c = literals added), and a
  // final kFixpointDone (a = rounds, b = literals, duration_us = wall
  // time).
  void set_trace(TraceSink* sink) { trace_ = sink; }

  // Work counters of the most recent Compute/ComputeFrom call.
  const EvalStats& last_stats() const { return stats_; }

  // The compiled form of the view (exposed for tests and diagnostics).
  const CompiledView& compiled() const { return compiled_; }

 private:
  StatusOr<Interpretation> ComputeImpl(const CancelToken* cancel,
                                       const Interpretation* seed) const;

  const GroundProgram& program_;
  const ComponentId view_;
  CompiledView compiled_;
  TraceSink* trace_ = nullptr;
  mutable EvalStats stats_;
};

}  // namespace ordlog

#endif  // ORDLOG_EVAL_SEMI_NAIVE_H_

#ifndef ORDLOG_CORE_STABLE_SOLVER_H_
#define ORDLOG_CORE_STABLE_SOLVER_H_

#include <atomic>
#include <vector>

#include "base/cancel.h"
#include "base/executor.h"
#include "base/status.h"
#include "core/assumption.h"
#include "core/model_check.h"
#include "core/v_operator.h"
#include "trace/sink.h"

namespace ordlog {

struct StableSolverOptions {
  // Abort with kResourceExhausted after this many search nodes. Under
  // parallel search the budget is global: every subtree draws from one
  // shared counter.
  size_t node_budget = 50'000'000;
  // Stop after this many models: stable models for StableModels,
  // assumption-free models for AssumptionFreeModels. A capped result is a
  // prefix of the uncapped one, at every thread count.
  size_t max_models = 1'000'000;
  // Prune subtrees whose partial assignment already certainly violates
  // Definition 3 in every completion (sound; see Search). Disable only to
  // measure the effect (bench_ablation_solver).
  bool enable_pruning = true;
  // Cooperative cancellation / deadline, polled every
  // cancel_check_interval search nodes; the search aborts with kCancelled
  // or kDeadlineExceeded. Not owned; may be null (never checked).
  // An interval of 0 is clamped to 1 (poll every node).
  const CancelToken* cancel = nullptr;
  size_t cancel_check_interval = 1024;
  // Structured trace sink (not owned; may be null). When set, the search
  // emits kSolverBranch / kSolverPrune / kSolverLeaf / kSolverBacktrack
  // events whose node ids are the search-node counter. Under parallel
  // search the sink must be thread-safe, events from different subtrees
  // interleave, and node ids restart per subtree — callers that need a
  // deterministic single stream (the golden trace tests) should leave
  // `executor` null.
  TraceSink* trace = nullptr;
  // Intra-call parallel search (docs/RUNTIME.md, "Parallel stable-model
  // search"): when set (not owned) and the effective thread count is > 1,
  // the branch tree is split into subtree tasks that executor workers
  // steal from a shared index while the calling thread works through the
  // same index, with first-winner cancellation once a completed prefix of
  // subtrees already holds max_models models. The returned model set (and
  // order) is identical to the sequential search at any thread count.
  Executor* executor = nullptr;
  // Threads searching one call: the calling thread plus up to
  // search_threads - 1 stealing helpers. 0 means executor->concurrency();
  // 1 forces the sequential search even when `executor` is set.
  size_t search_threads = 0;
  // Parallel search engages only when the view has at least this many
  // branchable atoms; smaller trees are cheaper sequentially than the
  // frontier split. Tests set 0 to force the parallel path everywhere.
  size_t parallel_min_branch = 4;
};

// Per-call diagnostics, returned through the optional out-parameter of
// AssumptionFreeModels/StableModels so that one solver instance can be
// used from several threads without shared mutable state.
struct StableSolverStats {
  size_t nodes = 0;       // search nodes visited
  size_t branches = 0;    // truth-value assignments tried
  size_t prunes = 0;      // subtrees cut by ExtensionPossible
  size_t leaves = 0;      // full candidates checked against Def. 3/7
  size_t backtracks = 0;  // exhausted branch atoms
  // Assumption-free models dropped as non-maximal (StableModels only).
  size_t dominated = 0;
  // Parallel-search shape (all zero on the sequential path).
  size_t subtrees = 0;    // frontier subtree tasks executed
  size_t steals = 0;      // subtrees executed by executor helpers
  size_t cancelled_subtrees = 0;  // abandoned by first-winner cancellation

  // Field-wise sum, used to merge per-subtree stats.
  void Merge(const StableSolverStats& other) {
    nodes += other.nodes;
    branches += other.branches;
    prunes += other.prunes;
    leaves += other.leaves;
    backtracks += other.backtracks;
    dominated += other.dominated;
    subtrees += other.subtrees;
    steals += other.steals;
    cancelled_subtrees += other.cancelled_subtrees;
  }
};

// Backtracking enumerator of assumption-free and stable models (Def. 9).
//
// Search space reduction (sound by the paper's results):
//  * V∞(∅) is contained in every model (Thm. 1b), so its literals are
//    pinned before branching.
//  * A literal with no rule deriving it in ground(C*) forms a singleton
//    assumption set, so it can never be in an assumption-free model; the
//    corresponding truth value is never branched on.
//
// Remaining candidates are checked with ModelChecker (Def. 3) and
// AssumptionAnalyzer (Def. 7) at the leaves. Complete for the reduced
// space; intended for views with up to a few dozen branchable atoms.
//
// Const methods are safe to call concurrently: all search state lives on
// the caller's stack (the parallel path shares only atomics and
// per-subtree buffers).
class StableModelSolver {
 public:
  StableModelSolver(const GroundProgram& program, ComponentId view,
                    StableSolverOptions options = {});

  // As above, but seeded with a precomputed least model V∞(∅) of the view
  // instead of recomputing it. The batched query path hands every
  // concurrent solver the one least model shared through the model cache,
  // so N queries on one revision pay for the fixpoint prefix once.
  // `seed` must equal ComputeLeastModel(program, view).
  StableModelSolver(const GroundProgram& program, ComponentId view,
                    Interpretation seed, StableSolverOptions options);

  // All assumption-free models of P in the view.
  StatusOr<std::vector<Interpretation>> AssumptionFreeModels(
      StableSolverStats* stats = nullptr) const;

  // Maximal assumption-free models (Def. 9), in search order. The search
  // keeps only leaves that no model kept before them strictly contains;
  // there is no separate filtering pass.
  StatusOr<std::vector<Interpretation>> StableModels(
      StableSolverStats* stats = nullptr) const;

 private:
  // Everything one (sub)search needs: its own results + stats, whether it
  // keeps only maximal models, its model cap, the shared cancellation
  // inputs, and — on the parallel path — the global node budget and the
  // first-winner flag.
  struct SearchEnv {
    std::vector<Interpretation>& results;
    StableSolverStats& stats;
    bool maximal;  // drop leaves that a kept model strictly contains
    size_t cap;    // stop once `results` holds this many models
    std::atomic<uint64_t>* shared_nodes = nullptr;  // global node budget
    const std::atomic<bool>* winner = nullptr;      // first-winner cancel
    bool winner_hit = false;  // this subtree observed the winner flag
  };

  Status Search(size_t level, Interpretation& candidate,
                SearchEnv& env) const;

  // Effective parallel thread count (0 resolves to the executor's
  // concurrency; 1 when no executor is configured).
  size_t ResolvedThreads() const;
  // Assumption-free models, or only the maximal ones when `maximal`.
  StatusOr<std::vector<Interpretation>> Models(bool maximal,
                                               StableSolverStats* stats) const;
  // Sequential driver.
  StatusOr<std::vector<Interpretation>> SequentialModels(
      bool maximal, StableSolverStats& stats) const;
  // Parallel driver: deterministic frontier split + stealing subtree
  // tasks + ordered merge. Returns exactly SequentialModels' result.
  StatusOr<std::vector<Interpretation>> ParallelModels(
      bool maximal, StableSolverStats& stats) const;

  // True when atom's value is fixed at this search depth (seeded, forced
  // undefined, or already branched on).
  bool Decided(GroundAtomId atom, size_t level) const {
    const int position = branch_position_[atom];
    return position < 0 || static_cast<size_t>(position) < level;
  }
  // True when some completion of (candidate, level) contains `literal`.
  bool Possible(GroundLiteral literal, const Interpretation& candidate,
                size_t level) const {
    return candidate.Contains(literal) || !Decided(literal.atom, level);
  }
  // Sound prune: false when the partial assignment already violates
  // Definition 3 in every completion.
  bool ExtensionPossible(const Interpretation& candidate,
                         size_t level) const;

  const GroundProgram& program_;
  const ComponentId view_;
  const StableSolverOptions options_;
  ModelChecker checker_;
  AssumptionAnalyzer assumptions_;
  Interpretation seed_;                  // V∞(∅)
  std::vector<GroundAtomId> branch_;     // atoms to branch on
  // Allowed truth values per branch atom (no supporting rule => value
  // excluded).
  std::vector<bool> allow_true_;
  std::vector<bool> allow_false_;
  // atom -> index in branch_, or -1 for atoms fixed before the search.
  std::vector<int> branch_position_;
};

}  // namespace ordlog

#endif  // ORDLOG_CORE_STABLE_SOLVER_H_

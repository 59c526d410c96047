#include "core/stable_solver.h"

#include <atomic>
#include <limits>
#include <mutex>
#include <span>
#include <utility>

#include "base/strings.h"
#include "core/least_model.h"

#include "core/solver_trace.h"

namespace ordlog {

namespace {
// A zero poll interval would make the cancellation check's modulo
// undefined; clamp to "poll every node".
StableSolverOptions ClampStableOptions(StableSolverOptions options) {
  if (options.cancel_check_interval == 0) options.cancel_check_interval = 1;
  return options;
}

// True when some model in `kept` is a proper superset of `model`. Newest
// first: in search order the models kept last share the longest branch
// prefix with the next leaf, so a superset tends to sit there.
bool HasProperSuperset(const Interpretation& model,
                       std::span<const Interpretation> kept) {
  for (size_t j = kept.size(); j-- > 0;) {
    if (model.IsProperSubsetOf(kept[j])) return true;
  }
  return false;
}

// Frontier subtrees per search thread. More than 1 so that uneven subtree
// costs still balance: a thread that drains a cheap (heavily pruned)
// subtree pulls the next index instead of idling.
constexpr size_t kSubtreesPerThread = 4;
}  // namespace

StableModelSolver::StableModelSolver(const GroundProgram& program,
                                     ComponentId view,
                                     StableSolverOptions options)
    : StableModelSolver(program, view, ComputeLeastModel(program, view),
                        std::move(options)) {}

StableModelSolver::StableModelSolver(const GroundProgram& program,
                                     ComponentId view, Interpretation seed,
                                     StableSolverOptions options)
    : program_(program),
      view_(view),
      options_(ClampStableOptions(options)),
      checker_(program, view),
      assumptions_(program, view),
      seed_(std::move(seed)) {
  branch_position_.assign(program.NumAtoms(), -1);
  program.ViewAtoms(view).ForEach([this](size_t index) {
    const GroundAtomId atom = static_cast<GroundAtomId>(index);
    if (seed_.Truth(atom) != TruthValue::kUndefined) return;  // pinned
    const bool can_be_true =
        !program_.RulesWithHead(atom, true).empty();
    const bool can_be_false =
        !program_.RulesWithHead(atom, false).empty();
    if (!can_be_true && !can_be_false) return;  // forced undefined
    branch_position_[atom] = static_cast<int>(branch_.size());
    branch_.push_back(atom);
    allow_true_.push_back(can_be_true);
    allow_false_.push_back(can_be_false);
  });
}

bool StableModelSolver::ExtensionPossible(const Interpretation& candidate,
                                          size_t level) const {
  // Examine each rule whose Definition-3 obligation is already fixed by
  // the decided atoms; if no completion can discharge it, prune.
  for (uint32_t index : program_.ViewRules(view_)) {
    const GroundRule& rule = program_.rule(index);
    if (!Decided(rule.head.atom, level)) continue;
    const TruthValue head = candidate.Value(rule.head);

    if (head == TruthValue::kFalse) {
      // Condition (a): r must end up blocked or overruled by an applied
      // rule. Blocking is possible when some body literal's complement can
      // still hold; an overruler r̂ can be applied when its head (= ¬H(r),
      // already in the candidate) and every body literal can hold.
      bool blocked_possible = false;
      for (const GroundLiteral& literal : rule.body) {
        if (Possible(literal.Complement(), candidate, level)) {
          blocked_possible = true;
          break;
        }
      }
      if (blocked_possible) continue;
      bool overrule_possible = false;
      for (uint32_t other_index :
           program_.RulesWithHead(rule.head.atom, !rule.head.positive)) {
        const GroundRule& other = program_.rule(other_index);
        if (!program_.Leq(view_, other.component)) continue;
        if (!program_.Less(other.component, rule.component)) continue;
        bool applicable_possible = true;
        for (const GroundLiteral& literal : other.body) {
          if (!Possible(literal, candidate, level)) {
            applicable_possible = false;
            break;
          }
        }
        if (applicable_possible) {
          overrule_possible = true;
          break;
        }
      }
      if (!overrule_possible) return false;
    } else if (head == TruthValue::kUndefined) {
      // Condition (b): if r is applicable in every completion (its body is
      // already contained in the decided part), some overruler or defeater
      // must be able to stay non-blocked. Free atoms can always avoid
      // blocking a rule, so a silencer is impossible only when it is
      // already blocked by decided literals.
      bool applicable_certain = true;
      for (const GroundLiteral& literal : rule.body) {
        if (!candidate.Contains(literal) || !Decided(literal.atom, level)) {
          applicable_certain = false;
          break;
        }
      }
      if (!applicable_certain) continue;
      bool silencer_possible = false;
      for (uint32_t other_index :
           program_.RulesWithHead(rule.head.atom, !rule.head.positive)) {
        const GroundRule& other = program_.rule(other_index);
        if (!program_.Leq(view_, other.component)) continue;
        if (program_.Less(rule.component, other.component)) continue;
        bool blocked_certain = false;
        for (const GroundLiteral& literal : other.body) {
          if (candidate.ContainsComplement(literal)) {
            blocked_certain = true;
            break;
          }
        }
        if (!blocked_certain) {
          silencer_possible = true;
          break;
        }
      }
      if (!silencer_possible) return false;
    }
  }
  return true;
}

size_t StableModelSolver::ResolvedThreads() const {
  if (options_.executor == nullptr) return 1;
  if (options_.search_threads != 0) return options_.search_threads;
  const size_t workers = options_.executor->concurrency();
  return workers < 1 ? 1 : workers;
}

StatusOr<std::vector<Interpretation>>
StableModelSolver::AssumptionFreeModels(StableSolverStats* stats) const {
  return Models(/*maximal=*/false, stats);
}

StatusOr<std::vector<Interpretation>> StableModelSolver::StableModels(
    StableSolverStats* stats) const {
  return Models(/*maximal=*/true, stats);
}

StatusOr<std::vector<Interpretation>> StableModelSolver::Models(
    bool maximal, StableSolverStats* stats) const {
  StableSolverStats local;
  const bool parallel = ResolvedThreads() > 1 &&
                        branch_.size() >= options_.parallel_min_branch;
  StatusOr<std::vector<Interpretation>> result =
      parallel ? ParallelModels(maximal, local)
               : SequentialModels(maximal, local);
  if (stats != nullptr) *stats = local;
  return result;
}

StatusOr<std::vector<Interpretation>> StableModelSolver::SequentialModels(
    bool maximal, StableSolverStats& stats) const {
  std::vector<Interpretation> results;
  Interpretation candidate = seed_;
  SearchEnv env{results, stats, maximal, options_.max_models};
  ORDLOG_RETURN_IF_ERROR(Search(0, candidate, env));
  return results;
}

StatusOr<std::vector<Interpretation>> StableModelSolver::ParallelModels(
    bool maximal, StableSolverStats& stats) const {
  if (options_.max_models == 0) return std::vector<Interpretation>{};

  // Phase 1 — deterministic frontier: expand the branch tree breadth-first
  // in the exact order the sequential search explores children (true,
  // false, undefined; pruning applied), until there are enough surviving
  // subtree roots to keep every thread busy. Listed left to right, the
  // frontier covers the sequential leaf order exactly.
  const size_t threads = ResolvedThreads();
  const size_t target = threads * kSubtreesPerThread;
  std::vector<Interpretation> frontier;
  frontier.push_back(seed_);
  size_t level = 0;
  while (level < branch_.size() && frontier.size() < target &&
         !frontier.empty()) {
    if (options_.cancel != nullptr) {
      ORDLOG_RETURN_IF_ERROR(options_.cancel->Check());
    }
    const GroundAtomId atom = branch_[level];
    std::vector<Interpretation> next;
    next.reserve(frontier.size() * 3);
    for (Interpretation& candidate : frontier) {
      if (++stats.nodes > options_.node_budget) {
        return ResourceExhaustedError(
            StrCat("stable-model search exceeded node_budget=",
                   options_.node_budget));
      }
      const uint64_t node = stats.nodes;
      const auto expand = [&](TruthValue value) {
        candidate.Set(atom, value);
        ++stats.branches;
        solver_trace::Emit(options_.trace, TraceEventKind::kSolverBranch,
                           view_, node, atom, static_cast<uint64_t>(value),
                           level);
        if (options_.enable_pruning &&
            !ExtensionPossible(candidate, level + 1)) {
          ++stats.prunes;
          solver_trace::Emit(options_.trace, TraceEventKind::kSolverPrune,
                             view_, node, 0, 0, level + 1);
          return;
        }
        next.push_back(candidate);
      };
      if (allow_true_[level]) expand(TruthValue::kTrue);
      if (allow_false_[level]) expand(TruthValue::kFalse);
      expand(TruthValue::kUndefined);
      candidate.Set(atom, TruthValue::kUndefined);
      ++stats.backtracks;
      solver_trace::Emit(options_.trace, TraceEventKind::kSolverBacktrack,
                         view_, node, 0, 0, level);
    }
    frontier = std::move(next);
    ++level;
  }

  const size_t subtree_count = frontier.size();
  stats.subtrees = subtree_count;
  if (subtree_count == 0) return std::vector<Interpretation>{};

  // Phase 2 — stealing subtree execution. Workers (the calling thread plus
  // up to threads-1 pool helpers) claim frontier indices from one shared
  // counter; helpers are pure accelerators, so the caller finishes the
  // whole frontier alone if the pool never schedules them (TaskGroup's
  // revoke-on-join relies on exactly this).
  std::vector<std::vector<Interpretation>> sub_results(subtree_count);
  std::vector<StableSolverStats> sub_stats(subtree_count);
  std::vector<Status> sub_status(subtree_count, Status::Ok());
  std::vector<uint8_t> hit_winner(subtree_count, 0);

  // Node budget is global: seeded with the expansion cost, drawn down by
  // every subtree. It can therefore trip at a slightly different point
  // than the sequential search would, but never on a subtree the merged
  // result depends on (errors beyond the max_models cut are dropped).
  std::atomic<uint64_t> shared_nodes{stats.nodes};
  std::atomic<bool> winner{false};
  std::atomic<size_t> next_subtree{0};
  std::atomic<size_t> steals{0};

  // A subtree may stop at max_models models of its own only when none of
  // them can be dropped by the merge, i.e. when no earlier subtree can
  // hold a strict superset of one. Such a superset differs first at a
  // frontier atom that the subtree's root leaves undefined, so a root
  // that decides every frontier atom is safe. Other subtrees run until
  // done or cancelled.
  const auto subtree_cap = [&](const Interpretation& root) {
    if (maximal) {
      for (size_t l = 0; l < level; ++l) {
        if (root.Truth(branch_[l]) == TruthValue::kUndefined) {
          return std::numeric_limits<size_t>::max();
        }
      }
    }
    return options_.max_models;
  };

  // Phase 3 — ordered merge, run as the gap-free prefix of completed
  // subtrees grows: their results join `models` in frontier
  // (= sequential DFS) order, up to max_models. For stable models each
  // subtree has already dropped the leaves that one of its own kept
  // models strictly contains; the merge drops those that a model of an
  // earlier subtree strictly contains. A later subtree never holds a
  // strict superset of an earlier model (same argument as in Search), so
  // `models` is final as it grows and counts stable models exactly.
  //
  // First-winner bookkeeping: cancelling the remaining subtrees is only
  // sound once the prefix already holds max_models models or has failed —
  // then everything abandoned lies beyond the merge cut, so the returned
  // set (or error) still equals the sequential one.
  std::mutex prefix_mutex;
  std::vector<uint8_t> done(subtree_count, 0);
  size_t done_prefix = 0;
  std::vector<Interpretation> models;
  Status prefix_status = Status::Ok();
  size_t merge_dominated = 0;
  const auto merge_next = [&] {
    if (!prefix_status.ok() || models.size() >= options_.max_models) return;
    prefix_status = sub_status[done_prefix];
    if (!prefix_status.ok()) return;
    const size_t earlier = models.size();
    for (Interpretation& model : sub_results[done_prefix]) {
      if (models.size() >= options_.max_models) break;
      if (maximal && HasProperSuperset(model, std::span<const Interpretation>(
                                                  models.data(), earlier))) {
        ++merge_dominated;
        continue;
      }
      models.push_back(std::move(model));
    }
  };

  const auto run_worker = [&](bool helper) {
    for (;;) {
      const size_t index =
          next_subtree.fetch_add(1, std::memory_order_relaxed);
      if (index >= subtree_count) return;
      if (winner.load(std::memory_order_relaxed)) {
        hit_winner[index] = 1;  // skipped outright
      } else {
        if (helper) steals.fetch_add(1, std::memory_order_relaxed);
        Interpretation candidate = frontier[index];
        SearchEnv env{sub_results[index], sub_stats[index], maximal,
                      subtree_cap(candidate), &shared_nodes, &winner};
        sub_status[index] = Search(level, candidate, env);
        if (env.winner_hit) hit_winner[index] = 1;
      }
      std::lock_guard<std::mutex> lock(prefix_mutex);
      done[index] = 1;
      while (done_prefix < subtree_count && done[done_prefix] != 0) {
        merge_next();
        ++done_prefix;
      }
      if (models.size() >= options_.max_models || !prefix_status.ok()) {
        winner.store(true, std::memory_order_relaxed);
      }
    }
  };

  TaskGroup group(options_.executor);
  for (size_t t = 1; t < threads; ++t) {
    group.Spawn([&] { run_worker(/*helper=*/true); });
  }
  run_worker(/*helper=*/false);
  group.Join();  // after this no helper runs — locals are safe

  stats.steals = steals.load(std::memory_order_relaxed);
  stats.dominated = merge_dominated;
  for (size_t i = 0; i < subtree_count; ++i) {
    stats.Merge(sub_stats[i]);
    if (hit_winner[i] != 0) ++stats.cancelled_subtrees;
  }
  // Every subtree is done and merged. Cancelled or failed subtrees beyond
  // the cut never reached `models`; their errors are dropped exactly like
  // the sequential search never reaching them.
  ORDLOG_RETURN_IF_ERROR(prefix_status);
  return models;
}

Status StableModelSolver::Search(size_t level, Interpretation& candidate,
                                 SearchEnv& env) const {
  ++env.stats.nodes;
  // Budget accounting is local when sequential, global when parallel.
  uint64_t budget_nodes = env.stats.nodes;
  if (env.shared_nodes != nullptr) {
    budget_nodes =
        env.shared_nodes->fetch_add(1, std::memory_order_relaxed) + 1;
  }
  if (budget_nodes > options_.node_budget) {
    return ResourceExhaustedError(
        StrCat("stable-model search exceeded node_budget=",
               options_.node_budget));
  }
  if (options_.cancel != nullptr &&
      env.stats.nodes % options_.cancel_check_interval == 0) {
    ORDLOG_RETURN_IF_ERROR(options_.cancel->Check());
  }
  if (env.winner != nullptr &&
      env.winner->load(std::memory_order_relaxed)) {
    env.winner_hit = true;  // another subtree prefix already has the answer
    return Status::Ok();
  }
  if (env.results.size() >= env.cap) return Status::Ok();
  const uint64_t node = env.stats.nodes;  // this invocation's search-node id
  if (level == branch_.size()) {
    const bool accepted = checker_.IsModel(candidate) &&
                          assumptions_.IsAssumptionFree(candidate);
    // Leaves come in order true < false < undefined per branch atom, so a
    // strict superset of this model, which differs first at a branch atom
    // that this model leaves undefined, was visited earlier; a maximal one
    // among those is kept. One check against the kept models is exact.
    if (accepted) {
      if (env.maximal && HasProperSuperset(candidate, env.results)) {
        ++env.stats.dominated;
      } else {
        env.results.push_back(candidate);
      }
    }
    ++env.stats.leaves;
    solver_trace::Emit(options_.trace, TraceEventKind::kSolverLeaf, view_,
                       node, accepted ? 1 : 0, 0, 0);
    return Status::Ok();
  }
  const GroundAtomId atom = branch_[level];
  const auto try_branch = [&](TruthValue value) -> Status {
    candidate.Set(atom, value);
    ++env.stats.branches;
    solver_trace::Emit(options_.trace, TraceEventKind::kSolverBranch, view_,
                       node, atom, static_cast<uint64_t>(value), level);
    if (options_.enable_pruning && !ExtensionPossible(candidate, level + 1)) {
      ++env.stats.prunes;
      solver_trace::Emit(options_.trace, TraceEventKind::kSolverPrune, view_,
                         node, 0, 0, level + 1);
      return Status::Ok();
    }
    return Search(level + 1, candidate, env);
  };
  // Assigned values first so that maximal models tend to be found early.
  if (allow_true_[level]) {
    ORDLOG_RETURN_IF_ERROR(try_branch(TruthValue::kTrue));
  }
  if (allow_false_[level]) {
    ORDLOG_RETURN_IF_ERROR(try_branch(TruthValue::kFalse));
  }
  ORDLOG_RETURN_IF_ERROR(try_branch(TruthValue::kUndefined));
  candidate.Set(atom, TruthValue::kUndefined);
  ++env.stats.backtracks;
  solver_trace::Emit(options_.trace, TraceEventKind::kSolverBacktrack, view_,
                     node, 0, 0, level);
  return Status::Ok();
}

}  // namespace ordlog

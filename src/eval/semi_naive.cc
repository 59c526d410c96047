#include "eval/semi_naive.h"

#include <chrono>
#include <vector>

#include "base/logging.h"

namespace ordlog {

namespace {
// Rule flags: a rule leaves the race once fired or blocked.
constexpr uint8_t kFired = 1;
constexpr uint8_t kBlocked = 2;
// Cancellation poll interval for the inner propagation loops, matching
// the worklist engine's granularity.
constexpr size_t kCheckInterval = 4096;
}  // namespace

SemiNaiveEvaluator::SemiNaiveEvaluator(const GroundProgram& program,
                                       ComponentId view)
    : program_(program), view_(view), compiled_(program, view) {}

Interpretation SemiNaiveEvaluator::Compute() const {
  // No token, no seed: ComputeImpl cannot fail.
  return std::move(ComputeImpl(nullptr, nullptr)).value();
}

StatusOr<Interpretation> SemiNaiveEvaluator::Compute(
    const CancelToken& cancel) const {
  return ComputeImpl(&cancel, nullptr);
}

StatusOr<Interpretation> SemiNaiveEvaluator::ComputeFrom(
    const Interpretation& seed, const CancelToken* cancel) const {
  return ComputeImpl(cancel, &seed);
}

StatusOr<Interpretation> SemiNaiveEvaluator::ComputeImpl(
    const CancelToken* cancel, const Interpretation* seed) const {
  const std::chrono::steady_clock::time_point trace_start =
      trace_ != nullptr ? std::chrono::steady_clock::now()
                        : std::chrono::steady_clock::time_point();
  stats_ = EvalStats{};
  const size_t n = compiled_.num_rules();
  Interpretation result = Interpretation::ForProgram(program_);
  FactStore store(program_);
  std::vector<uint32_t> unsat = compiled_.initial_unsat;
  std::vector<uint32_t> live = compiled_.initial_live_silencers;
  std::vector<uint8_t> flags(n, 0);

  // A conflict (deriving both an atom and its complement) is impossible
  // from ∅: a fired rule's body stays inside the (consistent) growing
  // interpretation, so a fired silencer can never become blocked and
  // release a complementary-headed victim. A warm-start seed outside
  // V∞(∅) can produce one; it is reported to the caller instead of
  // polluting the result.
  bool conflict = false;

  // Fires rule r the moment both its counters hit zero (the worklist's
  // chaotic discipline, driven by delta tables): the head enters the
  // interpretation now and is staged into the round being accumulated.
  auto fire = [&](uint32_t r) {
    flags[r] |= kFired;
    ++stats_.firings;
    const GroundLiteral head = compiled_.heads[r];
    if (!result.Contains(head)) {
      if (!result.Add(head)) {
        ORDLOG_DCHECK(seed != nullptr)
            << "semi-naive evaluation produced a conflict";
        conflict = true;
        return;
      }
      store.Stage(head);
    }
    if (trace_ != nullptr) {
      TraceEvent event;
      event.kind = TraceEventKind::kRuleFired;
      event.component = view_;
      event.rule = compiled_.compact_to_global[r];
      event.a = result.NumAssigned();
      trace_->Emit(event);
    }
  };

  if (seed != nullptr) {
    // Seed literals form the round-0 delta: they are staged exactly like
    // derived literals and propagate (satisfy, block, release) in the
    // first round. A seed over a larger atom universe than the program's
    // is stale (atom ids were renumbered by a full reground) and must be
    // rejected before it indexes out of bounds.
    for (const GroundLiteral& literal : seed->Literals()) {
      if (literal.atom >= program_.NumAtoms()) {
        return InvalidArgumentError(
            "warm-start seed references atoms outside the ground program");
      }
      if (result.Contains(literal)) continue;
      if (!result.Add(literal)) {
        return InvalidArgumentError(
            "warm-start seed is inconsistent with the view's least model");
      }
      store.Stage(literal);
    }
  }
  // Round 0: rules applicable and unsilenced at ∅ (facts, mostly).
  for (size_t r = 0; r < n && !conflict; ++r) {
    if (unsat[r] == 0 && live[r] == 0) {
      fire(static_cast<uint32_t>(r));
    }
  }

  size_t ops = 0;
  while (!conflict) {
    if (cancel != nullptr) {
      ORDLOG_RETURN_IF_ERROR(cancel->Check());
    }
    // Commit phase: the accumulated literals become sorted per-predicate
    // delta tables.
    const size_t committed = store.Commit();
    if (committed == 0) break;  // fixpoint
    ++stats_.rounds;
    stats_.delta_tuples += committed;
    if (trace_ != nullptr) {
      TraceEvent event;
      event.kind = TraceEventKind::kFixpointRound;
      event.component = view_;
      event.a = stats_.rounds;
      event.b = result.NumAssigned();
      event.c = committed;
      trace_->Emit(event);
    }
    // Propagate phase: walk the delta channel by channel in sorted tuple
    // order. Each delta literal L (a) blocks the rules whose body
    // contains ¬L, releasing the rules those silenced, and (b) satisfies
    // one body literal of the rules whose body contains L. Rules without
    // a delta body atom are untouched — the semi-naive property. Rules
    // whose counters reach zero fire immediately; their heads are staged
    // into the next round's delta.
    for (const FactStore::Delta& delta : store.deltas()) {
      const PredicateTable& table = delta.table;
      for (size_t row = 0; row < table.NumRows() && !conflict; ++row) {
        if (cancel != nullptr && ++ops % kCheckInterval == 0) {
          ORDLOG_RETURN_IF_ERROR(cancel->Check());
        }
        const GroundLiteral literal{table.atom_id(row), delta.positive};
        const size_t key = CompiledView::LiteralKey(literal);
        const size_t complement_key =
            CompiledView::LiteralKey(literal.Complement());
        auto [block_first, block_last] =
            compiled_.body_index.neighbors(complement_key);
        for (const uint32_t* it = block_first; it != block_last; ++it) {
          const uint32_t r = *it;
          if (flags[r] & kBlocked) continue;
          flags[r] |= kBlocked;
          auto [sil_first, sil_last] = compiled_.silences.neighbors(r);
          for (const uint32_t* s = sil_first; s != sil_last; ++s) {
            if (--live[*s] == 0 && flags[*s] == 0 && unsat[*s] == 0) {
              fire(*s);
            }
          }
        }
        auto [sat_first, sat_last] = compiled_.body_index.neighbors(key);
        for (const uint32_t* it = sat_first; it != sat_last; ++it) {
          const uint32_t r = *it;
          if (--unsat[r] == 0 && flags[r] == 0 && live[r] == 0) {
            fire(r);
          }
        }
      }
    }
  }
  if (conflict) {
    return InvalidArgumentError(
        "warm-start seed is inconsistent with the view's least model");
  }

  if (trace_ != nullptr) {
    TraceEvent event;
    event.kind = TraceEventKind::kFixpointDone;
    event.component = view_;
    event.a = stats_.rounds;
    event.b = result.NumAssigned();
    event.duration_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - trace_start)
            .count());
    trace_->Emit(event);
  }
  return result;
}

}  // namespace ordlog

#ifndef ORDLOG_KB_MUTATION_H_
#define ORDLOG_KB_MUTATION_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/bitset.h"
#include "lang/symbol_table.h"

namespace ordlog {

// A batch of knowledge-base edits applied atomically by
// KnowledgeBase::Apply. Batching matters for the incremental path: one
// Apply grounds one delta and bumps the revision once, however many facts
// it carries.
class Mutation {
 public:
  struct Op {
    enum class Kind : uint8_t { kAddFact, kRetractFact, kAddRule };
    Kind kind = Kind::kAddFact;
    std::string module;
    std::string text;  // literal source for facts, rule source for rules
  };

  // Asserts the literal (e.g. "penguin(pingu)" or "-fly(pingu)") as a
  // bodyless rule of `module`.
  Mutation& AddFact(std::string_view module, std::string_view literal_text) {
    ops_.push_back(Op{Op::Kind::kAddFact, std::string(module),
                      std::string(literal_text)});
    return *this;
  }
  Mutation& AddFacts(std::string_view module,
                     const std::vector<std::string>& literal_texts) {
    for (const std::string& text : literal_texts) AddFact(module, text);
    return *this;
  }
  // Withdraws a previously asserted fact. Retractions always force a full
  // reground: a cached ground program may hold instances whose constraint
  // pruning or silencing structure assumed the fact's presence.
  Mutation& RetractFact(std::string_view module,
                        std::string_view literal_text) {
    ops_.push_back(Op{Op::Kind::kRetractFact, std::string(module),
                      std::string(literal_text)});
    return *this;
  }
  Mutation& RetractFacts(std::string_view module,
                         const std::vector<std::string>& literal_texts) {
    for (const std::string& text : literal_texts) RetractFact(module, text);
    return *this;
  }
  // Adds one parsed rule, e.g. "fly(X) :- bird(X)." .
  Mutation& AddRule(std::string_view module, std::string_view rule_text) {
    ops_.push_back(Op{Op::Kind::kAddRule, std::string(module),
                      std::string(rule_text)});
    return *this;
  }

  bool empty() const { return ops_.empty(); }
  bool has_retraction() const {
    for (const Op& op : ops_) {
      if (op.kind == Op::Kind::kRetractFact) return true;
    }
    return false;
  }
  const std::vector<Op>& ops() const { return ops_; }

 private:
  std::vector<Op> ops_;
};

// What one KnowledgeBase::Apply did, and how much cached work survived it.
struct MutationReport {
  // KB revision after the batch.
  uint64_t revision = 0;
  // True when the cached ground program was patched by the delta grounder
  // (in place, or a copy while readers held it); false when the batch
  // forced a full invalidation.
  bool incremental = false;
  // Why the incremental path was not taken (empty when it was).
  std::string fallback_reason;
  // Views whose least/stable models may have changed, as a bitset over
  // component ids and as rendered module names. On the full path every
  // view is marked.
  DynamicBitset affected_views;
  std::vector<std::string> affected_modules;
  // The mutation's dependency cone: every predicate whose extension may
  // have changed in some view (rendered names, sorted). Warm-start seeds
  // are the previous models restricted to predicates outside this cone.
  std::vector<std::string> touched_predicates;
  // The same cone as interned symbol ids (sorted), for callers that hold
  // the pool and build their own restricted seeds (QueryEngine does).
  std::vector<SymbolId> cone;
  // Incremental path only: ground rules/atoms appended, universe terms
  // added, and candidate bindings the delta enumeration attempted.
  size_t delta_rules = 0;
  size_t delta_atoms = 0;
  size_t new_constants = 0;
  uint64_t delta_candidates = 0;
  // Views that received a warm-start seed for their next least-model
  // computation.
  size_t warm_seeded_views = 0;
};

}  // namespace ordlog

#endif  // ORDLOG_KB_MUTATION_H_

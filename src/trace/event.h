#ifndef ORDLOG_TRACE_EVENT_H_
#define ORDLOG_TRACE_EVENT_H_

#include <cstdint>

namespace ordlog {

// The kinds of structured trace events emitted by the semantics core and
// the grounder. Every event is a fixed-size POD (TraceEvent)
// so that sinks can buffer them without allocation; the per-kind meaning
// of the payload fields is documented on each enumerator and, with units,
// in docs/TRACING.md.
enum class TraceEventKind : uint8_t {
  // One V_{P,C} round (Def. 4) or one semi-naive delta round: `a` = round
  // number (1-based), `b` = total literals derived so far, `c` = literals
  // added (tuples committed) by this round.
  kFixpointRound = 0,
  // Fixpoint reached: `a` = rounds (or rule firings for the worklist
  // computation), `b` = literals in V∞(∅), `duration_us` = wall time.
  kFixpointDone,
  // A least-model engine (worklist or semi-naive) fired a rule: `rule`
  // fired, deriving its head; `a` = number of literals derived so far.
  kRuleFired,
  // A rule's Definition 2 status settled: `rule` has status `a`
  // (RuleStatusCode below); for overruled/defeated, `other_rule` is the
  // silencing rule, `component` / `other_component` the component pair
  // (C(rule), C(other_rule)).
  kRuleStatus,
  // Stable/total-model search branched: node `node` assigned atom `a`
  // truth `b` (0 false / 1 undefined / 2 true) at depth `c`.
  kSolverBranch,
  // Search reached a leaf: node `node`, `a` = 1 when the candidate was
  // accepted as a model, 0 when rejected.
  kSolverLeaf,
  // Search pruned the subtree under node `node` at depth `c` (the partial
  // assignment certainly violates Def. 3 in every completion).
  kSolverPrune,
  // Search exhausted node `node` and returned to depth `c`.
  kSolverBacktrack,
  // Grounder finished one component: `component`, `a` = ground rules
  // emitted for it, `b` = candidate bindings matched, `c` = index probes,
  // `duration_us` = wall time spent instantiating it.
  kGroundComponent,
  // Grounding finished: `a` = total ground rules, `b` = ground atoms,
  // `c` = total candidate bindings matched, `duration_us` = total wall
  // time.
  kGroundDone,
  // A KB mutation patched the cached ground program in place instead of
  // regrounding: `component` = first mutated component, `a` = ground rules
  // appended, `b` = ground atoms appended, `c` = new universe terms,
  // `duration_us` = wall time of the delta ground.
  kDeltaGround,
};

// Payload values for TraceEvent::a under kRuleStatus, mirroring the
// paper's Definition 2 statuses.
enum class RuleStatusCode : uint8_t {
  kApplicable = 0,  // B(r) ⊆ I, head not (yet) derived
  kApplied,         // applicable and H(r) ∈ I
  kBlocked,         // some body literal's complement holds
  kOverruled,       // silenced by a strictly more specific rule
  kDefeated,        // silenced by an incomparable/equal-component rule
  kNotApplicable,   // body not satisfied (and not blocked)
};

// One structured trace event. Field roles depend on `kind` (see the
// TraceEventKind enumerators); unused fields are zero. 40 bytes, trivially
// copyable, no ownership — safe to ring-buffer by value.
struct TraceEvent {
  // What happened; selects the meaning of the payload fields.
  TraceEventKind kind = TraceEventKind::kFixpointRound;
  // Component the event concerns (view or C(rule)), when applicable.
  uint32_t component = 0;
  // Counterpart component for kRuleStatus (the silencer's component).
  uint32_t other_component = 0;
  // Ground-rule index into GroundProgram::rule, when applicable.
  uint32_t rule = 0;
  // Silencing ground-rule index for kRuleStatus overruled/defeated.
  uint32_t other_rule = 0;
  // Search node id for the kSolver* events (the solver's node counter).
  uint64_t node = 0;
  // Generic payload slots; meaning per kind (see TraceEventKind).
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
  // Wall time in microseconds for the *Done / kGroundComponent /
  // kDeltaGround events; zero elsewhere.
  uint64_t duration_us = 0;
};

// Canonical lowercase name of an event kind ("fixpoint_round", ...).
const char* TraceEventKindName(TraceEventKind kind);

// Canonical lowercase name of a rule status ("applied", "overruled", ...).
const char* RuleStatusCodeName(RuleStatusCode code);

}  // namespace ordlog

#endif  // ORDLOG_TRACE_EVENT_H_

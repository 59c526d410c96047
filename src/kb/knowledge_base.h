#ifndef ORDLOG_KB_KNOWLEDGE_BASE_H_
#define ORDLOG_KB_KNOWLEDGE_BASE_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "core/interpretation.h"
#include "eval/evaluator.h"
#include "ground/grounder.h"
#include "kb/mutation.h"
#include "lang/program.h"

namespace ordlog {

// The object-oriented layer of the paper's Section 5: a knowledge base of
// *modules* (objects) connected by an *isa* hierarchy, where more specific
// modules inherit the rules of their ancestors and may overrule them —
// defaults with exceptions. Queries are answered per module.
//
//   KnowledgeBase kb;
//   kb.AddModule("animals");
//   kb.AddRuleText("animals", "fly(X) :- bird(X).");
//   kb.AddModule("antarctic");
//   kb.AddIsa("antarctic", "animals");
//   kb.AddRuleText("antarctic", "-fly(X) :- penguin(X).");
//   ...
//   TruthValue v = kb.Query("antarctic", "fly(pingu)").value();
//
// Skeptical truth is read off the least model V∞ (Thm. 1b: the
// intersection of all models — exactly what is certain). Brave/cautious
// queries range over the stable models (Def. 9).
//
// Each revision has one ground program, owned here and shared read-only
// (shared_ground()). Apply may patch it (see there); other mutations drop
// it, and the next query regrounds lazily.
class KnowledgeBase {
 public:
  KnowledgeBase();
  explicit KnowledgeBase(GrounderOptions options);

  // --- construction --------------------------------------------------------
  Status AddModule(std::string_view name);
  bool HasModule(std::string_view name) const;
  // Declares `child` isa `parent` (child < parent: child inherits and may
  // overrule parent rules). Both modules must exist.
  Status AddIsa(std::string_view child, std::string_view parent);
  // Parses and adds one rule, e.g. "fly(X) :- bird(X)." .
  Status AddRuleText(std::string_view module, std::string_view rule_text);
  Status AddRule(std::string_view module, Rule rule);
  // Loads `.olp` source (components become modules, order edges isa links).
  Status Load(std::string_view source);

  // Declares `successor` as a new version of `predecessor`: an isa link,
  // per the paper's observation that "a most specific module can be
  // thought of as the new version of a more general module".
  Status AddVersion(std::string_view successor,
                    std::string_view predecessor) {
    return AddIsa(successor, predecessor);
  }

  // Object identity (the paper's Section 5, citing [K]): creates module
  // `instance` as an identity-bound copy of `template_module` — every
  // occurrence of the reserved constant `self` in the template's rules is
  // replaced by the constant `instance` — and gives the instance the same
  // isa parents as the template. The template itself remains a pure
  // schema. Instances are independent objects: facts asserted into one do
  // not leak into another.
  Status Instantiate(std::string_view template_module,
                     std::string_view instance);

  // --- mutation batches ----------------------------------------------------
  // Applies a batch of edits as one revision bump and reports the damage
  // (docs/INCREMENTAL.md). When the batch is add-only, a ground program is
  // cached, and the grounder options permit it (indexed strategy, no
  // reachability pruning, function depth 0), the cached ground program is
  // patched by the delta grounder instead of being dropped — in place, or
  // copy-on-write while shared_ground() holders exist; cached
  // least/stable models of views outside the affected set survive, and
  // affected views keep their previous model restricted to predicates
  // outside the dependency cone as a warm-start seed. Retractions and
  // ineligible batches fall back to a full invalidation (the report says
  // why). On error the batch may be partially applied, but every cache is
  // dropped, so subsequent queries are still sound.
  StatusOr<MutationReport> Apply(const Mutation& mutation);

  // --- queries --------------------------------------------------------------
  // Truth of the literal in the module's least model: kTrue if derivable,
  // kFalse if its complement is derivable, kUndefined otherwise.
  StatusOr<TruthValue> Query(std::string_view module,
                             std::string_view literal_text);

  // Every literal of the module's least model, rendered.
  StatusOr<std::vector<std::string>> DerivableFacts(std::string_view module);

  // Pattern query: all literals of the module's least model matching
  // `pattern_text`, which may contain variables, e.g. "fly(X)" or
  // "-fly(X)". Results are rendered ground literals in atom-id order.
  StatusOr<std::vector<std::string>> QueryAll(std::string_view module,
                                              std::string_view pattern_text);

  // Stable-model reasoning (may be exponential; bounded by the solver's
  // node budget).
  StatusOr<bool> BravelyHolds(std::string_view module,
                              std::string_view literal_text);
  StatusOr<bool> CautiouslyHolds(std::string_view module,
                                 std::string_view literal_text);
  StatusOr<size_t> CountStableModels(std::string_view module);

  // Derivation trace / failure diagnosis for the literal (see Explainer).
  StatusOr<std::string> Explain(std::string_view module,
                                std::string_view literal_text);

  // Machine-readable counterpart of Explain: the literal's derivation
  // graph under the module's least model as a single-line JSON object
  // (see DerivationBuilder for the schema). A literal that does not occur
  // in the knowledge base yields {"truth":"undefined","unknown":true}.
  StatusOr<std::string> ExplainJson(std::string_view module,
                                    std::string_view literal_text);

  // --- introspection --------------------------------------------------------
  // Names of all modules, in creation order.
  std::vector<std::string> ListModules() const;
  // Rendered rules of one module.
  StatusOr<std::vector<std::string>> ModuleRules(std::string_view module)
      const;
  // Names of the modules `module` directly inherits from (its declared
  // isa parents, not the transitive closure).
  StatusOr<std::vector<std::string>> Parents(std::string_view module) const;

  // --- plumbing ------------------------------------------------------------
  const OrderedProgram& program() const { return program_; }
  // Grounds if needed and returns the ground program.
  StatusOr<const GroundProgram*> ground();
  // As above, threading a per-call cancellation token into the grounder's
  // enumeration loops (kCancelled/kDeadlineExceeded mid-grounding) and
  // filling `stats` with the run's instantiation counters. Both may be
  // null; when the program is already grounded `stats` is zeroed (the
  // cached snapshot cost nothing).
  StatusOr<const GroundProgram*> ground(const CancelToken* cancel,
                                        GroundStats* stats);
  // The cached ground program, as ground() returns it (null until then).
  // A holder keeps that revision's program alive and unchanged.
  std::shared_ptr<const GroundProgram> shared_ground() const { return ground_; }

  // Monotone revision counter, bumped by every mutation (AddModule,
  // AddIsa, AddRule, Load, Instantiate). Serving layers (runtime/) key
  // cached ground programs and models by it: a cached entry is valid
  // exactly while the revision it was computed at is still current.
  uint64_t revision() const { return revision_; }

  // The term pool all of this KB's rules and query literals are interned
  // in. Exposed for the runtime layer, which parses query literals against
  // the same pool; parsing mutates the pool, so concurrent users must
  // serialize access (QueryEngine does).
  const std::shared_ptr<TermPool>& shared_pool() const { return pool_; }

  // Always null; kept only for the perfbench/serve_bench.cc call site.
  std::shared_ptr<const FamilySet> families() const { return nullptr; }
  // Always the default; kept only for the perfbench/serve_bench.cc call
  // site.
  EvalOptions eval_options() const { return {}; }

 private:
  // Bumps the revision and drops the lazily cached ground program/models.
  void Invalidate();
  StatusOr<ComponentId> ModuleId(std::string_view name) const;
  // Grounds if needed, then resolves `literal_text` (ResolveGroundLiteral).
  StatusOr<std::optional<GroundLiteral>> ResolveLiteral(
      std::string_view literal_text);
  StatusOr<const Interpretation*> LeastModel(ComponentId module);
  StatusOr<const std::vector<Interpretation>*> StableModels(
      ComponentId module);

  GrounderOptions options_;
  std::shared_ptr<TermPool> pool_;
  uint64_t revision_ = 0;
  OrderedProgram program_;
  std::shared_ptr<GroundProgram> ground_;
  std::unordered_map<ComponentId, Interpretation> least_models_;
  std::unordered_map<ComponentId, std::vector<Interpretation>>
      stable_models_;
  // Warm-start seeds left behind by Apply for affected views: the view's
  // pre-mutation least model restricted to predicates outside the
  // mutation's dependency cone (a subset of the new least model, so
  // LeastModelComputer::ComputeFrom may resume from it). Consumed by the
  // next LeastModel call; cleared by Invalidate.
  std::unordered_map<ComponentId, Interpretation> warm_seeds_;
};

// --- query steps shared with the serving layer (runtime/) -------------------
// Parses `literal_text` (interning into `pool`) and finds its atom in
// `ground` (nullopt: absent); kInvalidArgument unless the literal is ground.
StatusOr<std::optional<GroundLiteral>> ResolveGroundLiteral(
    TermPool& pool, const GroundProgram& ground, std::string_view literal_text);
// Truth over a view's stable models; an absent (nullopt) literal holds in
// no model, so never bravely, and cautiously iff there are no models.
bool HoldsBravely(const std::vector<Interpretation>& models,
                  const std::optional<GroundLiteral>& literal);
bool HoldsCautiously(const std::vector<Interpretation>& models,
                     const std::optional<GroundLiteral>& literal);
// The explain JSON for a literal that does not occur in the knowledge base.
std::string UnknownLiteralJson(std::string_view module,
                               std::string_view literal_text);
// `model` (possibly over an earlier, smaller atom universe) restricted to
// predicates outside a mutation's sorted dependency `cone`, sized for
// `ground`: a subset of the view's new least model, so a warm seed.
Interpretation RestrictOutsideCone(const Interpretation& model,
                                   const GroundProgram& ground,
                                   const std::vector<SymbolId>& cone);

}  // namespace ordlog

#endif  // ORDLOG_KB_KNOWLEDGE_BASE_H_

#include "kb/knowledge_base.h"

#include <algorithm>

#include "base/strings.h"
#include "core/least_model.h"
#include "lang/match.h"
#include "lang/printer.h"
#include "core/stable_solver.h"
#include "incremental/delta_grounder.h"
#include "incremental/depgraph.h"
#include "kb/derivation.h"
#include "kb/explain.h"
#include "parser/parser.h"
#include "trace/json.h"

namespace ordlog {

KnowledgeBase::KnowledgeBase() : KnowledgeBase(GrounderOptions{}) {}

KnowledgeBase::KnowledgeBase(GrounderOptions options)
    : options_(options),
      pool_(std::make_shared<TermPool>()),
      program_(pool_) {}

void KnowledgeBase::Invalidate() {
  ++revision_;
  ground_.reset();
  least_models_.clear();
  stable_models_.clear();
  warm_seeds_.clear();
}

Status KnowledgeBase::AddModule(std::string_view name) {
  Invalidate();
  const StatusOr<ComponentId> result =
      program_.AddComponent(std::string(name));
  return result.ok() ? Status::Ok() : result.status();
}

bool KnowledgeBase::HasModule(std::string_view name) const {
  return program_.FindComponent(name).ok();
}

StatusOr<ComponentId> KnowledgeBase::ModuleId(std::string_view name) const {
  return program_.FindComponent(name);
}

Status KnowledgeBase::AddIsa(std::string_view child,
                             std::string_view parent) {
  ORDLOG_ASSIGN_OR_RETURN(const ComponentId child_id, ModuleId(child));
  ORDLOG_ASSIGN_OR_RETURN(const ComponentId parent_id, ModuleId(parent));
  Invalidate();
  return program_.AddOrder(child_id, parent_id);
}

Status KnowledgeBase::AddRuleText(std::string_view module,
                                  std::string_view rule_text) {
  ORDLOG_ASSIGN_OR_RETURN(Rule rule, ParseRule(rule_text, *pool_));
  return AddRule(module, std::move(rule));
}

Status KnowledgeBase::AddRule(std::string_view module, Rule rule) {
  ORDLOG_ASSIGN_OR_RETURN(const ComponentId id, ModuleId(module));
  Invalidate();
  return program_.AddRule(id, std::move(rule));
}

Status KnowledgeBase::Load(std::string_view source) {
  ORDLOG_ASSIGN_OR_RETURN(OrderedProgram parsed,
                          ParseProgram(source, pool_));
  for (ComponentId c = 0; c < parsed.NumComponents(); ++c) {
    const Component& component = parsed.component(c);
    if (!HasModule(component.name)) {
      ORDLOG_RETURN_IF_ERROR(AddModule(component.name));
    }
    for (const Rule& rule : component.rules) {
      ORDLOG_RETURN_IF_ERROR(AddRule(component.name, rule));
    }
  }
  for (const auto& [lower, higher] : parsed.order_edges()) {
    ORDLOG_RETURN_IF_ERROR(AddIsa(parsed.component(lower).name,
                                  parsed.component(higher).name));
  }
  return Status::Ok();
}

Status KnowledgeBase::Instantiate(std::string_view template_module,
                                  std::string_view instance) {
  ORDLOG_ASSIGN_OR_RETURN(const ComponentId template_id,
                          ModuleId(template_module));
  // AddModule invalidates; the direct program_ mutations below are covered
  // by that same revision bump (nothing is cached in between).
  ORDLOG_RETURN_IF_ERROR(AddModule(instance));
  ORDLOG_ASSIGN_OR_RETURN(const ComponentId instance_id, ModuleId(instance));

  const SymbolId self = pool_->symbols().Intern("self");
  const TermId identity = pool_->MakeConstant(instance);
  auto rebind_atom = [&](const Atom& atom) {
    Atom rebound;
    rebound.predicate = atom.predicate;
    rebound.args.reserve(atom.args.size());
    for (TermId arg : atom.args) {
      rebound.args.push_back(pool_->ReplaceConstant(arg, self, identity));
    }
    return rebound;
  };
  // Copy first: AddRule on the instance may invalidate nothing here, but
  // the component reference would dangle if the vector reallocated.
  const std::vector<Rule> template_rules =
      program_.component(template_id).rules;
  for (const Rule& rule : template_rules) {
    Rule rebound;
    rebound.head = Literal{rebind_atom(rule.head.atom), rule.head.positive};
    for (const Literal& literal : rule.body) {
      rebound.body.push_back(
          Literal{rebind_atom(literal.atom), literal.positive});
    }
    rebound.constraints = rule.constraints;
    ORDLOG_RETURN_IF_ERROR(program_.AddRule(instance_id, std::move(rebound)));
  }
  // The instance inherits from the template's parents, not the template:
  // the schema's `self` rules would otherwise flow in un-rebound.
  const std::vector<std::pair<ComponentId, ComponentId>> edges =
      program_.order_edges();
  for (const auto& [lower, higher] : edges) {
    if (lower == template_id) {
      ORDLOG_RETURN_IF_ERROR(program_.AddOrder(instance_id, higher));
    }
  }
  return Status::Ok();
}

StatusOr<MutationReport> KnowledgeBase::Apply(const Mutation& mutation) {
  // Parse and resolve the whole batch before touching anything, so the
  // common error cases (unknown module, syntax error) leave the KB and its
  // caches untouched.
  struct ParsedOp {
    Mutation::Op::Kind kind = Mutation::Op::Kind::kAddFact;
    ComponentId component = 0;
    Rule rule;
  };
  std::vector<ParsedOp> parsed;
  parsed.reserve(mutation.ops().size());
  for (const Mutation::Op& op : mutation.ops()) {
    ParsedOp p;
    p.kind = op.kind;
    ORDLOG_ASSIGN_OR_RETURN(p.component, ModuleId(op.module));
    if (op.kind == Mutation::Op::Kind::kAddRule) {
      ORDLOG_ASSIGN_OR_RETURN(p.rule, ParseRule(op.text, *pool_));
    } else {
      ORDLOG_ASSIGN_OR_RETURN(Literal literal, ParseLiteral(op.text, *pool_));
      p.rule.head = std::move(literal);
    }
    parsed.push_back(std::move(p));
  }

  MutationReport report;
  std::string ineligible;
  if (ground_ == nullptr) {
    ineligible = "no cached ground program to patch";
  } else if (mutation.has_retraction()) {
    ineligible = "retraction invalidates cached ground instances";
  } else if (options_.strategy != GroundStrategy::kIndexed) {
    ineligible = "delta grounding requires the indexed strategy";
  } else if (options_.prune_unreachable) {
    ineligible = "delta grounding is incompatible with reachability pruning";
  } else if (options_.herbrand.max_function_depth != 0) {
    ineligible = "delta grounding requires max_function_depth == 0";
  }

  if (ineligible.empty()) {
    // Incremental path: patch the cached ground program, then append the
    // rules to the source program so both tell the same story.
    // Copy-on-write: a reader still holding the program keeps revision N.
    // No reference can appear under the caller's serialization; lock() is
    // an acquiring read of the count (use_count() alone is relaxed), so an
    // in-place patch is ordered after every former holder's last read.
    if (std::weak_ptr(ground_).lock().use_count() != 2) {  // ground_ + probe
      ground_ = std::make_shared<GroundProgram>(*ground_);
    }
    std::vector<DeltaRule> delta;
    delta.reserve(parsed.size());
    std::unordered_map<ComponentId, uint32_t> pending;
    for (const ParsedOp& p : parsed) {
      DeltaRule d;
      d.component = p.component;
      d.source_rule_index = static_cast<uint32_t>(
          program_.component(p.component).rules.size() +
          pending[p.component]++);
      d.rule = p.rule;
      delta.push_back(std::move(d));
    }
    StatusOr<DeltaResult> result =
        DeltaGrounder::Apply(program_, delta, options_, ground_.get());
    for (ParsedOp& p : parsed) {
      ORDLOG_RETURN_IF_ERROR(program_.AddRule(p.component, std::move(p.rule)));
    }
    if (!result.ok()) {
      // The patch may be half applied; drop it and every model cache. The
      // program mutations above already happened, so the KB is exactly "as
      // if built cold with the new rules".
      Invalidate();
      report.revision = revision_;
      report.fallback_reason =
          StrCat("delta grounding failed: ", result.status().message());
      report.affected_views = DynamicBitset(program_.NumComponents());
      for (ComponentId c = 0; c < program_.NumComponents(); ++c) {
        report.affected_views.Set(c);
        report.affected_modules.push_back(program_.component(c).name);
      }
      return report;
    }
    ++revision_;
    report.incremental = true;
    report.revision = revision_;
    report.delta_rules = result->rules_added;
    report.delta_atoms = result->atoms_added;
    report.new_constants = result->new_terms;
    report.delta_candidates = result->candidates;

    // Dependency cone of the batch: head predicates of the new rules,
    // plus — when the universe grew — every head that a new constant can
    // reach without passing through a body atom
    // (docs/INCREMENTAL.md#new-constants).
    const DepGraph graph = DepGraph::Build(program_);
    std::vector<SymbolId> seeds;
    for (const DeltaRule& d : delta) {
      seeds.push_back(d.rule.head.atom.predicate);
    }
    if (result->new_terms > 0) {
      const std::vector<SymbolId>& extra = graph.HeadOnlyVarPredicates();
      seeds.insert(seeds.end(), extra.begin(), extra.end());
    }
    report.cone = graph.Cone(seeds);
    for (SymbolId predicate : report.cone) {
      report.touched_predicates.push_back(
          std::string(pool_->symbols().Name(predicate)));
    }

    // A view is affected iff it sees some component that received delta
    // rules; every other view's ground(C*) is unchanged, so its models
    // survive verbatim (modulo resizing to the grown atom universe).
    const GroundProgram& patched = *ground_;
    report.affected_views = DynamicBitset(patched.NumComponents());
    for (ComponentId v = 0; v < patched.NumComponents(); ++v) {
      for (ComponentId b = 0; b < patched.NumComponents(); ++b) {
        if (result->touched_components.Test(b) && patched.Leq(v, b)) {
          report.affected_views.Set(v);
          report.affected_modules.push_back(program_.component(v).name);
          break;
        }
      }
    }

    // Cache maintenance. Affected views trade their cached least model for
    // a warm-start seed (the model restricted to predicates outside the
    // cone — still a subset of the new least model); unaffected entries are
    // kept, resized to the grown atom universe.
    for (auto it = least_models_.begin(); it != least_models_.end();) {
      if (report.affected_views.Test(it->first)) {
        warm_seeds_.insert_or_assign(
            it->first, RestrictOutsideCone(it->second, patched, report.cone));
        it = least_models_.erase(it);
      } else {
        it->second.Resize(patched.NumAtoms());
        ++it;
      }
    }
    for (auto it = stable_models_.begin(); it != stable_models_.end();) {
      if (report.affected_views.Test(it->first)) {
        it = stable_models_.erase(it);
      } else {
        for (Interpretation& model : it->second) {
          model.Resize(patched.NumAtoms());
        }
        ++it;
      }
    }
    // Seeds left by an earlier batch: still subsets of the current least
    // model for unaffected views; affected views additionally shed the new
    // cone (what was outside the old cone and the new cone never changed).
    for (auto& [view, seed] : warm_seeds_) {
      if (report.affected_views.Test(view)) {
        seed = RestrictOutsideCone(seed, patched, report.cone);
      } else {
        seed.Resize(patched.NumAtoms());
      }
    }
    report.warm_seeded_views = 0;
    for (const auto& [view, seed] : warm_seeds_) {
      if (report.affected_views.Test(view)) ++report.warm_seeded_views;
    }
    return report;
  }

  // Full path: plain program mutations under one revision bump; every
  // cache is dropped.
  Invalidate();
  for (ParsedOp& p : parsed) {
    if (p.kind == Mutation::Op::Kind::kRetractFact) {
      ORDLOG_RETURN_IF_ERROR(program_.RemoveRule(p.component, p.rule));
    } else {
      ORDLOG_RETURN_IF_ERROR(program_.AddRule(p.component, std::move(p.rule)));
    }
  }
  report.revision = revision_;
  report.fallback_reason = std::move(ineligible);
  report.affected_views = DynamicBitset(program_.NumComponents());
  for (ComponentId c = 0; c < program_.NumComponents(); ++c) {
    report.affected_views.Set(c);
    report.affected_modules.push_back(program_.component(c).name);
  }
  return report;
}

std::vector<std::string> KnowledgeBase::ListModules() const {
  std::vector<std::string> names;
  names.reserve(program_.NumComponents());
  for (ComponentId c = 0; c < program_.NumComponents(); ++c) {
    names.push_back(program_.component(c).name);
  }
  return names;
}

StatusOr<std::vector<std::string>> KnowledgeBase::ModuleRules(
    std::string_view module) const {
  ORDLOG_ASSIGN_OR_RETURN(const ComponentId id, ModuleId(module));
  std::vector<std::string> rendered;
  for (const Rule& rule : program_.component(id).rules) {
    rendered.push_back(ToString(*pool_, rule));
  }
  return rendered;
}

StatusOr<std::vector<std::string>> KnowledgeBase::Parents(
    std::string_view module) const {
  ORDLOG_ASSIGN_OR_RETURN(const ComponentId id, ModuleId(module));
  std::vector<std::string> names;
  for (const auto& [lower, higher] : program_.order_edges()) {
    if (lower == id) names.push_back(program_.component(higher).name);
  }
  return names;
}

StatusOr<const GroundProgram*> KnowledgeBase::ground() {
  return ground(nullptr, nullptr);
}

StatusOr<const GroundProgram*> KnowledgeBase::ground(
    const CancelToken* cancel, GroundStats* stats) {
  if (stats != nullptr) *stats = GroundStats{};
  if (ground_ == nullptr) {
    ORDLOG_RETURN_IF_ERROR(program_.Finalize());
    GrounderOptions options = options_;
    if (cancel != nullptr) options.cancel = cancel;
    if (stats != nullptr) options.stats = stats;
    ORDLOG_ASSIGN_OR_RETURN(GroundProgram ground_program,
                            Grounder::Ground(program_, options));
    ground_ = std::make_shared<GroundProgram>(std::move(ground_program));
  }
  return ground_.get();
}

StatusOr<std::optional<GroundLiteral>> KnowledgeBase::ResolveLiteral(
    std::string_view literal_text) {
  ORDLOG_ASSIGN_OR_RETURN(const GroundProgram* ground_program, ground());
  return ResolveGroundLiteral(*pool_, *ground_program, literal_text);
}

StatusOr<const Interpretation*> KnowledgeBase::LeastModel(
    ComponentId module) {
  auto it = least_models_.find(module);
  if (it == least_models_.end()) {
    ORDLOG_ASSIGN_OR_RETURN(const GroundProgram* ground_program, ground());
    LeastModelEvaluator evaluator(*ground_program, module);
    auto seed_it = warm_seeds_.find(module);
    if (seed_it != warm_seeds_.end()) {
      const Interpretation seed = std::move(seed_it->second);
      warm_seeds_.erase(seed_it);
      StatusOr<Interpretation> warm = evaluator.ComputeFrom(seed, nullptr);
      if (warm.ok()) {
        it = least_models_.emplace(module, std::move(warm).value()).first;
        return &it->second;
      }
      // A rejected seed means the subset invariant was violated upstream;
      // a cold fixpoint below is always sound, so recover silently.
    }
    it = least_models_.emplace(module, evaluator.Compute()).first;
  }
  return &it->second;
}

StatusOr<const std::vector<Interpretation>*> KnowledgeBase::StableModels(
    ComponentId module) {
  auto it = stable_models_.find(module);
  if (it == stable_models_.end()) {
    ORDLOG_ASSIGN_OR_RETURN(const GroundProgram* ground_program, ground());
    StableModelSolver solver(*ground_program, module);
    ORDLOG_ASSIGN_OR_RETURN(std::vector<Interpretation> models,
                            solver.StableModels());
    it = stable_models_.emplace(module, std::move(models)).first;
  }
  return &it->second;
}

StatusOr<TruthValue> KnowledgeBase::Query(std::string_view module,
                                          std::string_view literal_text) {
  ORDLOG_ASSIGN_OR_RETURN(const ComponentId id, ModuleId(module));
  ORDLOG_ASSIGN_OR_RETURN(const std::optional<GroundLiteral> literal,
                          ResolveLiteral(literal_text));
  if (!literal.has_value()) return TruthValue::kUndefined;
  ORDLOG_ASSIGN_OR_RETURN(const Interpretation* model, LeastModel(id));
  return model->Value(*literal);
}

StatusOr<std::vector<std::string>> KnowledgeBase::DerivableFacts(
    std::string_view module) {
  ORDLOG_ASSIGN_OR_RETURN(const ComponentId id, ModuleId(module));
  ORDLOG_ASSIGN_OR_RETURN(const GroundProgram* ground_program, ground());
  ORDLOG_ASSIGN_OR_RETURN(const Interpretation* model, LeastModel(id));
  std::vector<std::string> facts;
  for (const GroundLiteral& literal : model->Literals()) {
    facts.push_back(ground_program->LiteralToString(literal));
  }
  return facts;
}

StatusOr<std::vector<std::string>> KnowledgeBase::QueryAll(
    std::string_view module, std::string_view pattern_text) {
  ORDLOG_ASSIGN_OR_RETURN(const ComponentId id, ModuleId(module));
  ORDLOG_ASSIGN_OR_RETURN(const Literal pattern,
                          ParseLiteral(pattern_text, *pool_));
  ORDLOG_ASSIGN_OR_RETURN(const GroundProgram* ground_program, ground());
  ORDLOG_ASSIGN_OR_RETURN(const Interpretation* model, LeastModel(id));
  std::vector<std::string> results;
  for (const GroundLiteral& literal : model->Literals()) {
    if (literal.positive != pattern.positive) continue;
    if (MatchAtom(*pool_, pattern.atom,
                  ground_program->atom(literal.atom))
            .has_value()) {
      results.push_back(ground_program->LiteralToString(literal));
    }
  }
  return results;
}

StatusOr<bool> KnowledgeBase::BravelyHolds(std::string_view module,
                                           std::string_view literal_text) {
  ORDLOG_ASSIGN_OR_RETURN(const ComponentId id, ModuleId(module));
  ORDLOG_ASSIGN_OR_RETURN(const std::optional<GroundLiteral> literal,
                          ResolveLiteral(literal_text));
  if (!literal.has_value()) return false;
  ORDLOG_ASSIGN_OR_RETURN(const std::vector<Interpretation>* models,
                          StableModels(id));
  return HoldsBravely(*models, literal);
}

StatusOr<bool> KnowledgeBase::CautiouslyHolds(std::string_view module,
                                              std::string_view literal_text) {
  ORDLOG_ASSIGN_OR_RETURN(const ComponentId id, ModuleId(module));
  ORDLOG_ASSIGN_OR_RETURN(const std::optional<GroundLiteral> literal,
                          ResolveLiteral(literal_text));
  ORDLOG_ASSIGN_OR_RETURN(const std::vector<Interpretation>* models,
                          StableModels(id));
  return HoldsCautiously(*models, literal);
}

StatusOr<size_t> KnowledgeBase::CountStableModels(std::string_view module) {
  ORDLOG_ASSIGN_OR_RETURN(const ComponentId id, ModuleId(module));
  ORDLOG_ASSIGN_OR_RETURN(const std::vector<Interpretation>* models,
                          StableModels(id));
  return models->size();
}

StatusOr<std::string> KnowledgeBase::Explain(std::string_view module,
                                             std::string_view literal_text) {
  ORDLOG_ASSIGN_OR_RETURN(const ComponentId id, ModuleId(module));
  ORDLOG_ASSIGN_OR_RETURN(const std::optional<GroundLiteral> literal,
                          ResolveLiteral(literal_text));
  ORDLOG_ASSIGN_OR_RETURN(const GroundProgram* ground_program, ground());
  if (!literal.has_value()) {
    return StrCat("'", literal_text,
                  "' does not occur in the knowledge base\n");
  }
  ORDLOG_ASSIGN_OR_RETURN(const Interpretation* model, LeastModel(id));
  Explainer explainer(*ground_program, id, *model);
  return explainer.Explain(*literal);
}

StatusOr<std::string> KnowledgeBase::ExplainJson(
    std::string_view module, std::string_view literal_text) {
  ORDLOG_ASSIGN_OR_RETURN(const ComponentId id, ModuleId(module));
  ORDLOG_ASSIGN_OR_RETURN(const std::optional<GroundLiteral> literal,
                          ResolveLiteral(literal_text));
  ORDLOG_ASSIGN_OR_RETURN(const GroundProgram* ground_program, ground());
  if (!literal.has_value()) return UnknownLiteralJson(module, literal_text);
  ORDLOG_ASSIGN_OR_RETURN(const Interpretation* model, LeastModel(id));
  DerivationBuilder builder(*ground_program, id, *model);
  return builder.ToJson(*literal);
}

StatusOr<std::optional<GroundLiteral>> ResolveGroundLiteral(
    TermPool& pool, const GroundProgram& ground,
    std::string_view literal_text) {
  ORDLOG_ASSIGN_OR_RETURN(const Literal literal,
                          ParseLiteral(literal_text, pool));
  if (!literal.IsGround(pool)) {
    return InvalidArgumentError(
        StrCat("query literal '", literal_text, "' must be ground"));
  }
  const std::optional<GroundAtomId> atom = ground.FindAtom(literal.atom);
  if (!atom.has_value()) return std::optional<GroundLiteral>();
  return std::optional<GroundLiteral>(
      GroundLiteral{*atom, literal.positive});
}

bool HoldsBravely(const std::vector<Interpretation>& models,
                  const std::optional<GroundLiteral>& literal) {
  if (!literal.has_value()) return false;
  for (const Interpretation& model : models) {
    if (model.Contains(*literal)) return true;
  }
  return false;
}

bool HoldsCautiously(const std::vector<Interpretation>& models,
                     const std::optional<GroundLiteral>& literal) {
  if (!literal.has_value()) return models.empty();
  for (const Interpretation& model : models) {
    if (!model.Contains(*literal)) return false;
  }
  return true;
}

std::string UnknownLiteralJson(std::string_view module,
                               std::string_view literal_text) {
  return StrCat("{\"query\":", JsonQuote(literal_text),
                ",\"module\":", JsonQuote(module),
                ",\"truth\":\"undefined\",\"unknown\":true}");
}

Interpretation RestrictOutsideCone(const Interpretation& model,
                                   const GroundProgram& ground,
                                   const std::vector<SymbolId>& cone) {
  Interpretation restricted = Interpretation::ForProgram(ground);
  for (const GroundLiteral& literal : model.Literals()) {
    if (!std::binary_search(cone.begin(), cone.end(),
                            ground.atom(literal.atom).predicate)) {
      restricted.Add(literal);
    }
  }
  return restricted;
}

}  // namespace ordlog

#include "runtime/query_engine.h"

#include <array>
#include <iomanip>
#include <sstream>
#include <thread>
#include <utility>

#include "base/strings.h"
#include "core/least_model.h"
#include "core/rule_status.h"
#include "kb/derivation.h"
#include "trace/sink.h"

namespace ordlog {

namespace {

// Slow-query records retained (ring buffer; oldest overwritten), and trace
// events captured per query for each record (ring buffer).
constexpr size_t kSlowQueryCapacity = 64;
constexpr size_t kSlowQueryTraceEvents = 256;

// A query's phase clock. Phases are contiguous: each boundary reads the
// clock once, and that one reading closes the open phase and opens the
// next. Closing a phase feeds the same microseconds to its span (when the
// query records spans), to ordlog_query_phase_us{phase}, and to the
// per-query array the slow-query log serializes.
class PhaseClock {
 public:
  using Clock = SpanContext::Clock;

  // The first phase opens at `start`; `span` (may be null) receives one
  // child span per phase.
  PhaseClock(SpanContext* span,
             const std::array<Counter*, kNumQueryPhases>& totals,
             Clock::time_point start)
      : span_(span), totals_(totals), boundary_(start) {}

  // Closes the open phase (if any) and opens `phase` at that boundary.
  void Enter(QueryPhaseCode phase) {
    if (phase_.has_value()) Close();
    phase_ = phase;
    if (span_ != nullptr) {
      scope_ = span_->StartSpan(QueryPhaseCodeName(phase), boundary_);
    }
  }

  // Closes the open phase (if any) at a fresh boundary and returns the
  // boundary.
  Clock::time_point Close() {
    const Clock::time_point now = Clock::now();
    if (phase_.has_value()) {
      const uint64_t us = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(now -
                                                                boundary_)
              .count());
      const size_t index = static_cast<size_t>(*phase_);
      scope_.End(us);
      totals_[index]->Increment(us);
      us_[index] = us;
      phase_.reset();
    }
    boundary_ = now;
    return now;
  }

  // Microseconds per phase so far (zero for phases never entered).
  const std::array<uint64_t, kNumQueryPhases>& us() const { return us_; }

 private:
  SpanContext* const span_;
  const std::array<Counter*, kNumQueryPhases>& totals_;
  Clock::time_point boundary_;
  std::optional<QueryPhaseCode> phase_;
  ScopedSpan scope_;
  std::array<uint64_t, kNumQueryPhases> us_{};
};

}  // namespace

const char* QueryModeName(QueryMode mode) {
  switch (mode) {
    case QueryMode::kSkeptical:
      return "skeptical";
    case QueryMode::kBrave:
      return "brave";
    case QueryMode::kCautious:
      return "cautious";
    case QueryMode::kCountModels:
      return "count_models";
  }
  return "unknown";
}

QueryEngine::QueryEngine(KnowledgeBase& kb, QueryEngineOptions options)
    : kb_(kb),
      options_(options),
      cache_(options.cache, registry_),
      tracer_(options.spans, registry_) {
  CounterFamily& queries = registry_.GetCounterFamily(
      "ordlog_queries_total", "Queries finished, by final status.",
      {"status"});
  queries_served_ = &queries.WithLabels("served");
  queries_failed_ = &queries.WithLabels("failed");
  queries_cancelled_ = &queries.WithLabels("cancelled");
  queries_deadline_exceeded_ = &queries.WithLabels("deadline_exceeded");
  mutations_ = &registry_
                    .GetCounterFamily(
                        "ordlog_mutations_total",
                        "Writer-path calls that changed the KB revision.")
                    .WithLabels();
  snapshots_built_ =
      &registry_
           .GetCounterFamily(
               "ordlog_snapshots_total",
               "Immutable snapshots published (each shares the KB's "
               "ground program, regrounding it first if needed).")
           .WithLabels();
  solver_nodes_ = &registry_
                       .GetCounterFamily(
                           "ordlog_solver_nodes_total",
                           "Cumulative stable-search nodes visited.")
                       .WithLabels();
  CounterFamily& phases = registry_.GetCounterFamily(
      "ordlog_query_phase_us",
      "Cumulative wall time per query phase, microseconds.", {"phase"});
  for (size_t i = 0; i < phase_us_.size(); ++i) {
    phase_us_[i] =
        &phases.WithLabels(QueryPhaseCodeName(static_cast<QueryPhaseCode>(i)));
  }
  latency_ = &registry_
                  .GetHistogramFamily(
                      "ordlog_query_latency_us",
                      "End-to-end query latency, microseconds "
                      "(log2 buckets).")
                  .WithLabels();
  rule_status_family_ = &registry_.GetCounterFamily(
      "ordlog_rule_status_total",
      "Definition 2 rule statuses, tallied over the view's rules after "
      "each least-model computation.",
      {"component", "status"});
  solver_search_family_ = &registry_.GetCounterFamily(
      "ordlog_solver_search_total",
      "Stable-model search events per view component "
      "(branch / prune / leaf / backtrack).",
      {"component", "event"});
  solver_parallel_subtrees_ =
      &registry_
           .GetCounterFamily(
               "ordlog_solver_parallel_subtrees_total",
               "Frontier subtree tasks executed by parallel stable-model "
               "searches (zero while searches run sequentially).")
           .WithLabels();
  solver_parallel_steals_ =
      &registry_
           .GetCounterFamily(
               "ordlog_solver_parallel_steals_total",
               "Subtree tasks stolen (executed by a pool helper rather "
               "than the query's own thread) during parallel stable-model "
               "searches.")
           .WithLabels();
  solver_parallel_cancelled_ =
      &registry_
           .GetCounterFamily(
               "ordlog_solver_parallel_cancelled_total",
               "Subtree tasks abandoned by first-winner cancellation: a "
               "completed prefix of subtrees already held max_models "
               "models, so the rest were skipped or stopped early.")
           .WithLabels();
  batch_prefix_family_ = &registry_.GetCounterFamily(
      "ordlog_batch_prefix_total",
      "Least-model prefixes consumed by stable-model computations: "
      "kind=shared reused the revision's cached fixpoint (batched "
      "queries coalescing on one grounding + least model), "
      "kind=computed paid for it.",
      {"kind"});
  ground_rules_family_ = &registry_.GetCounterFamily(
      "ordlog_ground_rules_total",
      "Grounder work per snapshot reground: kind=emitted counts ground "
      "rules added, kind=matched counts candidate bindings tried, "
      "kind=possible counts reachability fixpoint tuples.",
      {"kind"});
  ground_index_probes_ =
      &registry_
           .GetCounterFamily(
               "ordlog_ground_index_probes_total",
               "Grounder index probes: sorted-integer range scans, "
               "universe membership checks, and possible-tuple "
               "first-argument lookups.")
           .WithLabels();
  incremental_reuse_family_ = &registry_.GetCounterFamily(
      "ordlog_incremental_reuse_total",
      "Cached work salvaged across mutations: kind=delta_ground counts "
      "mutations whose ground program was patched in place, "
      "kind=cache_promoted counts model-cache entries re-keyed to the new "
      "revision, kind=warm_start counts least-model fixpoints resumed "
      "from a previous model, kind=full_fallback counts mutations that "
      "invalidated everything.",
      {"kind"});
  eval_rounds_total_ =
      &registry_
           .GetCounterFamily(
               "ordlog_eval_rounds_total",
               "Semi-naive least-model rounds to fixpoint, summed over "
               "computations.")
           .WithLabels();
  eval_delta_tuples_total_ =
      &registry_
           .GetCounterFamily(
               "ordlog_eval_delta_tuples_total",
               "Tuples committed into per-round columnar delta tables by "
               "semi-naive least-model computations.")
           .WithLabels();
  delta_rules_total_ = &registry_
                            .GetCounterFamily(
                                "ordlog_incremental_delta_rules_total",
                                "Ground rules appended by delta patches.")
                            .WithLabels();
  delta_atoms_total_ = &registry_
                            .GetCounterFamily(
                                "ordlog_incremental_delta_atoms_total",
                                "Ground atoms appended by delta patches.")
                            .WithLabels();
  slow_queries_ = &registry_
                       .GetCounterFamily(
                           "ordlog_slow_queries_total",
                           "Queries recorded in the slow-query log.")
                       .WithLabels();
  // The KB revision is read at render time.
  Gauge* kb_revision =
      &registry_
           .GetGaugeFamily(
               "ordlog_kb_revision",
               "Current KnowledgeBase revision (bumped by every mutation).")
           .WithLabels();
  registry_.AddCollector([this, kb_revision] {
    kb_revision->Set(static_cast<int64_t>(revision()));
  });

  if (options_.slow_query_threshold.has_value()) {
    slow_log_ = std::make_unique<SlowQueryLog>(kSlowQueryCapacity);
  }

  size_t threads = options_.num_threads;
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  pool_ = std::make_unique<ThreadPool>(threads);

  if (options_.statsz_port >= 0) {
    StatszServerOptions statsz_options;
    statsz_options.port = options_.statsz_port;
    statsz_options.registry = &registry_;
    statsz_options.slow_log = slow_log_.get();
    statsz_options.traces = tracer_.store();
    statsz_options.stats_text = [this] { return Metrics().ToString(); };
    statsz_ = std::make_unique<StatszServer>(std::move(statsz_options));
    statsz_status_ = statsz_->Start();
    if (!statsz_status_.ok()) statsz_.reset();
  }
}

QueryEngine::~QueryEngine() = default;

int QueryEngine::statsz_port() const {
  return statsz_ == nullptr ? -1 : statsz_->port();
}

std::future<StatusOr<QueryAnswer>> QueryEngine::Submit(QueryRequest request) {
  auto promise = std::make_shared<std::promise<StatusOr<QueryAnswer>>>();
  std::future<StatusOr<QueryAnswer>> future = promise->get_future();
  const bool accepted =
      pool_->Submit([this, promise, request = std::move(request)]() mutable {
        promise->set_value(Run(request));
      });
  if (!accepted) {
    promise->set_value(
        FailedPreconditionError("query engine is shutting down"));
  }
  return future;
}

StatusOr<QueryAnswer> QueryEngine::Execute(QueryRequest request) {
  return Run(request);
}

StatusOr<TruthValue> QueryEngine::QuerySkeptical(std::string_view module,
                                                 std::string_view literal) {
  QueryRequest request;
  request.module = std::string(module);
  request.literal = std::string(literal);
  request.mode = QueryMode::kSkeptical;
  ORDLOG_ASSIGN_OR_RETURN(const QueryAnswer answer, Run(request));
  return answer.truth;
}

StatusOr<bool> QueryEngine::QueryBrave(std::string_view module,
                                       std::string_view literal) {
  QueryRequest request;
  request.module = std::string(module);
  request.literal = std::string(literal);
  request.mode = QueryMode::kBrave;
  ORDLOG_ASSIGN_OR_RETURN(const QueryAnswer answer, Run(request));
  return answer.holds;
}

StatusOr<bool> QueryEngine::QueryCautious(std::string_view module,
                                          std::string_view literal) {
  QueryRequest request;
  request.module = std::string(module);
  request.literal = std::string(literal);
  request.mode = QueryMode::kCautious;
  ORDLOG_ASSIGN_OR_RETURN(const QueryAnswer answer, Run(request));
  return answer.holds;
}

Status QueryEngine::Mutate(
    const std::function<Status(KnowledgeBase&)>& mutation) {
  std::unique_lock<std::shared_mutex> kb_lock(kb_mutex_);
  snapshot_.reset();
  const uint64_t old_revision = kb_.revision();
  const Status status = mutation(kb_);
  if (kb_.revision() != old_revision) mutations_->Increment();
  return status;
}

StatusOr<MutationReport> QueryEngine::ApplyMutation(
    const Mutation& mutation) {
  std::unique_lock<std::shared_mutex> kb_lock(kb_mutex_);
  // Without the engine's reference, an idle tenant's ground program is the
  // KB's alone, and the delta patch runs in place instead of on a copy.
  snapshot_.reset();
  const uint64_t old_revision = kb_.revision();
  StatusOr<MutationReport> report = kb_.Apply(mutation);
  if (kb_.revision() != old_revision) mutations_->Increment();
  if (!report.ok()) return report;

  if (!report->incremental) {
    incremental_reuse_family_->WithLabels("full_fallback").Increment();
    std::lock_guard<std::mutex> warm_lock(warm_mutex_);
    warm_seeds_.clear();
    return report;
  }

  incremental_reuse_family_->WithLabels("delta_ground").Increment();
  delta_rules_total_->Increment(report->delta_rules);
  delta_atoms_total_->Increment(report->delta_atoms);

  // The KB keeps its patched program cached: that is what "incremental" means.
  const std::shared_ptr<const GroundProgram> patched = kb_.shared_ground();
  const size_t promoted = cache_.Promote(
      old_revision, report->revision, report->affected_views,
      patched->NumAtoms());
  if (promoted > 0) {
    incremental_reuse_family_->WithLabels("cache_promoted")
        .Increment(promoted);
  }

  // Harvest warm-start seeds for the affected views from the outgoing
  // revision's completed least models: the old model restricted to
  // predicates outside the cone is a subset of the new least model, so
  // the fixpoint may resume from it (LeastModelEvaluator::ComputeFrom).
  std::unordered_map<ComponentId, Interpretation> seeds;
  for (ComponentId view = 0; view < report->affected_views.size(); ++view) {
    if (!report->affected_views.Test(view)) continue;
    const std::shared_ptr<const ModelEntry> old_entry = cache_.Peek(
        ModelCacheKey{old_revision, view, CacheKind::kLeastModel});
    if (old_entry == nullptr) continue;
    seeds.emplace(view, RestrictOutsideCone(old_entry->least_model, *patched,
                                            report->cone));
  }
  {
    std::lock_guard<std::mutex> warm_lock(warm_mutex_);
    // Seeds from an older revision that were never consumed are no longer
    // known-subsets of the current least models; drop them wholesale.
    warm_seeds_ = std::move(seeds);
    warm_revision_ = report->revision;
  }
  cache_.EvictStale(report->revision);
  return report;
}

Status QueryEngine::AddRuleText(std::string_view module,
                                std::string_view rule_text) {
  return Mutate([module, rule_text](KnowledgeBase& kb) {
    return kb.AddRuleText(module, rule_text);
  });
}

Status QueryEngine::AddModule(std::string_view name) {
  return Mutate([name](KnowledgeBase& kb) { return kb.AddModule(name); });
}

Status QueryEngine::AddIsa(std::string_view child, std::string_view parent) {
  return Mutate(
      [child, parent](KnowledgeBase& kb) { return kb.AddIsa(child, parent); });
}

uint64_t QueryEngine::revision() const {
  std::shared_lock<std::shared_mutex> kb_lock(kb_mutex_);
  return kb_.revision();
}

MetricsSnapshot QueryEngine::Metrics() const {
  MetricsSnapshot snapshot;
  snapshot.queries_served = queries_served_->Value();
  snapshot.queries_failed = queries_failed_->Value();
  snapshot.cancellations = queries_cancelled_->Value();
  snapshot.deadline_exceeded = queries_deadline_exceeded_->Value();
  const ModelCache::Stats cache_stats = cache_.stats();
  snapshot.cache_hits = cache_stats.hits;
  snapshot.cache_misses = cache_stats.misses;
  snapshot.cache_coalesced = cache_stats.coalesced;
  snapshot.mutations = mutations_->Value();
  snapshot.snapshots_built = snapshots_built_->Value();
  snapshot.solver_nodes = solver_nodes_->Value();
  snapshot.latency_count = latency_->TotalCount();
  snapshot.latency_p50_us = latency_->PercentileUpperBound(50.0);
  snapshot.latency_p99_us = latency_->PercentileUpperBound(99.0);
  for (size_t i = 0; i < snapshot.phase_us.size(); ++i) {
    snapshot.phase_us[i] = phase_us_[i]->Value();
  }
  return snapshot;
}

double MetricsSnapshot::cache_hit_rate() const {
  const uint64_t lookups = cache_hits + cache_misses;
  if (lookups == 0) return 0.0;
  return static_cast<double>(cache_hits) / static_cast<double>(lookups);
}

double MetricsSnapshot::failure_rate() const {
  const uint64_t finished = queries_served + queries_failed;
  if (finished == 0) return 0.0;
  return static_cast<double>(queries_failed) /
         static_cast<double>(finished);
}

std::string MetricsSnapshot::ToString() const {
  const auto rate = [](double value) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(2) << value;
    return os.str();
  };
  return StrCat("queries_served=", queries_served,
                " queries_failed=", queries_failed,
                " cancellations=", cancellations,
                " deadline_exceeded=", deadline_exceeded,
                " cache_hits=", cache_hits, " cache_misses=", cache_misses,
                " cache_coalesced=", cache_coalesced,
                " mutations=", mutations,
                " snapshots_built=", snapshots_built,
                " solver_nodes=", solver_nodes,
                " hit_rate=", rate(cache_hit_rate()),
                " failure_rate=", rate(failure_rate()),
                " latency{count=", latency_count, " p50_us<=", latency_p50_us,
                " p99_us<=", latency_p99_us, "}",
                " phase_us{snapshot=", phase_us[0],
                " resolve=", phase_us[1], " solve=", phase_us[2],
                " explain=", phase_us[3], "}");
}

StatusOr<std::shared_ptr<const QueryEngine::Snapshot>>
QueryEngine::AcquireSnapshot(const CancelToken& cancel, SpanContext* span,
                             QueryWork* work) {
  {
    std::shared_lock<std::shared_mutex> kb_lock(kb_mutex_);
    if (snapshot_ != nullptr && snapshot_->revision == kb_.revision()) {
      return snapshot_;
    }
  }
  // Refresh: reground under the writer lock (grounding mutates the KB's
  // lazy state) and publish a snapshot sharing the KB's program.
  ORDLOG_RETURN_IF_ERROR(cancel.Check());
  std::unique_lock<std::shared_mutex> kb_lock(kb_mutex_);
  if (snapshot_ != nullptr && snapshot_->revision == kb_.revision()) {
    return snapshot_;
  }
  snapshot_.reset();  // a reground never holds the old program beside it
  ScopedSpan ground_span =
      span != nullptr ? span->StartSpan("ground") : ScopedSpan();
  GroundStats ground_stats;
  ORDLOG_RETURN_IF_ERROR(kb_.ground(&cancel, &ground_stats).status());
  snapshot_ = std::make_shared<const Snapshot>(
      Snapshot{kb_.revision(), kb_.shared_ground()});
  ground_rules_family_->WithLabels("emitted")
      .Increment(ground_stats.rules_emitted);
  ground_rules_family_->WithLabels("matched")
      .Increment(ground_stats.candidates);
  if (ground_stats.possible_tuples != 0) {
    ground_rules_family_->WithLabels("possible")
        .Increment(ground_stats.possible_tuples);
  }
  ground_index_probes_->Increment(ground_stats.index_probes);
  if (ground_span.active()) {
    ground_span.AddAttribute("ground_rules", ground_stats.rules_emitted);
    ground_span.AddAttribute("candidates", ground_stats.candidates);
    ground_span.AddAttribute("index_probes", ground_stats.index_probes);
  }
  if (work != nullptr) {
    work->ground_rules += ground_stats.rules_emitted;
    work->index_probes += ground_stats.index_probes;
  }
  snapshots_built_->Increment();
  cache_.EvictStale(snapshot_->revision);
  return snapshot_;
}

StatusOr<ComponentId> QueryEngine::ResolveModule(const Snapshot& snapshot,
                                                 std::string_view module) {
  // Resolved against the snapshot itself (not the live KB), so a module
  // added by a concurrent mutation is invisible until the next refresh —
  // consistent with the answer's revision stamp.
  for (ComponentId c = 0;
       c < static_cast<ComponentId>(snapshot.ground->NumComponents()); ++c) {
    if (snapshot.ground->component_name(c) == module) return c;
  }
  return NotFoundError(StrCat("unknown module '", module, "'"));
}

StatusOr<ModelCache::Lookup> QueryEngine::LeastModelFor(
    const std::shared_ptr<const Snapshot>& snapshot, ComponentId view,
    const CancelToken& cancel, TraceSink* trace, SpanContext* span,
    QueryWork* work) {
  const ModelCacheKey key{snapshot->revision, view, CacheKind::kLeastModel};
  return cache_.GetOrCompute(
      key,
      [&]() -> StatusOr<ModelEntry> {
        // Only the computing owner reaches this lambda, so the span and
        // work attribution land on the query that paid for the fixpoint.
        ScopedSpan eval_span =
            span != nullptr ? span->StartSpan("eval") : ScopedSpan();
        LeastModelEvaluator evaluator(*snapshot->ground, view);
        evaluator.set_trace(trace);
        // Warm start: a seed parked by ApplyMutation for this revision
        // resumes the fixpoint from the unaffected part of the previous
        // model. A rejected seed (kInvalidArgument) falls back to a cold
        // start; cancellation and deadline errors propagate as usual.
        std::optional<Interpretation> seed;
        {
          std::lock_guard<std::mutex> warm_lock(warm_mutex_);
          if (warm_revision_ == snapshot->revision) {
            auto it = warm_seeds_.find(view);
            if (it != warm_seeds_.end()) {
              seed = std::move(it->second);
              warm_seeds_.erase(it);
            }
          }
        }
        std::optional<Interpretation> warm_model;
        if (seed.has_value()) {
          StatusOr<Interpretation> warm =
              evaluator.ComputeFrom(*seed, &cancel);
          if (warm.ok()) {
            warm_model = std::move(warm).value();
            incremental_reuse_family_->WithLabels("warm_start").Increment();
          } else if (warm.status().code() != StatusCode::kInvalidArgument) {
            return warm.status();
          }
        }
        Interpretation model{0};
        if (warm_model.has_value()) {
          model = std::move(*warm_model);
        } else {
          ORDLOG_ASSIGN_OR_RETURN(model, evaluator.Compute(cancel));
        }
        const EvalStats eval_stats = evaluator.last_stats();
        eval_rounds_total_->Increment(eval_stats.rounds);
        eval_delta_tuples_total_->Increment(eval_stats.delta_tuples);
        if (eval_span.active()) {
          eval_span.AddAttribute("rounds", eval_stats.rounds);
          eval_span.AddAttribute("delta_tuples", eval_stats.delta_tuples);
          if (warm_model.has_value()) eval_span.AddAttribute("warm_start", 1);
        }
        if (work != nullptr) {
          work->eval_rounds += eval_stats.rounds;
          work->delta_tuples += eval_stats.delta_tuples;
        }
        // Post-fixpoint provenance sweep: the Definition 2 status of every
        // view rule under the least model, tallied into the per-component
        // metrics and (when tracing) emitted as kRuleStatus events. Runs
        // once per (revision, view) — cache hits skip it — off the hot
        // path of the fixpoint itself.
        const RuleStatusCounts counts =
            CountRuleStatuses(*snapshot->ground, view, model);
        for (size_t s = 0; s < counts.by_status.size(); ++s) {
          if (counts.by_status[s] == 0) continue;
          rule_status_family_
              ->WithLabels(snapshot->ground->component_name(view),
                           RuleStatusCodeName(static_cast<RuleStatusCode>(s)))
              .Increment(counts.by_status[s]);
        }
        EmitRuleStatuses(*snapshot->ground, view, model, trace);
        ModelEntry entry;
        entry.least_model = std::move(model);
        return entry;
      },
      cancel);
}

StatusOr<ModelCache::Lookup> QueryEngine::StableModelsFor(
    const std::shared_ptr<const Snapshot>& snapshot, ComponentId view,
    const CancelToken& cancel, TraceSink* trace, SpanContext* span,
    QueryWork* work) {
  const ModelCacheKey key{snapshot->revision, view,
                          CacheKind::kStableModels};
  return cache_.GetOrCompute(
      key,
      [&]() -> StatusOr<ModelEntry> {
        // Shared prefix: the view's least model V∞(∅) comes through the
        // generation-keyed cache (single-flighted by LeastModelFor), so N
        // concurrent stable queries on one revision pay for the grounding
        // and fixpoint once and fan out only their search tails. The
        // nested wait is cycle-free — a least-model computation never
        // looks up a stable-models entry.
        ORDLOG_ASSIGN_OR_RETURN(
            const ModelCache::Lookup prefix,
            LeastModelFor(snapshot, view, cancel, trace, span, work));
        batch_prefix_family_->WithLabels(prefix.hit ? "shared" : "computed")
            .Increment();
        ScopedSpan search_span =
            span != nullptr ? span->StartSpan("search") : ScopedSpan();
        StableSolverOptions solver_options = options_.solver;
        solver_options.cancel = &cancel;
        solver_options.trace = trace;
        // Idle pool workers steal subtree tasks of this search — unless a
        // caller-level sink wants the deterministic sequential event
        // stream (the per-query slow-log tee alone is diagnostic and does
        // not forfeit parallelism).
        solver_options.executor =
            options_.trace == nullptr ? pool_.get() : nullptr;
        StableModelSolver solver(*snapshot->ground, view,
                                 prefix.entry->least_model, solver_options);
        StableSolverStats stats;
        StatusOr<std::vector<Interpretation>> models =
            solver.StableModels(&stats);
        solver_nodes_->Increment(stats.nodes);
        if (stats.subtrees > 0) {
          solver_parallel_subtrees_->Increment(stats.subtrees);
          solver_parallel_steals_->Increment(stats.steals);
          solver_parallel_cancelled_->Increment(stats.cancelled_subtrees);
        }
        const std::array<std::pair<const char*, size_t>, 4> search_events{{
            {"branch", stats.branches},
            {"prune", stats.prunes},
            {"leaf", stats.leaves},
            {"backtrack", stats.backtracks},
        }};
        for (const auto& [event_name, count] : search_events) {
          if (count == 0) continue;
          solver_search_family_
              ->WithLabels(snapshot->ground->component_name(view), event_name)
              .Increment(count);
        }
        if (search_span.active()) {
          search_span.AddAttribute("nodes", stats.nodes);
          search_span.AddAttribute("branches", stats.branches);
          search_span.AddAttribute("prunes", stats.prunes);
          search_span.AddAttribute("leaves", stats.leaves);
          search_span.AddAttribute("dominated", stats.dominated);
          search_span.AddAttribute("backtracks", stats.backtracks);
          search_span.AddAttribute("prefix_shared", prefix.hit ? 1 : 0);
          if (stats.subtrees > 0) {
            search_span.AddAttribute("subtrees", stats.subtrees);
            search_span.AddAttribute("steals", stats.steals);
            search_span.AddAttribute("cancelled_subtrees",
                                     stats.cancelled_subtrees);
          }
        }
        if (work != nullptr) work->solver_nodes += stats.nodes;
        if (!models.ok()) return models.status();
        ModelEntry entry;
        entry.stable_models = std::move(models).value();
        entry.solver_nodes = stats.nodes;
        return entry;
      },
      cancel);
}

StatusOr<QueryAnswer> QueryEngine::Run(const QueryRequest& request) {
  // Span routing: an embedder-owned context (the KB server's request
  // trace) wins and keeps its owner's commit decision. Otherwise the
  // engine's own tracer may start a trace — recording unsampled queries
  // too while the slow log is armed, so a query that turns out slow still
  // commits a complete trace (always-sample-on-slow).
  RootSpan root(request.span == nullptr ? &tracer_ : nullptr,
                slow_log_ != nullptr);
  SpanContext* span = request.span != nullptr ? request.span : root.context();

  const CancelToken::Clock::time_point start = CancelToken::Clock::now();
  CancelToken cancel = request.cancel;
  if (request.deadline.has_value()) {
    cancel.LimitDeadline(start + *request.deadline);
  } else if (options_.default_deadline.count() > 0) {
    cancel.LimitDeadline(start + options_.default_deadline);
  }

  // Per-query trace routing: when the slow-query log is on, tee the
  // caller's sink (possibly null) with a ring buffer capturing this
  // query's own events for its SlowQueryRecord.
  std::optional<RingBufferSink> capture;
  std::optional<TeeSink> tee;
  TraceSink* trace = options_.trace;
  if (slow_log_ != nullptr) {
    capture.emplace(kSlowQueryTraceEvents);
    tee.emplace(options_.trace, &*capture);
    trace = &*tee;
  }

  ScopedSpan query_span =
      span != nullptr ? span->StartSpan("query", start) : ScopedSpan();
  PhaseClock phases(span, phase_us_, start);
  uint64_t observed_revision = 0;  // snapshot revision, once acquired

  StatusOr<QueryAnswer> result = [&]() -> StatusOr<QueryAnswer> {
    if (request.explain && request.mode != QueryMode::kSkeptical) {
      return InvalidArgumentError(
          "explain is only supported for skeptical queries");
    }
    // Fail fast if the deadline lapsed while the task sat in the queue.
    ORDLOG_RETURN_IF_ERROR(cancel.Check());
    QueryAnswer answer;
    answer.trace_id = span != nullptr ? span->trace_id() : 0;
    phases.Enter(QueryPhaseCode::kSnapshot);
    ORDLOG_ASSIGN_OR_RETURN(std::shared_ptr<const Snapshot> snapshot,
                            AcquireSnapshot(cancel, span, &answer.work));
    phases.Enter(QueryPhaseCode::kResolve);
    ORDLOG_ASSIGN_OR_RETURN(const ComponentId view,
                            ResolveModule(*snapshot, request.module));
    std::optional<GroundLiteral> literal;
    if (request.mode != QueryMode::kCountModels) {
      // Parsing interns into the KB's shared TermPool: exclude mutations
      // via the reader lock and serialize sibling queries via parse_mutex_.
      std::shared_lock<std::shared_mutex> kb_lock(kb_mutex_);
      std::lock_guard<std::mutex> parse_lock(parse_mutex_);
      ORDLOG_ASSIGN_OR_RETURN(
          literal, ResolveGroundLiteral(*kb_.shared_pool(), *snapshot->ground,
                                        request.literal));
    }
    phases.Enter(QueryPhaseCode::kSolve);

    answer.mode = request.mode;
    answer.revision = snapshot->revision;
    observed_revision = snapshot->revision;
    // Kept alive past the switch for the explain phase (the derivation
    // walks the same least model the answer was read from).
    ModelCache::Lookup skeptical_lookup;
    switch (request.mode) {
      case QueryMode::kSkeptical: {
        ORDLOG_ASSIGN_OR_RETURN(
            skeptical_lookup,
            LeastModelFor(snapshot, view, cancel, trace, span,
                          &answer.work));
        const ModelCache::Lookup& lookup = skeptical_lookup;
        answer.cache_hit = lookup.hit;
        answer.truth = literal.has_value()
                           ? lookup.entry->least_model.Value(*literal)
                           : TruthValue::kUndefined;
        break;
      }
      case QueryMode::kBrave:
      case QueryMode::kCautious:
      case QueryMode::kCountModels: {
        ORDLOG_ASSIGN_OR_RETURN(
            const ModelCache::Lookup lookup,
            StableModelsFor(snapshot, view, cancel, trace, span,
                            &answer.work));
        answer.cache_hit = lookup.hit;
        const std::vector<Interpretation>& models =
            lookup.entry->stable_models;
        answer.model_count = models.size();
        if (request.mode == QueryMode::kBrave) {
          answer.holds = HoldsBravely(models, literal);
        } else if (request.mode == QueryMode::kCautious) {
          answer.holds = HoldsCautiously(models, literal);
        }
        break;
      }
    }

    if (request.explain) {
      phases.Enter(QueryPhaseCode::kExplain);
      if (!literal.has_value()) {
        answer.explanation =
            UnknownLiteralJson(request.module, request.literal);
      } else {
        // Rendering rule/atom names reads the KB's shared TermPool (the
        // snapshot's ground program borrows it), so like literal parsing
        // this must exclude concurrent mutations via the reader lock.
        std::shared_lock<std::shared_mutex> kb_lock(kb_mutex_);
        DerivationBuilder builder(*snapshot->ground, view,
                                  skeptical_lookup.entry->least_model);
        answer.explanation = builder.ToJson(*literal);
      }
    }
    return answer;
  }();

  // The query's last boundary: closes the open phase (also on an early
  // error return) and ends the query.
  const uint64_t latency_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(phases.Close() -
                                                            start)
          .count());
  const std::chrono::microseconds latency(latency_us);
  const bool is_slow =
      slow_log_ != nullptr && latency >= *options_.slow_query_threshold;
  if (span != nullptr && is_slow) span->MarkSlow();
  query_span.End(latency_us);
  // Exemplars must resolve in /tracez, so only trace ids that will be
  // committed (head-sampled, or slow — ShouldCommit is monotone once the
  // query finished) are stamped onto the latency histogram.
  const uint64_t exemplar =
      span != nullptr && span->ShouldCommit() ? span->trace_id() : 0;
  if (result.ok()) {
    result->latency = latency;
    queries_served_->Increment();
    latency_->Record(latency_us, exemplar);
  } else {
    queries_failed_->Increment();
    const StatusCode code = result.status().code();
    if (code == StatusCode::kCancelled) queries_cancelled_->Increment();
    if (code == StatusCode::kDeadlineExceeded) {
      queries_deadline_exceeded_->Increment();
    }
  }

  if (is_slow) {
    SlowQueryRecord record;
    record.tenant = options_.tenant_label;
    record.trace_id = span != nullptr ? span->trace_id() : 0;
    record.module = request.module;
    record.literal = request.literal;
    record.mode = QueryModeName(request.mode);
    record.ok = result.ok();
    record.status = result.ok() ? "ok" : result.status().ToString();
    record.cache_hit = result.ok() && result->cache_hit;
    record.revision = observed_revision;
    record.latency_us = latency_us;
    record.phase_us = phases.us();
    record.events = capture->Events();
    record.events_emitted = capture->total_emitted();
    slow_log_->Add(std::move(record));
    slow_queries_->Increment();
  }

  // Commit the engine-owned trace; an embedder-owned context is committed
  // by its owner (the KB server), which sees the MarkSlow above.
  if (root.ShouldCommit()) {
    root.Commit(options_.tenant_label, "query",
                StrCat(request.module, " ", QueryModeName(request.mode), " ",
                       request.literal));
  }
  return result;
}

}  // namespace ordlog

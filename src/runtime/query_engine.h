#ifndef ORDLOG_RUNTIME_QUERY_ENGINE_H_
#define ORDLOG_RUNTIME_QUERY_ENGINE_H_

#include <array>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "base/cancel.h"
#include "base/status.h"
#include "core/stable_solver.h"
#include "kb/knowledge_base.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "obs/span.h"
#include "obs/statsz_server.h"
#include "runtime/model_cache.h"
#include "runtime/thread_pool.h"

namespace ordlog {

// How a query consults the paper's semantics. Skeptical truth is read off
// the least model V∞ (Thm. 1b) — the cheap deterministic fast path; the
// other modes range over the stable models (Def. 9) — the expensive
// enumerative slow path. Both paths share the generation-keyed cache.
enum class QueryMode : uint8_t {
  kSkeptical,    // TruthValue in the least model
  kBrave,        // holds in >= 1 stable model
  kCautious,     // holds in every stable model
  kCountModels,  // number of stable models (literal ignored)
};

// Canonical lowercase name of a query mode ("skeptical", "brave", ...).
const char* QueryModeName(QueryMode mode);

// Construction-time configuration for QueryEngine.
struct QueryEngineOptions {
  // Worker threads; 0 means hardware_concurrency (at least 1).
  size_t num_threads = 0;
  // Applied to every query that does not set its own tighter deadline;
  // zero disables the default.
  std::chrono::milliseconds default_deadline{0};
  // Budgets for the stable-model slow path (the engine installs its own
  // CancelToken into `solver.cancel` per query). Intra-query parallel
  // search: the engine points `solver.executor` at its own worker pool —
  // idle workers then steal subtree tasks of one query's stable-model
  // search (docs/RUNTIME.md, "Parallel stable-model search") — except
  // when `trace` below is set, where the search stays sequential so the
  // caller's event stream is deterministic. `solver.search_threads` and
  // `solver.parallel_min_branch` are honored; set search_threads = 1 to
  // force sequential search throughout.
  StableSolverOptions solver;
  // Least-model engine selection (docs/EVALUATION.md): semi-naive
  // set-at-a-time rounds (the default) or the event-driven worklist.
  // Both produce the identical model; the worklist is kept as the
  // differential oracle and ablation baseline.
  EvalOptions eval;
  ModelCacheOptions cache;
  // Structured trace sink (not owned; null = tracing off, the default).
  // When set, the engine threads the sink into the least-model /
  // stable-model computations (fixpoint rounds, solver search, rule
  // statuses). Query phases are timed by spans and metrics, not trace
  // events (docs/TRACING.md). The sink must be
  // thread-safe: concurrent queries interleave their events. To also see
  // grounding events, construct the KnowledgeBase with GrounderOptions
  // carrying the same sink.
  TraceSink* trace = nullptr;
  // Loopback port for the embedded statsz endpoint (/metricsz, /statsz,
  // /healthz, /readyz, /slowz): -1 (default) disables the server, 0 binds
  // an ephemeral port (read back via QueryEngine::statsz_port()), any
  // other value binds that port. See docs/OBSERVABILITY.md.
  int statsz_port = -1;
  // When set, every finished query whose wall time is >= the threshold is
  // recorded in the slow-query log (0 records every query — useful for
  // demos and tests); nullopt (default) disables the log entirely.
  std::optional<std::chrono::microseconds> slow_query_threshold;
  // Slow-query records retained (ring buffer; oldest overwritten).
  size_t slow_query_capacity = 64;
  // Trace events captured per query for slow-query records (ring buffer).
  size_t slow_query_trace_events = 256;
  // Multi-tenant embedders (src/server/) set the owning tenant's name
  // here; it is stamped onto every SlowQueryRecord this engine emits.
  // Empty (the default) leaves single-tenant output unchanged.
  std::string tenant_label;
  // Request spans (docs/TRACING.md): when enabled, the engine samples
  // per-query hierarchical span traces into a bounded TraceStore served
  // at /tracez, commits every slow query's trace regardless of sampling,
  // and stamps committed trace ids as latency-histogram exemplars.
  // Embedders that pass their own SpanContext via QueryRequest::span
  // (src/server/) get engine spans recorded into it instead, and own the
  // commit; this knob then only matters for standalone engines.
  SpanOptions spans;
};

// One query: which module to ask, what to ask it, and how.
struct QueryRequest {
  std::string module;
  std::string literal;  // ground literal text, e.g. "-fly(penguin)"
  QueryMode mode = QueryMode::kSkeptical;
  // Per-query deadline measured from Submit/Execute entry; overrides the
  // engine default when tighter. A non-positive value is an
  // already-expired deadline (useful in tests and load shedding).
  std::optional<std::chrono::milliseconds> deadline;
  // For kSkeptical queries: also build the literal's derivation graph
  // ("why p / why not p / why undefined") and return it serialized as
  // JSON in QueryAnswer::explanation. Rejected for the other modes.
  bool explain = false;
  // Callers may keep a copy and Cancel() it to abandon the query.
  CancelToken cancel;
  // An embedder-owned span context (e.g. the KB server's per-request
  // trace) the engine records its query/phase/work spans into; the owner
  // keeps the commit decision. Null (the default) lets the engine sample
  // its own trace when QueryEngineOptions::spans is enabled. Must only be
  // touched by the thread running this query (SpanContext's contract), so
  // pair it with Execute, not Submit.
  SpanContext* span = nullptr;
};

// Work performed computing one answer, for per-tenant cost attribution.
// Only the query that actually computes bills work: cache hits and
// coalesced waits report zeros, so summing QueryWork across queries never
// double-counts a shared computation.
struct QueryWork {
  // Ground rules emitted by a snapshot reground this query triggered.
  uint64_t ground_rules = 0;
  // Grounder index probes of that reground.
  uint64_t index_probes = 0;
  // Semi-naive rounds to fixpoint (zero under the worklist strategy).
  uint64_t eval_rounds = 0;
  // Delta tuples committed by the least-model computation.
  uint64_t delta_tuples = 0;
  // Stable-search tree nodes expanded.
  uint64_t solver_nodes = 0;
};

// The result of a finished query; which fields are meaningful depends
// on the request's QueryMode.
struct QueryAnswer {
  QueryMode mode = QueryMode::kSkeptical;
  TruthValue truth = TruthValue::kUndefined;  // kSkeptical
  bool holds = false;                         // kBrave / kCautious
  size_t model_count = 0;                     // kCountModels
  uint64_t revision = 0;      // KB revision the answer is valid at
  bool cache_hit = false;     // models came out of the cache
  // Derivation graph JSON (only when QueryRequest::explain was set; see
  // DerivationBuilder::ToJson for the schema).
  std::string explanation;
  std::chrono::microseconds latency{0};
  // Id of the span trace this query recorded into (0 when spans are off);
  // committed traces are fetchable from /tracez by this id.
  uint64_t trace_id = 0;
  // Work computed by this query (zeros on cache hits; see QueryWork).
  QueryWork work;
};

// Point-in-time copy of a QueryEngine's counters, read from the engine's
// registry instruments and ModelCache::stats(). Latency percentiles are
// approximate (log2-bucketed; the reported value is the upper bound of
// the bucket containing the percentile).
struct MetricsSnapshot {
  uint64_t queries_served = 0;    // finished OK
  uint64_t queries_failed = 0;    // finished with any non-OK status
  uint64_t cancellations = 0;     // of those, kCancelled
  uint64_t deadline_exceeded = 0; // of those, kDeadlineExceeded
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_coalesced = 0;
  uint64_t mutations = 0;
  uint64_t snapshots_built = 0;   // KB reground+copy events
  uint64_t solver_nodes = 0;      // cumulative stable-search nodes
  uint64_t latency_count = 0;
  uint64_t latency_p50_us = 0;
  uint64_t latency_p99_us = 0;
  // Cumulative wall time per query phase (QueryPhaseCode order:
  // snapshot, resolve, solve, explain), in microseconds.
  std::array<uint64_t, kNumQueryPhases> phase_us{};

  // Fraction of cache lookups served from a completed entry:
  // hits / (hits + misses), counting coalesced waits as neither; 0.0 when
  // no lookups happened yet.
  double cache_hit_rate() const;

  // Fraction of finished queries that failed:
  // failed / (served + failed); 0.0 before the first query finishes.
  double failure_rate() const;

  // One-line dashboard form, e.g.
  // "served=5 failed=0 ... hit_rate=0.80 failure_rate=0.00".
  std::string ToString() const;
};

// A concurrent serving front-end for KnowledgeBase: the paper's semantics
// core stays single-threaded and allocation-free of synchronization, and
// this layer adds
//
//   * a fixed thread pool executing queries concurrently (Submit),
//   * per-query deadlines and cooperative cancellation, threaded into the
//     solver / least-model hot loops via CancelToken,
//   * an immutable per-revision ground-program snapshot, so queries never
//     race the KB's lazy grounding, and
//   * a generation-keyed ModelCache with single-flight coalescing.
//
// Concurrency contract: route ALL mutations of the underlying KB through
// Mutate() (or the convenience wrappers); they serialize against in-flight
// snapshot/parse work under a writer lock and bump the KB revision, which
// lazily invalidates cached models. Queries are wait-free with respect to
// each other once they hold the snapshot (the heavy solver work runs
// without any engine lock).
class QueryEngine {
 public:
  // Wraps `kb` (not owned; must outlive the engine) with a worker pool.
  explicit QueryEngine(KnowledgeBase& kb, QueryEngineOptions options = {});
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  // Asynchronous query on the pool. The future always becomes ready: with
  // an answer, or with kDeadlineExceeded / kCancelled / a semantic error.
  // A query whose deadline lapses while still queued fails fast without
  // occupying a worker for the full computation.
  std::future<StatusOr<QueryAnswer>> Submit(QueryRequest request);

  // Synchronous query on the calling thread (same semantics as Submit).
  StatusOr<QueryAnswer> Execute(QueryRequest request);

  // Convenience wrappers for the common modes.
  StatusOr<TruthValue> QuerySkeptical(std::string_view module,
                                      std::string_view literal);
  // True iff `literal` holds in at least one stable model of `module`.
  StatusOr<bool> QueryBrave(std::string_view module,
                            std::string_view literal);
  // True iff `literal` holds in every stable model of `module`.
  StatusOr<bool> QueryCautious(std::string_view module,
                               std::string_view literal);

  // Runs `mutation` against the KB under the writer lock. The KB bumps its
  // revision internally; stale cache entries are swept on the next
  // snapshot refresh.
  Status Mutate(const std::function<Status(KnowledgeBase&)>& mutation);

  // Applies a structured mutation batch (KnowledgeBase::Apply) under the
  // writer lock, then salvages cached work instead of letting the revision
  // bump stampede every next query: on the incremental path, completed
  // cache entries of unaffected views are promoted to the new revision
  // in place, and each affected view's old least model is restricted to
  // predicates outside the mutation's dependency cone and parked as a
  // warm-start seed for that view's next least-model computation. Counted
  // by ordlog_incremental_reuse_total{kind} (docs/OBSERVABILITY.md).
  StatusOr<MutationReport> ApplyMutation(const Mutation& mutation);

  // Common mutations, pre-wrapped.
  Status AddRuleText(std::string_view module, std::string_view rule_text);
  // Adds an (empty) module named `name`.
  Status AddModule(std::string_view name);
  // Adds the isa edge `child` < `parent` to the component order.
  Status AddIsa(std::string_view child, std::string_view parent);

  // Current KnowledgeBase revision (bumped by every mutation).
  uint64_t revision() const;
  // Number of worker threads in the pool.
  size_t num_threads() const { return pool_->num_threads(); }
  // Point-in-time copy of the runtime counters.
  MetricsSnapshot Metrics() const;

  // The metrics registry backing this engine's instruments — what the
  // /metricsz endpoint serves. Callers may register their own families
  // in it (names must satisfy IsValidMetricName).
  MetricsRegistry& Registry() { return registry_; }
  // The slow-query log, or null when slow_query_threshold is unset.
  const SlowQueryLog* slow_query_log() const { return slow_log_.get(); }
  // The engine's span trace store (what /tracez serves), or null when
  // QueryEngineOptions::spans is disabled.
  TraceStore* trace_store() { return tracer_.store(); }
  // The statsz server's bound port; -1 when the server is disabled or
  // failed to start (see statsz_status()).
  int statsz_port() const;
  // OK when the statsz server is disabled or started cleanly; otherwise
  // the bind/listen error (the engine still serves queries).
  Status statsz_status() const { return statsz_status_; }

 private:
  // Immutable view of the KB at one revision. Queries compute against the
  // copied ground program, so a concurrent mutation (which regrounds the
  // KB) can never invalidate memory under a running solver.
  struct Snapshot {
    uint64_t revision = 0;
    GroundProgram ground;
    // The KB's rule families as of this revision, for the fused
    // evaluation strategy (null when the grounder configuration is
    // incompatible; the evaluator then falls back to semi-naive).
    // Shared with the KB — FamilySet is immutable and pool-free, so it
    // is safe under concurrent regrounds.
    std::shared_ptr<const FamilySet> families;
    Snapshot(uint64_t r, GroundProgram g,
             std::shared_ptr<const FamilySet> f)
        : revision(r), ground(std::move(g)), families(std::move(f)) {}
  };

  // `span` / `work` (both may be null) receive a "ground" child span and
  // the grounder's work counters when this call refreshes the snapshot.
  StatusOr<std::shared_ptr<const Snapshot>> AcquireSnapshot(
      const CancelToken& cancel, SpanContext* span, QueryWork* work);
  // Module + literal resolution against the snapshot (serialized: parsing
  // interns into the shared TermPool).
  StatusOr<ComponentId> ResolveModule(const Snapshot& snapshot,
                                      std::string_view module);
  StatusOr<std::optional<GroundLiteral>> ResolveLiteral(
      const Snapshot& snapshot, std::string_view literal);

  StatusOr<QueryAnswer> Run(const QueryRequest& request);
  // `trace` is the per-query sink (the caller's sink, possibly teed into
  // the slow-query capture buffer); may be null. `span` / `work` (both may
  // be null) receive an "eval" / "search" child span and the computation's
  // work counters when this query is the one computing (cache hits and
  // coalesced waits record neither).
  StatusOr<ModelCache::Lookup> LeastModelFor(
      const std::shared_ptr<const Snapshot>& snapshot, ComponentId view,
      const CancelToken& cancel, TraceSink* trace, SpanContext* span,
      QueryWork* work);
  StatusOr<ModelCache::Lookup> StableModelsFor(
      const std::shared_ptr<const Snapshot>& snapshot, ComponentId view,
      const CancelToken& cancel, TraceSink* trace, SpanContext* span,
      QueryWork* work);

  KnowledgeBase& kb_;
  const QueryEngineOptions options_;

  // Lock order (outer to inner): kb_mutex_ -> snapshot_mutex_ /
  // parse_mutex_. The cache, registry, tracer, and slow log have their
  // own internal locking and are never held across engine locks.
  mutable std::shared_mutex kb_mutex_;
  std::mutex snapshot_mutex_;
  std::mutex parse_mutex_;
  std::shared_ptr<const Snapshot> snapshot_;

  // Declared before every instrument pointer below: they live here.
  MetricsRegistry registry_;
  ModelCache cache_;
  // Query outcomes (ordlog_queries_total{status}).
  Counter* queries_served_;
  Counter* queries_failed_;
  Counter* queries_cancelled_;
  Counter* queries_deadline_exceeded_;
  Counter* mutations_;
  Counter* snapshots_built_;
  Counter* solver_nodes_;
  // ordlog_query_phase_us{phase}, indexed by QueryPhaseCode.
  std::array<Counter*, kNumQueryPhases> phase_us_;
  Histogram* latency_;
  // Per-component semantic stats, labeled {component, status} /
  // {component, event}; children are created lazily per component.
  CounterFamily* rule_status_family_;
  CounterFamily* solver_search_family_;
  // Parallel stable-search shape, summed over searches that actually ran
  // in parallel (all stay zero while searches are sequential).
  Counter* solver_parallel_subtrees_;
  Counter* solver_parallel_steals_;
  Counter* solver_parallel_cancelled_;
  // Batched stable queries: how each stable-model computation obtained
  // its least-model prefix (kind=shared reused the cached fixpoint,
  // kind=computed paid for it).
  CounterFamily* batch_prefix_family_;
  // Grounding counters, bumped after each snapshot reground (labeled by
  // kind: emitted / matched / possible).
  CounterFamily* ground_rules_family_;
  Counter* ground_index_probes_;
  // Incremental-mutation reuse events, labeled by kind: delta_ground /
  // cache_promoted / warm_start / full_fallback.
  CounterFamily* incremental_reuse_family_;
  // Semi-naive least-model work: rounds to fixpoint and delta tuples
  // committed, summed over computations (zero under the worklist
  // strategy; see docs/EVALUATION.md).
  Counter* eval_rounds_total_;
  Counter* eval_delta_tuples_total_;
  // Least-model computations the fused join evaluator served.
  Counter* eval_fused_total_;
  // Ground rules / atoms appended by delta patches.
  Counter* delta_rules_total_;
  Counter* delta_atoms_total_;
  Counter* slow_queries_;
  // Root traces of queries no embedder traces (store present iff
  // options_.spans.enabled).
  SpanTracer tracer_;
  // Warm-start seeds parked by ApplyMutation for the revision
  // warm_revision_, consumed by LeastModelFor's compute path. Guarded by
  // warm_mutex_ (never held across a fixpoint computation).
  std::mutex warm_mutex_;
  uint64_t warm_revision_ = 0;
  std::unordered_map<ComponentId, Interpretation> warm_seeds_;
  std::unique_ptr<SlowQueryLog> slow_log_;
  // Second-to-last member: destroyed (drained + joined) before everything
  // above, so tasks never touch destroyed engine state.
  std::unique_ptr<ThreadPool> pool_;
  // Last member: stopped/joined first of all, so the listener thread's
  // render callbacks never read a partially destroyed engine.
  std::unique_ptr<StatszServer> statsz_;
  Status statsz_status_;
};

}  // namespace ordlog

#endif  // ORDLOG_RUNTIME_QUERY_ENGINE_H_

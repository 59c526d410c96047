#ifndef ORDLOG_OBS_SLOW_QUERY_LOG_H_
#define ORDLOG_OBS_SLOW_QUERY_LOG_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "trace/event.h"

namespace ordlog {

// The stages of a QueryEngine query, in execution order. Indexes
// SlowQueryRecord::phase_us and MetricsSnapshot::phase_us.
enum class QueryPhaseCode : uint8_t {
  kSnapshot = 0,  // acquire/refresh the immutable ground snapshot
  kResolve,       // module + literal resolution (parsing)
  kSolve,         // least-model or stable-model computation
  kExplain,       // derivation-graph construction (when requested)
};

// Number of QueryPhaseCode values.
inline constexpr size_t kNumQueryPhases = 4;

// Canonical lowercase name of a query phase ("snapshot", "solve", ...):
// the phase's span name, its ordlog_query_phase_us{phase} label, and its
// key in the slow-query record.
const char* QueryPhaseCodeName(QueryPhaseCode code);

// Everything retained about one outlier query: the request shape, how it
// finished, where the time went, and the query's own trace events (from
// the per-query ring buffer the QueryEngine attaches while the slow-query
// log is enabled). Serialized via ToJson for /slowz and trace_dump --slow.
struct SlowQueryRecord {
  // Monotonically increasing id, assigned by SlowQueryLog::Add.
  uint64_t id = 0;
  // Owning tenant (QueryEngineOptions::tenant_label); empty for
  // single-tenant embedders.
  std::string tenant;
  // QueryRequest::module.
  std::string module;
  // QueryRequest::literal (empty for kCountModels).
  std::string literal;
  // Canonical query-mode name ("skeptical", "brave", ...).
  std::string mode;
  // "ok", or the failure Status rendered as "<code>: <message>".
  std::string status;
  // True when the query finished with an answer.
  bool ok = false;
  // QueryAnswer::cache_hit (false for failed queries).
  bool cache_hit = false;
  // KB revision the query ran against (0 for failures before snapshot).
  uint64_t revision = 0;
  // Span trace id of the query (0 when spans were off); slow queries'
  // traces are always committed, so this id resolves in /tracez.
  uint64_t trace_id = 0;
  // Total wall time in microseconds.
  uint64_t latency_us = 0;
  // Per-phase wall time in microseconds (QueryPhaseCode order:
  // snapshot, resolve, solve, explain).
  std::array<uint64_t, kNumQueryPhases> phase_us{};
  // The query's trace events, oldest first (ring-buffered: the newest
  // `events.size()` of `events_emitted` total).
  std::vector<TraceEvent> events;
  // Number of events the query emitted, including any the ring dropped.
  uint64_t events_emitted = 0;

  // One JSON object (no trailing newline): request/status/timing fields
  // plus the events rendered with TraceEventToJson.
  std::string ToJson() const;
};

// Fixed-capacity ring buffer of the most recent slow-query records.
// Overwrites the oldest record once full; total_recorded() minus size()
// is the number of records lost. Thread-safe via an internal mutex — the
// log is written once per slow query and read by the statsz endpoint, so
// a mutex (not the metrics registry's lock-free discipline) is fine.
class SlowQueryLog {
 public:
  // Retains up to `capacity` records; must be at least 1.
  explicit SlowQueryLog(size_t capacity);

  // Appends `record`, assigning it the next id; overwrites the oldest
  // record once the buffer is full.
  void Add(SlowQueryRecord record);

  // The retained records, oldest first.
  std::vector<SlowQueryRecord> Records() const;

  // Number of records ever added (including overwritten ones).
  uint64_t total_recorded() const;

  // Number of records currently retained (≤ capacity).
  size_t size() const;

  // Maximum number of retained records.
  size_t capacity() const { return capacity_; }

  // The whole log as one JSON object:
  // {"capacity":N,"recorded":N,"queries":[<record>, ...]} (oldest first).
  std::string RenderJson() const;

 private:
  mutable std::mutex mutex_;
  const size_t capacity_;
  std::vector<SlowQueryRecord> buffer_;
  size_t next_ = 0;     // write position
  uint64_t total_ = 0;  // records ever added
};

}  // namespace ordlog

#endif  // ORDLOG_OBS_SLOW_QUERY_LOG_H_

#ifndef ORDLOG_OBS_SPAN_H_
#define ORDLOG_OBS_SPAN_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace ordlog {

// One typed attribute counter attached to a span: a short key (e.g.
// "ground_rules") and an unsigned value. Spans carry counters, not
// strings — request-identifying text lives on the TraceRecord, so the
// per-span payload stays cheap and bounded.
struct SpanAttribute {
  // Attribute name; short snake_case, stable across releases.
  std::string key;
  // Attribute value (a count or a microsecond quantity).
  uint64_t value = 0;
};

// One finished span of a request trace: a named interval with monotonic
// timings (offsets from the trace start, so spans never go backwards even
// if the wall clock does) and attribute counters describing the work done
// inside the interval.
struct Span {
  // Id unique within the trace; assigned in start order from 1.
  uint64_t span_id = 0;
  // The enclosing span's id; 0 for the trace's root span.
  uint64_t parent_id = 0;
  // Span name ("request", "query", "snapshot", "eval", "search", ...).
  std::string name;
  // Start offset from the trace start, microseconds (monotonic clock).
  uint64_t start_us = 0;
  // Wall time from start to end, microseconds.
  uint64_t duration_us = 0;
  // Attribute counters, in insertion order.
  std::vector<SpanAttribute> attributes;
};

// A finished request trace: identifying metadata plus every recorded span
// in start order (a parent always precedes its children). Serialized via
// ToJson for the /tracez endpoint and the JSON-lines span export.
struct TraceRecord {
  // The trace id (nonzero); rendered as 16 hex digits on the wire.
  uint64_t trace_id = 0;
  // Owning tenant; empty for single-tenant embedders.
  std::string tenant;
  // Request kind ("query", "mutate", "explain", "facts").
  std::string endpoint;
  // Free-form request detail, e.g. "c1 take_loan".
  std::string detail;
  // True when the trace was committed because the request was slow
  // (always-sample-on-slow), not by head sampling.
  bool slow = false;
  // End-to-end wall time of the trace, microseconds.
  uint64_t duration_us = 0;
  // Every recorded span, in start order.
  std::vector<Span> spans;

  // One JSON object (no trailing newline): metadata plus the span list,
  // each span with its attributes as a nested object.
  std::string ToJson() const;
};

// Renders `trace_id` as 16 lowercase hex digits (the wire format).
std::string TraceIdToHex(uint64_t trace_id);

// Parses a TraceIdToHex-formatted id (1-16 hex digits, case-insensitive);
// nullopt on malformed input or zero.
std::optional<uint64_t> TraceIdFromHex(std::string_view hex);

// Renders a TraceRecord as an indented ASCII span tree (one span per
// line, children nested under parents, attributes appended as key=value),
// for trace_dump --tree and human debugging.
std::string RenderSpanTree(const TraceRecord& trace);

// Forward declaration: ScopedSpan handles point back into their context.
class SpanContext;

// RAII handle on one open span. Created by SpanContext::StartSpan; the
// destructor (or an explicit End) closes the span, fixing its duration.
// A default-constructed ScopedSpan is inert: every operation is a no-op,
// so unsampled call sites pay one null check.
class ScopedSpan {
 public:
  // An inert span: AddAttribute and End do nothing.
  ScopedSpan() = default;

  // Ends the span if still open.
  ~ScopedSpan() { End(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Transfers ownership of the open span; `other` becomes inert.
  ScopedSpan(ScopedSpan&& other) noexcept
      : context_(other.context_), index_(other.index_) {
    other.context_ = nullptr;
  }

  // Ends the currently held span (if any), then takes over `other`'s.
  ScopedSpan& operator=(ScopedSpan&& other) noexcept {
    if (this != &other) {
      End();
      context_ = other.context_;
      index_ = other.index_;
      other.context_ = nullptr;
    }
    return *this;
  }

  // Attaches (or accumulates into) the attribute counter `key`.
  void AddAttribute(std::string_view key, uint64_t value);

  // Closes the span, fixing duration_us; idempotent.
  void End();

  // Closes the span with a duration the caller measured, kept exactly
  // (even 0), so a number reported elsewhere can match the span to the
  // microsecond; idempotent.
  void End(uint64_t duration_us);

  // True while the span is open (false for inert handles).
  bool active() const { return context_ != nullptr; }

 private:
  friend class SpanContext;
  ScopedSpan(SpanContext* context, size_t index)
      : context_(context), index_(index) {}

  SpanContext* context_ = nullptr;
  size_t index_ = 0;
};

// Per-request span recorder: owns the trace id, the monotonic trace
// clock, and the growing span list. StartSpan nests under the innermost
// still-open span, so straight-line RAII use produces the call tree.
//
// Threading contract: a SpanContext belongs to ONE request and must only
// be touched from the thread currently executing that request (the
// QueryEngine runs a query on a single thread end to end). It is NOT
// internally synchronized — that is what keeps the sampled hot path at
// two clock reads and one vector append per span.
class SpanContext {
 public:
  // The monotonic clock spans are timed with.
  using Clock = std::chrono::steady_clock;

  // A context for trace `trace_id`. `recording` false turns every
  // StartSpan into an inert handle (the context only carries the id);
  // `head_sampled` records the head-sampling decision for the commit
  // policy (commit when head-sampled OR marked slow).
  SpanContext(uint64_t trace_id, bool recording, bool head_sampled);

  SpanContext(const SpanContext&) = delete;
  SpanContext& operator=(const SpanContext&) = delete;

  // Opens a span named `name` under the innermost open span (or as the
  // root). Inert when the context is not recording.
  ScopedSpan StartSpan(std::string_view name);

  // Like StartSpan, but the span starts at `at` (a reading the caller took
  // once and shares with other timers) instead of now.
  ScopedSpan StartSpan(std::string_view name, Clock::time_point at);

  // The trace id (nonzero).
  uint64_t trace_id() const { return trace_id_; }

  // True when spans are being recorded.
  bool recording() const { return recording_; }

  // The head-sampling decision made when the trace started.
  bool head_sampled() const { return head_sampled_; }

  // Marks the request slow (always-sample-on-slow); the trace should be
  // committed even if head sampling passed on it.
  void MarkSlow() { slow_ = true; }

  // True once MarkSlow was called.
  bool slow() const { return slow_; }

  // True when the finished trace should be committed to the store:
  // head-sampled or marked slow.
  bool ShouldCommit() const { return head_sampled_ || slow_; }

  // Microseconds since the context was created (monotonic).
  uint64_t ElapsedUs() const;

  // Sum of attribute `key` over every span recorded so far (per-request
  // cost attribution, e.g. total delta tuples).
  uint64_t AttributeTotal(std::string_view key) const;

  // Number of spans recorded so far (open spans included).
  size_t span_count() const { return spans_.size(); }

  // Closes any spans still open and moves everything into a TraceRecord
  // stamped with the given metadata. The context is spent afterwards.
  TraceRecord Finish(std::string_view tenant, std::string_view endpoint,
                     std::string_view detail);

 private:
  friend class ScopedSpan;

  void AddAttributeAt(size_t index, std::string_view key, uint64_t value);
  // Closes span `index`: with `duration_us` when given, else by the clock
  // (at least 1 µs).
  void EndSpan(size_t index, std::optional<uint64_t> duration_us);

  const uint64_t trace_id_;
  const bool recording_;
  const bool head_sampled_;
  bool slow_ = false;
  const Clock::time_point start_;
  uint64_t next_span_id_ = 0;
  std::vector<Span> spans_;
  std::vector<size_t> open_;  // stack of indexes into spans_
};

// Head-sampling decision source plus trace-id generator. Thread-safe and
// lock-free: both operations are one atomic counter bump mixed through
// SplitMix64, so concurrent requests never contend. Deterministic per
// process (no wall-clock or OS entropy), which keeps tests and benches
// reproducible.
class SpanSampler {
 public:
  // Samples each trace with `probability` (clamped to [0, 1]).
  explicit SpanSampler(double probability);

  // True when the next trace should be head-sampled.
  bool Sample();

  // A fresh nonzero trace id.
  uint64_t NextTraceId();

  // The clamped sampling probability.
  double probability() const { return probability_; }

 private:
  static uint64_t Mix(uint64_t x);

  double probability_;
  bool always_ = false;
  uint64_t threshold_ = 0;
  std::atomic<uint64_t> state_{0x9e3779b97f4a7c15ull};
};

// Receiver of committed traces — the span-level counterpart of TraceSink
// (trace/sink.h): instrumented code holds a nullable pointer and the
// absence of a sink costs one branch. Export must tolerate concurrent
// calls.
class SpanSink {
 public:
  virtual ~SpanSink() = default;

  // Receives one committed trace.
  virtual void Export(const TraceRecord& trace) = 0;
};

// Streams every committed trace as one JSON object per line (the
// TraceRecord::ToJson document), in the JsonLinesSink idiom. Thread-safe
// via an internal mutex; the ostream must outlive the sink.
class JsonLinesSpanSink final : public SpanSink {
 public:
  // Writes to `out`, which is borrowed, not owned.
  explicit JsonLinesSpanSink(std::ostream& out) : out_(out) {}

  // Serializes the trace as one JSON line.
  void Export(const TraceRecord& trace) override;

  // Number of traces written so far.
  uint64_t lines_written() const;

 private:
  mutable std::mutex mutex_;
  std::ostream& out_;
  uint64_t lines_ = 0;
};

// Point-in-time counters of a TraceStore's life so far.
struct TraceStoreStats {
  // Traces committed, including ones the ring has since evicted.
  uint64_t traces = 0;
  // Traces committed by the slow path (TraceRecord::slow).
  uint64_t slow = 0;
  // Spans across every committed trace.
  uint64_t spans = 0;
};

// Bounded in-memory store of the most recent committed traces, the
// backing for the /tracez endpoint. A fixed ring overwrites the oldest
// trace once full, so memory stays bounded no matter the sampling rate.
// Thread-safe via an internal mutex — commits happen once per sampled
// request and reads come from the statsz endpoint.
class TraceStore {
 public:
  // Retains up to `capacity` traces; must be at least 1.
  explicit TraceStore(size_t capacity);

  // Commits `trace`: forwards it to the export sink (when set), then
  // stores it, overwriting the oldest trace once the ring is full.
  void Add(TraceRecord trace);

  // Routes every future Add through `sink` as well (borrowed; null
  // disconnects). Set before traffic starts.
  void SetExportSink(SpanSink* sink);

  // The trace with `trace_id`, or nullopt if never committed / evicted.
  std::optional<TraceRecord> Find(uint64_t trace_id) const;

  // The retained traces, oldest first; `tenant_filter` (when non-empty)
  // keeps only that tenant's traces.
  std::vector<TraceRecord> Records(std::string_view tenant_filter = {}) const;

  // Life-so-far counters.
  TraceStoreStats stats() const;

  // Maximum number of retained traces.
  size_t capacity() const { return capacity_; }

  // The store as one JSON object for /tracez:
  // {"capacity":N,"recorded":N,"traces":[<summary>, ...]} where each
  // summary carries trace_id/tenant/endpoint/detail/slow/duration_us/
  // span count but not the spans themselves (fetch by trace_id for those).
  std::string ListJson(std::string_view tenant_filter = {}) const;

 private:
  mutable std::mutex mutex_;
  const size_t capacity_;
  std::vector<TraceRecord> buffer_;
  size_t next_ = 0;  // write position
  TraceStoreStats stats_;
  SpanSink* export_ = nullptr;
};

// Span-subsystem knobs, embedded in QueryEngineOptions and
// KbServerOptions. Disabled by default: the unsampled hot path then costs
// one branch per request.
struct SpanOptions {
  // Master switch for request spans and the trace store.
  bool enabled = false;
  // Head-sampling probability in [0, 1]. Slow requests (over the
  // slow-query threshold) are committed regardless — always-sample-on-
  // slow rides the SlowQueryLog's own threshold.
  double sample_probability = 0.01;
  // Traces retained by the bounded in-memory store.
  size_t store_capacity = 64;
  // JSON-lines span export for every committed trace (borrowed; null
  // disables export).
  SpanSink* export_sink = nullptr;
};

// The root-trace path every trace owner shares — the KB server per
// request, a standalone QueryEngine per query: head-sample, start the
// trace, commit it with reason `sampled` or `slow`, and count commits in
// ordlog_span_traces_total / ordlog_span_spans_total. Thread-safe: the
// sampler is lock-free and the store locks internally.
class SpanTracer {
 public:
  // Registers the span counters in `registry` (always, so the exposition
  // is the same with spans on or off). The sampler and the store exist
  // only when `options.enabled`.
  SpanTracer(const SpanOptions& options, MetricsRegistry& registry);

  // The trace store backing /tracez; null when spans are disabled.
  TraceStore* store() const { return store_.get(); }

 private:
  friend class RootSpan;

  std::unique_ptr<SpanSampler> sampler_;
  std::unique_ptr<TraceStore> store_;
  CounterFamily* traces_;  // {reason}
  Counter* spans_;
};

// One request's trace, from the head-sampling decision to the commit.
// Lives on the stack of the thread serving the request (SpanContext's
// threading contract).
class RootSpan {
 public:
  // Head-samples through `tracer`; null or a disabled tracer leaves the
  // trace inert. A sampled request records, and so does an unsampled one
  // when `record_unsampled` — always-sample-on-slow needs the whole tree
  // before it knows the request is slow.
  RootSpan(SpanTracer* tracer, bool record_unsampled);

  RootSpan(const RootSpan&) = delete;
  RootSpan& operator=(const RootSpan&) = delete;

  // The recording context, or null when this request records nothing.
  SpanContext* context() { return context_ ? &*context_ : nullptr; }

  // True when Commit will store the trace: it records and was
  // head-sampled or marked slow.
  bool ShouldCommit() const { return context_ && context_->ShouldCommit(); }

  // When ShouldCommit(), closes any open spans and commits the trace,
  // stamped with the given metadata; otherwise does nothing.
  void Commit(std::string_view tenant, std::string_view endpoint,
              std::string_view detail);

 private:
  SpanTracer* tracer_;
  std::optional<SpanContext> context_;
};

}  // namespace ordlog

#endif  // ORDLOG_OBS_SPAN_H_

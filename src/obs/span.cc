#include "obs/span.h"

#include <algorithm>
#include <sstream>

#include "trace/json.h"

namespace ordlog {

namespace {

void AppendSpanJson(std::ostream& out, const Span& span) {
  out << "{\"span_id\":" << span.span_id
      << ",\"parent_id\":" << span.parent_id << ",\"name\":";
  AppendJsonString(out, span.name);
  out << ",\"start_us\":" << span.start_us
      << ",\"duration_us\":" << span.duration_us << ",\"attrs\":{";
  bool first = true;
  for (const SpanAttribute& attr : span.attributes) {
    if (!first) out << ',';
    first = false;
    AppendJsonString(out, attr.key);
    out << ':' << attr.value;
  }
  out << "}}";
}

void AppendTraceHeaderJson(std::ostream& out, const TraceRecord& trace) {
  out << "{\"trace_id\":\"" << TraceIdToHex(trace.trace_id)
      << "\",\"tenant\":";
  AppendJsonString(out, trace.tenant);
  out << ",\"endpoint\":";
  AppendJsonString(out, trace.endpoint);
  out << ",\"detail\":";
  AppendJsonString(out, trace.detail);
  out << ",\"slow\":" << (trace.slow ? "true" : "false")
      << ",\"duration_us\":" << trace.duration_us;
}

}  // namespace

std::string TraceRecord::ToJson() const {
  std::ostringstream out;
  AppendTraceHeaderJson(out, *this);
  out << ",\"spans\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    if (i > 0) out << ',';
    AppendSpanJson(out, spans[i]);
  }
  out << "]}";
  return out.str();
}

std::string TraceIdToHex(uint64_t trace_id) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex(16, '0');
  for (int i = 15; i >= 0; --i) {
    hex[static_cast<size_t>(i)] = kDigits[trace_id & 0xf];
    trace_id >>= 4;
  }
  return hex;
}

std::optional<uint64_t> TraceIdFromHex(std::string_view hex) {
  if (hex.empty() || hex.size() > 16) return std::nullopt;
  uint64_t value = 0;
  for (char c : hex) {
    uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a') + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = static_cast<uint64_t>(c - 'A') + 10;
    } else {
      return std::nullopt;
    }
    value = (value << 4) | digit;
  }
  if (value == 0) return std::nullopt;
  return value;
}

std::string RenderSpanTree(const TraceRecord& trace) {
  std::ostringstream out;
  out << "trace " << TraceIdToHex(trace.trace_id);
  if (!trace.tenant.empty()) out << " tenant=" << trace.tenant;
  if (!trace.endpoint.empty()) out << " endpoint=" << trace.endpoint;
  if (!trace.detail.empty()) out << " [" << trace.detail << "]";
  if (trace.slow) out << " SLOW";
  out << " (" << trace.duration_us << "us, " << trace.spans.size()
      << " spans)\n";

  // Spans are in start order, parents before children, so one pass with a
  // parent->depth map renders the tree.
  std::vector<std::pair<uint64_t, int>> depth_of;  // (span_id, depth)
  depth_of.reserve(trace.spans.size());
  for (const Span& span : trace.spans) {
    int depth = 0;
    for (const auto& [id, d] : depth_of) {
      if (id == span.parent_id) {
        depth = d + 1;
        break;
      }
    }
    depth_of.emplace_back(span.span_id, depth);
    for (int i = 0; i < depth; ++i) out << "  ";
    out << "- " << span.name << " +" << span.start_us << "us "
        << span.duration_us << "us";
    for (const SpanAttribute& attr : span.attributes) {
      out << ' ' << attr.key << '=' << attr.value;
    }
    out << '\n';
  }
  return out.str();
}

void ScopedSpan::AddAttribute(std::string_view key, uint64_t value) {
  if (context_ != nullptr) context_->AddAttributeAt(index_, key, value);
}

void ScopedSpan::End() {
  if (context_ != nullptr) {
    context_->EndSpan(index_, std::nullopt);
    context_ = nullptr;
  }
}

void ScopedSpan::End(uint64_t duration_us) {
  if (context_ != nullptr) {
    context_->EndSpan(index_, duration_us);
    context_ = nullptr;
  }
}

SpanContext::SpanContext(uint64_t trace_id, bool recording, bool head_sampled)
    : trace_id_(trace_id),
      recording_(recording),
      head_sampled_(head_sampled),
      start_(Clock::now()) {}

ScopedSpan SpanContext::StartSpan(std::string_view name) {
  return StartSpan(name, Clock::now());
}

ScopedSpan SpanContext::StartSpan(std::string_view name,
                                  Clock::time_point at) {
  if (!recording_) return ScopedSpan();
  Span span;
  span.span_id = ++next_span_id_;
  span.parent_id = open_.empty() ? 0 : spans_[open_.back()].span_id;
  span.name.assign(name);
  span.start_us =
      at > start_ ? static_cast<uint64_t>(
                        std::chrono::duration_cast<std::chrono::microseconds>(
                            at - start_)
                            .count())
                  : 0;
  size_t index = spans_.size();
  spans_.push_back(std::move(span));
  open_.push_back(index);
  return ScopedSpan(this, index);
}

uint64_t SpanContext::ElapsedUs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            start_)
          .count());
}

uint64_t SpanContext::AttributeTotal(std::string_view key) const {
  uint64_t total = 0;
  for (const Span& span : spans_) {
    for (const SpanAttribute& attr : span.attributes) {
      if (attr.key == key) total += attr.value;
    }
  }
  return total;
}

TraceRecord SpanContext::Finish(std::string_view tenant,
                                std::string_view endpoint,
                                std::string_view detail) {
  while (!open_.empty()) EndSpan(open_.back(), std::nullopt);
  TraceRecord record;
  record.trace_id = trace_id_;
  record.tenant.assign(tenant);
  record.endpoint.assign(endpoint);
  record.detail.assign(detail);
  record.slow = slow_;
  record.duration_us =
      spans_.empty() ? ElapsedUs() : spans_.front().duration_us;
  record.spans = std::move(spans_);
  spans_.clear();
  return record;
}

void SpanContext::AddAttributeAt(size_t index, std::string_view key,
                                 uint64_t value) {
  if (index >= spans_.size()) return;  // handle outlived Finish()
  Span& span = spans_[index];
  for (SpanAttribute& attr : span.attributes) {
    if (attr.key == key) {
      attr.value += value;
      return;
    }
  }
  SpanAttribute attr;
  attr.key.assign(key);
  attr.value = value;
  span.attributes.push_back(std::move(attr));
}

void SpanContext::EndSpan(size_t index,
                          std::optional<uint64_t> duration_us) {
  if (index >= spans_.size()) return;  // handle outlived Finish()
  Span& span = spans_[index];
  if (duration_us.has_value()) {
    span.duration_us = *duration_us;
  } else {
    uint64_t now = ElapsedUs();
    span.duration_us = now > span.start_us ? now - span.start_us : 1;
  }
  // RAII nesting makes this the top of the stack; a moved-from handle
  // ended out of order is tolerated by searching downward.
  for (size_t i = open_.size(); i > 0; --i) {
    if (open_[i - 1] == index) {
      open_.erase(open_.begin() + static_cast<ptrdiff_t>(i - 1));
      break;
    }
  }
}

SpanSampler::SpanSampler(double probability)
    : probability_(std::clamp(probability, 0.0, 1.0)) {
  always_ = probability_ >= 1.0;
  threshold_ = static_cast<uint64_t>(
      probability_ * 18446744073709551615.0);  // p * (2^64 - 1)
}

bool SpanSampler::Sample() {
  if (always_) return true;
  if (threshold_ == 0) return false;
  uint64_t draw = Mix(state_.fetch_add(0x9e3779b97f4a7c15ull,
                                       std::memory_order_relaxed));
  return draw < threshold_;
}

uint64_t SpanSampler::NextTraceId() {
  uint64_t id = Mix(state_.fetch_add(0x9e3779b97f4a7c15ull,
                                     std::memory_order_relaxed) ^
                    0xbf58476d1ce4e5b9ull);
  return id == 0 ? 1 : id;
}

uint64_t SpanSampler::Mix(uint64_t x) {
  // SplitMix64 finalizer: full-avalanche mix of the counter state.
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

void JsonLinesSpanSink::Export(const TraceRecord& trace) {
  std::string line = trace.ToJson();
  std::lock_guard<std::mutex> lock(mutex_);
  out_ << line << '\n';
  ++lines_;
}

uint64_t JsonLinesSpanSink::lines_written() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lines_;
}

TraceStore::TraceStore(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void TraceStore::Add(TraceRecord trace) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (export_ != nullptr) export_->Export(trace);
  stats_.traces += 1;
  if (trace.slow) stats_.slow += 1;
  stats_.spans += trace.spans.size();
  if (buffer_.size() < capacity_) {
    buffer_.push_back(std::move(trace));
  } else {
    buffer_[next_] = std::move(trace);
  }
  next_ = (next_ + 1) % capacity_;
}

void TraceStore::SetExportSink(SpanSink* sink) {
  std::lock_guard<std::mutex> lock(mutex_);
  export_ = sink;
}

std::optional<TraceRecord> TraceStore::Find(uint64_t trace_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const TraceRecord& trace : buffer_) {
    if (trace.trace_id == trace_id) return trace;
  }
  return std::nullopt;
}

std::vector<TraceRecord> TraceStore::Records(
    std::string_view tenant_filter) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TraceRecord> out;
  out.reserve(buffer_.size());
  // Oldest first: the ring's write position is the oldest slot once full.
  size_t start = buffer_.size() < capacity_ ? 0 : next_;
  for (size_t i = 0; i < buffer_.size(); ++i) {
    const TraceRecord& trace = buffer_[(start + i) % buffer_.size()];
    if (!tenant_filter.empty() && trace.tenant != tenant_filter) continue;
    out.push_back(trace);
  }
  return out;
}

TraceStoreStats TraceStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::string TraceStore::ListJson(std::string_view tenant_filter) const {
  std::vector<TraceRecord> records = Records(tenant_filter);
  TraceStoreStats totals = stats();
  std::ostringstream out;
  out << "{\"capacity\":" << capacity_ << ",\"recorded\":" << totals.traces
      << ",\"traces\":[";
  for (size_t i = 0; i < records.size(); ++i) {
    if (i > 0) out << ',';
    AppendTraceHeaderJson(out, records[i]);
    out << ",\"spans\":" << records[i].spans.size() << '}';
  }
  out << "]}";
  return out.str();
}

SpanTracer::SpanTracer(const SpanOptions& options, MetricsRegistry& registry)
    : traces_(&registry.GetCounterFamily(
          "ordlog_span_traces_total",
          "Span traces committed to the trace store, by commit reason: "
          "reason=sampled for head-sampled requests, reason=slow for "
          "always-sample-on-slow commits.",
          {"reason"})),
      spans_(&registry
                  .GetCounterFamily("ordlog_span_spans_total",
                                    "Spans inside committed traces (see "
                                    "ordlog_span_traces_total).")
                  .WithLabels()) {
  if (!options.enabled) return;
  sampler_ = std::make_unique<SpanSampler>(options.sample_probability);
  store_ = std::make_unique<TraceStore>(
      std::max<size_t>(1, options.store_capacity));
  if (options.export_sink != nullptr) {
    store_->SetExportSink(options.export_sink);
  }
}

RootSpan::RootSpan(SpanTracer* tracer, bool record_unsampled)
    : tracer_(tracer) {
  if (tracer_ == nullptr || tracer_->sampler_ == nullptr) return;
  const bool sampled = tracer_->sampler_->Sample();
  if (sampled || record_unsampled) {
    context_.emplace(tracer_->sampler_->NextTraceId(), /*recording=*/true,
                     sampled);
  }
}

void RootSpan::Commit(std::string_view tenant, std::string_view endpoint,
                      std::string_view detail) {
  if (!ShouldCommit()) return;
  tracer_->traces_->WithLabels(context_->head_sampled() ? "sampled" : "slow")
      .Increment();
  TraceRecord record = context_->Finish(tenant, endpoint, detail);
  tracer_->spans_->Increment(record.spans.size());
  tracer_->store_->Add(std::move(record));
}

}  // namespace ordlog

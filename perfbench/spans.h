#ifndef ORDLOG_PERFBENCH_SPANS_H_
#define ORDLOG_PERFBENCH_SPANS_H_

// In-memory spans for the benchmark's traced run. One recorder per client
// thread (no locking); spans are opened and closed around the calls the
// benchmark makes into each layer, grouped into requests that share an
// id. Self time is a span's duration minus the part its children cover,
// minus any time the span's callee reported as spent in lower layers
// (`inner_ns`, e.g. the engine latency a server response carries).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  uint64_t request = 0;
  int id = 0;      // index within its request
  int parent = -1;  // index within its request, -1 for the root
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t inner_ns = 0;
};

// Per-name totals across a run.
struct LayerTime {
  uint64_t calls = 0;
  double self_us = 0;
};

class SpanRecorder {
 public:
  // Keeps at most `keep_requests` requests' spans for the output file;
  // self times are accumulated for every request.
  SpanRecorder(Clock::time_point epoch, size_t keep_requests)
      : epoch_(epoch), keep_requests_(keep_requests) {}

  void BeginRequest(uint64_t id) {
    request_ = id;
    open_.clear();
    current_.clear();
    Open("request");
  }

  void EndRequest() {
    Close();
    Account();
    if (kept_requests_ < keep_requests_) {
      ++kept_requests_;
      kept_.insert(kept_.end(), current_.begin(), current_.end());
    }
  }

  void Open(const char* name) {
    Span span;
    span.request = request_;
    span.id = static_cast<int>(current_.size());
    span.parent = open_.empty() ? -1 : open_.back();
    span.name = name;
    span.start_ns = Now();
    open_.push_back(span.id);
    current_.push_back(std::move(span));
  }

  // Closes the innermost open span; `inner_us` is time its callee reports
  // as spent below it.
  void Close(double inner_us = 0) {
    Span& span = current_[static_cast<size_t>(open_.back())];
    span.end_ns = Now();
    span.inner_ns = static_cast<int64_t>(inner_us * 1000.0);
    open_.pop_back();
  }

  const std::map<std::string, LayerTime>& totals() const { return totals_; }
  const std::vector<Span>& kept() const { return kept_; }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  // Children of one span run one after another on this thread, so the
  // part of the parent they cover is the sum of their durations.
  void Account() {
    std::vector<int64_t> child_ns(current_.size(), 0);
    for (const Span& span : current_) {
      if (span.parent >= 0) {
        child_ns[static_cast<size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
      }
    }
    for (const Span& span : current_) {
      const int64_t self =
          span.end_ns - span.start_ns -
          child_ns[static_cast<size_t>(span.id)] - span.inner_ns;
      LayerTime& total = totals_[span.name];
      ++total.calls;
      total.self_us += static_cast<double>(std::max<int64_t>(0, self)) / 1e3;
    }
  }

  const Clock::time_point epoch_;
  const size_t keep_requests_;
  uint64_t request_ = 0;
  std::vector<int> open_;
  std::vector<Span> current_;
  std::vector<Span> kept_;
  size_t kept_requests_ = 0;
  std::map<std::string, LayerTime> totals_;
};

// RAII span on a recorder that may be null (tracing off).
class ScopedLayer {
 public:
  ScopedLayer(SpanRecorder* recorder, const char* name)
      : recorder_(recorder) {
    if (recorder_ != nullptr) recorder_->Open(name);
  }
  ~ScopedLayer() { End(); }
  ScopedLayer(const ScopedLayer&) = delete;
  ScopedLayer& operator=(const ScopedLayer&) = delete;

  void End(double inner_us = 0) {
    if (recorder_ != nullptr) recorder_->Close(inner_us);
    recorder_ = nullptr;
  }

 private:
  SpanRecorder* recorder_;
};

// Writes spans as JSON lines: {"request":..,"span":..,"parent":..,
// "name":..,"start_ns":..,"end_ns":..,"inner_ns":..}.
inline bool WriteSpans(const std::string& path,
                       const std::vector<const SpanRecorder*>& recorders) {
  std::ofstream out(path);
  for (const SpanRecorder* recorder : recorders) {
    for (const Span& span : recorder->kept()) {
      out << "{\"request\":" << span.request << ",\"span\":" << span.id
          << ",\"parent\":" << span.parent << ",\"name\":\"" << span.name
          << "\",\"start_ns\":" << span.start_ns
          << ",\"end_ns\":" << span.end_ns
          << ",\"inner_ns\":" << span.inner_ns << "}\n";
    }
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench

#endif  // ORDLOG_PERFBENCH_SPANS_H_

#include "obs/slow_query_log.h"

#include <sstream>

#include "base/logging.h"
#include "obs/span.h"
#include "trace/json.h"
#include "trace/sink.h"

namespace ordlog {

const char* QueryPhaseCodeName(QueryPhaseCode code) {
  switch (code) {
    case QueryPhaseCode::kSnapshot: return "snapshot";
    case QueryPhaseCode::kResolve: return "resolve";
    case QueryPhaseCode::kSolve: return "solve";
    case QueryPhaseCode::kExplain: return "explain";
  }
  return "unknown";
}

std::string SlowQueryRecord::ToJson() const {
  std::ostringstream os;
  os << "{\"id\":" << id;
  if (!tenant.empty()) {
    os << ",\"tenant\":";
    AppendJsonString(os, tenant);
  }
  os << ",\"module\":";
  AppendJsonString(os, module);
  os << ",\"literal\":";
  AppendJsonString(os, literal);
  os << ",\"mode\":";
  AppendJsonString(os, mode);
  os << ",\"status\":";
  AppendJsonString(os, status);
  os << ",\"ok\":" << (ok ? "true" : "false");
  os << ",\"cache_hit\":" << (cache_hit ? "true" : "false");
  os << ",\"revision\":" << revision;
  if (trace_id != 0) {
    os << ",\"trace_id\":\"" << TraceIdToHex(trace_id) << '"';
  }
  os << ",\"latency_us\":" << latency_us;
  os << ",\"phase_us\":{";
  for (size_t i = 0; i < phase_us.size(); ++i) {
    if (i > 0) os << ',';
    os << '"' << QueryPhaseCodeName(static_cast<QueryPhaseCode>(i))
       << "\":" << phase_us[i];
  }
  os << "},\"events_emitted\":" << events_emitted;
  os << ",\"events\":[";
  for (size_t i = 0; i < events.size(); ++i) {
    if (i > 0) os << ',';
    os << TraceEventToJson(events[i]);
  }
  os << "]}";
  return os.str();
}

SlowQueryLog::SlowQueryLog(size_t capacity) : capacity_(capacity) {
  ORDLOG_CHECK(capacity_ >= 1) << "SlowQueryLog capacity must be >= 1";
  buffer_.reserve(capacity_);
}

void SlowQueryLog::Add(SlowQueryRecord record) {
  std::lock_guard<std::mutex> lock(mutex_);
  record.id = ++total_;
  if (buffer_.size() < capacity_) {
    buffer_.push_back(std::move(record));
  } else {
    buffer_[next_] = std::move(record);
  }
  next_ = (next_ + 1) % capacity_;
}

std::vector<SlowQueryRecord> SlowQueryLog::Records() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SlowQueryRecord> records;
  records.reserve(buffer_.size());
  const size_t start = buffer_.size() < capacity_ ? 0 : next_;
  for (size_t i = 0; i < buffer_.size(); ++i) {
    records.push_back(buffer_[(start + i) % buffer_.size()]);
  }
  return records;
}

uint64_t SlowQueryLog::total_recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

size_t SlowQueryLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return buffer_.size();
}

std::string SlowQueryLog::RenderJson() const {
  const std::vector<SlowQueryRecord> records = Records();
  std::ostringstream os;
  os << "{\"capacity\":" << capacity_;
  os << ",\"recorded\":" << total_recorded();
  os << ",\"queries\":[";
  for (size_t i = 0; i < records.size(); ++i) {
    if (i > 0) os << ',';
    os << records[i].ToJson();
  }
  os << "]}";
  return os.str();
}

}  // namespace ordlog

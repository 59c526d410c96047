#include "obs/metrics.h"

#include <algorithm>
#include <sstream>

#include "base/logging.h"
#include "obs/span.h"
#include "trace/json.h"

namespace ordlog {

namespace {

// Joins up to two label values into one child-map key. \x1f (ASCII unit
// separator) cannot appear in reasonable label values, so the join is
// unambiguous.
std::string LabelKey(std::string_view value0, std::string_view value1) {
  std::string key;
  key.reserve(value0.size() + value1.size() + 1);
  key.append(value0);
  key.push_back('\x1f');
  key.append(value1);
  return key;
}

// Escapes a Prometheus label value: backslash, double quote, newline.
void AppendEscapedLabelValue(std::ostringstream& os, std::string_view value) {
  for (const char c : value) {
    switch (c) {
      case '\\':
        os << "\\\\";
        break;
      case '"':
        os << "\\\"";
        break;
      case '\n':
        os << "\\n";
        break;
      default:
        os << c;
    }
  }
}

// Renders {label="value",...} from the declared names and a child's
// values; `extra_name`/`extra_value` appends one synthetic label (used for
// histogram le=""). Emits nothing when there are no labels at all.
void AppendLabelSet(std::ostringstream& os,
                    const std::vector<std::string>& names,
                    const std::array<std::string, 2>& values,
                    std::string_view extra_name = {},
                    std::string_view extra_value = {}) {
  if (names.empty() && extra_name.empty()) return;
  os << '{';
  bool first = true;
  for (size_t i = 0; i < names.size(); ++i) {
    if (!first) os << ',';
    first = false;
    os << names[i] << "=\"";
    AppendEscapedLabelValue(os, values[i]);
    os << '"';
  }
  if (!extra_name.empty()) {
    if (!first) os << ',';
    os << extra_name << "=\"" << extra_value << '"';
  }
  os << '}';
}

// Renders a child's label values as a JSON array of strings.
void AppendJsonLabels(std::ostringstream& os, size_t num_labels,
                      const std::array<std::string, 2>& values) {
  os << '[';
  for (size_t i = 0; i < num_labels; ++i) {
    if (i > 0) os << ',';
    AppendJsonString(os, values[i]);
  }
  os << ']';
}

}  // namespace

bool IsValidMetricName(std::string_view name) {
  constexpr std::string_view kPrefix = "ordlog_";
  if (name.size() <= kPrefix.size() || name.substr(0, kPrefix.size()) != kPrefix) {
    return false;
  }
  for (const char c : name.substr(kPrefix.size())) {
    const bool ok =
        (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
    if (!ok) return false;
  }
  return true;
}

uint64_t Histogram::TotalCount() const {
  uint64_t total = 0;
  for (const auto& count : counts_) {
    total += count.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t Histogram::PercentileUpperBound(double percentile) const {
  std::array<uint64_t, kBuckets> counts;
  uint64_t total = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    counts[i] = counts_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0;
  const uint64_t rank = static_cast<uint64_t>(
      percentile / 100.0 * static_cast<double>(total - 1));
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    seen += counts[i];
    if (seen > rank) return BucketUpperBound(i);
  }
  return BucketUpperBound(kBuckets - 1);
}

const char* InstrumentKindName(InstrumentKind kind) {
  switch (kind) {
    case InstrumentKind::kCounter:
      return "counter";
    case InstrumentKind::kGauge:
      return "gauge";
    case InstrumentKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

template <typename Instrument>
Instrument& Family<Instrument>::WithLabels(std::string_view value0,
                                           std::string_view value1) {
  const std::string key = LabelKey(value0, value1);
  Shard& shard = shards_[std::hash<std::string>{}(key) % kShards];
  {
    std::shared_lock<std::shared_mutex> lock(shard.mutex);
    const auto it = shard.children.find(key);
    if (it != shard.children.end()) return it->second->instrument;
  }
  std::unique_lock<std::shared_mutex> lock(shard.mutex);
  auto& slot = shard.children[key];
  if (slot == nullptr) {
    slot = std::make_unique<Entry>();
    slot->labels = {std::string(value0), std::string(value1)};
  }
  return slot->instrument;
}

template <typename Instrument>
std::vector<typename Family<Instrument>::Child>
Family<Instrument>::Children() const {
  std::vector<Child> children;
  for (const Shard& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard.mutex);
    for (const auto& [key, entry] : shard.children) {
      children.push_back(Child{entry->labels, &entry->instrument});
    }
  }
  std::sort(children.begin(), children.end(),
            [](const Child& a, const Child& b) { return a.labels < b.labels; });
  return children;
}

template class Family<Counter>;
template class Family<Gauge>;
template class Family<Histogram>;

CounterFamily& MetricsRegistry::GetCounterFamily(
    std::string_view name, std::string_view help,
    std::vector<std::string> label_names) {
  ORDLOG_CHECK(IsValidMetricName(name)) << "bad metric name: " << name;
  ORDLOG_CHECK(label_names.size() <= 2) << name << " declares > 2 labels";
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    const auto it = families_.find(name);
    if (it != families_.end()) {
      ORDLOG_CHECK(it->second.kind == InstrumentKind::kCounter)
          << name << " already registered with a different kind";
      return *it->second.counter;
    }
  }
  std::unique_lock<std::shared_mutex> lock(mutex_);
  FamilyEntry& entry = families_[std::string(name)];
  if (entry.counter == nullptr) {
    ORDLOG_CHECK(entry.gauge == nullptr && entry.histogram == nullptr)
        << name << " already registered with a different kind";
    entry.kind = InstrumentKind::kCounter;
    entry.counter = std::make_unique<CounterFamily>(
        std::string(name), std::string(help), std::move(label_names));
  }
  return *entry.counter;
}

GaugeFamily& MetricsRegistry::GetGaugeFamily(
    std::string_view name, std::string_view help,
    std::vector<std::string> label_names) {
  ORDLOG_CHECK(IsValidMetricName(name)) << "bad metric name: " << name;
  ORDLOG_CHECK(label_names.size() <= 2) << name << " declares > 2 labels";
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    const auto it = families_.find(name);
    if (it != families_.end()) {
      ORDLOG_CHECK(it->second.kind == InstrumentKind::kGauge)
          << name << " already registered with a different kind";
      return *it->second.gauge;
    }
  }
  std::unique_lock<std::shared_mutex> lock(mutex_);
  FamilyEntry& entry = families_[std::string(name)];
  if (entry.gauge == nullptr) {
    ORDLOG_CHECK(entry.counter == nullptr && entry.histogram == nullptr)
        << name << " already registered with a different kind";
    entry.kind = InstrumentKind::kGauge;
    entry.gauge = std::make_unique<GaugeFamily>(
        std::string(name), std::string(help), std::move(label_names));
  }
  return *entry.gauge;
}

HistogramFamily& MetricsRegistry::GetHistogramFamily(
    std::string_view name, std::string_view help,
    std::vector<std::string> label_names) {
  ORDLOG_CHECK(IsValidMetricName(name)) << "bad metric name: " << name;
  ORDLOG_CHECK(label_names.size() <= 2) << name << " declares > 2 labels";
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    const auto it = families_.find(name);
    if (it != families_.end()) {
      ORDLOG_CHECK(it->second.kind == InstrumentKind::kHistogram)
          << name << " already registered with a different kind";
      return *it->second.histogram;
    }
  }
  std::unique_lock<std::shared_mutex> lock(mutex_);
  FamilyEntry& entry = families_[std::string(name)];
  if (entry.histogram == nullptr) {
    ORDLOG_CHECK(entry.counter == nullptr && entry.gauge == nullptr)
        << name << " already registered with a different kind";
    entry.kind = InstrumentKind::kHistogram;
    entry.histogram = std::make_unique<HistogramFamily>(
        std::string(name), std::string(help), std::move(label_names));
  }
  return *entry.histogram;
}

void MetricsRegistry::AddCollector(std::function<void()> collector) {
  std::lock_guard<std::mutex> lock(collector_mutex_);
  collectors_.push_back(std::move(collector));
}

void MetricsRegistry::RunCollectors() const {
  std::vector<std::function<void()>> collectors;
  {
    std::lock_guard<std::mutex> lock(collector_mutex_);
    collectors = collectors_;
  }
  for (const auto& collector : collectors) collector();
}

std::string MetricsRegistry::RenderPrometheus() const {
  RunCollectors();
  std::ostringstream os;
  std::shared_lock<std::shared_mutex> lock(mutex_);
  for (const auto& [name, entry] : families_) {
    const auto preamble = [&](const auto& family, const char* type) {
      os << "# HELP " << name << ' ' << family.help() << '\n';
      os << "# TYPE " << name << ' ' << type << '\n';
    };
    switch (entry.kind) {
      case InstrumentKind::kCounter: {
        preamble(*entry.counter, "counter");
        for (const auto& child : entry.counter->Children()) {
          os << name;
          AppendLabelSet(os, entry.counter->label_names(), child.labels);
          os << ' ' << child.instrument->Value() << '\n';
        }
        break;
      }
      case InstrumentKind::kGauge: {
        preamble(*entry.gauge, "gauge");
        for (const auto& child : entry.gauge->Children()) {
          os << name;
          AppendLabelSet(os, entry.gauge->label_names(), child.labels);
          os << ' ' << child.instrument->Value() << '\n';
        }
        break;
      }
      case InstrumentKind::kHistogram: {
        preamble(*entry.histogram, "histogram");
        for (const auto& child : entry.histogram->Children()) {
          // Cumulative le buckets up to the highest occupied one. The le
          // edge is the bucket's exclusive upper bound 2^(i+1): a close
          // (one-off) approximation of Prometheus's inclusive semantics
          // that keeps the edges on powers of two.
          size_t highest = 0;
          for (size_t i = 0; i < Histogram::kBuckets; ++i) {
            if (child.instrument->BucketCount(i) > 0) highest = i;
          }
          uint64_t cumulative = 0;
          for (size_t i = 0; i <= highest; ++i) {
            cumulative += child.instrument->BucketCount(i);
            os << name << "_bucket";
            AppendLabelSet(os, entry.histogram->label_names(), child.labels,
                           "le",
                           std::to_string(Histogram::BucketUpperBound(i)));
            os << ' ' << cumulative;
            // OpenMetrics-style exemplar: link the bucket to a recent
            // trace. Strict 0.0.4 parsers treat everything after '#' as a
            // comment, so this degrades gracefully.
            const uint64_t exemplar = child.instrument->BucketExemplarId(i);
            if (exemplar != 0) {
              os << " # {trace_id=\"" << TraceIdToHex(exemplar) << "\"} "
                 << child.instrument->BucketExemplarValue(i);
            }
            os << '\n';
          }
          os << name << "_bucket";
          AppendLabelSet(os, entry.histogram->label_names(), child.labels,
                         "le", "+Inf");
          os << ' ' << child.instrument->TotalCount() << '\n';
          os << name << "_sum";
          AppendLabelSet(os, entry.histogram->label_names(), child.labels);
          os << ' ' << child.instrument->Sum() << '\n';
          os << name << "_count";
          AppendLabelSet(os, entry.histogram->label_names(), child.labels);
          os << ' ' << child.instrument->TotalCount() << '\n';
        }
        break;
      }
    }
  }
  return os.str();
}

std::string MetricsRegistry::RenderJson() const {
  RunCollectors();
  std::ostringstream os;
  std::shared_lock<std::shared_mutex> lock(mutex_);
  os << "{\"families\":[";
  bool first_family = true;
  for (const auto& [name, entry] : families_) {
    if (!first_family) os << ',';
    first_family = false;
    const auto header = [&](const auto& family) {
      os << "{\"name\":";
      AppendJsonString(os, name);
      os << ",\"kind\":\"" << InstrumentKindName(entry.kind) << '"';
      os << ",\"help\":";
      AppendJsonString(os, family.help());
      os << ",\"labels\":[";
      for (size_t i = 0; i < family.label_names().size(); ++i) {
        if (i > 0) os << ',';
        AppendJsonString(os, family.label_names()[i]);
      }
      os << "],\"samples\":[";
    };
    const auto simple_samples = [&](const auto& family) {
      bool first = true;
      for (const auto& child : family.Children()) {
        if (!first) os << ',';
        first = false;
        os << "{\"labels\":";
        AppendJsonLabels(os, family.label_names().size(), child.labels);
        os << ",\"value\":" << child.instrument->Value() << '}';
      }
    };
    switch (entry.kind) {
      case InstrumentKind::kCounter:
        header(*entry.counter);
        simple_samples(*entry.counter);
        break;
      case InstrumentKind::kGauge:
        header(*entry.gauge);
        simple_samples(*entry.gauge);
        break;
      case InstrumentKind::kHistogram: {
        header(*entry.histogram);
        bool first = true;
        for (const auto& child : entry.histogram->Children()) {
          if (!first) os << ',';
          first = false;
          os << "{\"labels\":";
          AppendJsonLabels(os, entry.histogram->label_names().size(),
                           child.labels);
          os << ",\"count\":" << child.instrument->TotalCount();
          os << ",\"sum\":" << child.instrument->Sum();
          os << ",\"p50\":" << child.instrument->PercentileUpperBound(50.0);
          os << ",\"p99\":" << child.instrument->PercentileUpperBound(99.0);
          os << ",\"buckets\":[";
          bool first_bucket = true;
          for (size_t i = 0; i < Histogram::kBuckets; ++i) {
            const uint64_t count = child.instrument->BucketCount(i);
            if (count == 0) continue;
            if (!first_bucket) os << ',';
            first_bucket = false;
            os << "{\"lo\":" << Histogram::BucketLowerBound(i)
               << ",\"hi\":" << Histogram::BucketUpperBound(i)
               << ",\"count\":" << count << '}';
          }
          os << "],\"exemplars\":[";
          bool first_exemplar = true;
          for (size_t i = 0; i < Histogram::kBuckets; ++i) {
            const uint64_t exemplar = child.instrument->BucketExemplarId(i);
            if (exemplar == 0) continue;
            if (!first_exemplar) os << ',';
            first_exemplar = false;
            os << "{\"lo\":" << Histogram::BucketLowerBound(i)
               << ",\"trace_id\":\"" << TraceIdToHex(exemplar)
               << "\",\"value\":" << child.instrument->BucketExemplarValue(i)
               << '}';
          }
          os << "]}";
        }
        break;
      }
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

}  // namespace ordlog

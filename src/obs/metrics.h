#ifndef ORDLOG_OBS_METRICS_H_
#define ORDLOG_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace ordlog {

// True when `name` is a well-formed ordlog metric name:
// ^ordlog_[a-z0-9_]+(_total|_us|_bytes|_ratio)?$ — a lowercase snake_case
// identifier under the ordlog_ prefix, optionally carrying one of the
// canonical unit/kind suffixes. Enforced at registration time (CHECK) and
// again by scripts/check_metrics_names.py over the source tree.
bool IsValidMetricName(std::string_view name);

// A monotonically increasing counter. Increment is one relaxed atomic add:
// lock-free and safe from any thread.
class Counter {
 public:
  // Adds `delta` (default 1).
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  // Current value.
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// A gauge: a value that can go up and down (queue depths, revisions).
class Gauge {
 public:
  // Sets the gauge to `value`.
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }

  // Adds `delta` (may be negative).
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  // Current value.
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Lock-free log2-bucketed histogram of non-negative integer samples
// (typically microseconds). Bucket i holds samples in [2^i, 2^{i+1})
// (bucket 0 also takes 0), covering 0 to ~2^31 in 31 buckets. The reported
// percentile is the upper bound of the bucket containing it.
class Histogram {
 public:
  // Number of log2 buckets; the last bucket also absorbs larger samples.
  static constexpr size_t kBuckets = 31;

  // The bucket holding `value`: 0 for 0 and 1, otherwise
  // min(floor(log2(value)), kBuckets - 1) — so every exact power of two
  // 2^i lands in bucket i, the left edge of [2^i, 2^{i+1}).
  static size_t BucketIndex(uint64_t value) {
    if (value <= 1) return 0;
    const size_t log2 = static_cast<size_t>(std::bit_width(value)) - 1;
    return log2 < kBuckets ? log2 : kBuckets - 1;
  }

  // Inclusive lower edge of `bucket`: 0 for bucket 0, else 2^bucket.
  static uint64_t BucketLowerBound(size_t bucket) {
    return bucket == 0 ? 0 : uint64_t{1} << bucket;
  }

  // Exclusive upper edge of `bucket`: 2^(bucket+1).
  static uint64_t BucketUpperBound(size_t bucket) {
    return uint64_t{1} << (bucket + 1);
  }

  // Adds one sample; lock-free, callable from any thread. A nonzero
  // `exemplar_trace_id` stamps the sample's bucket with that trace id, so
  // the exposition can link the bucket to a recent concrete trace
  // (/tracez). The id and value are separate relaxed atomics — a racing
  // pair may mix two samples' stamps, which is fine for exemplars.
  void Record(uint64_t value, uint64_t exemplar_trace_id = 0) {
    const size_t bucket = BucketIndex(value);
    counts_[bucket].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    if (exemplar_trace_id != 0) {
      exemplar_ids_[bucket].store(exemplar_trace_id,
                                  std::memory_order_relaxed);
      exemplar_values_[bucket].store(value, std::memory_order_relaxed);
    }
  }

  // Total number of recorded samples across all buckets.
  uint64_t TotalCount() const;

  // Sum of every recorded sample.
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }

  // Number of samples in `bucket`.
  uint64_t BucketCount(size_t bucket) const {
    return counts_[bucket].load(std::memory_order_relaxed);
  }

  // Upper bound of the bucket containing the `percentile`-th sample
  // (percentile in [0, 100]); 0 when empty.
  uint64_t PercentileUpperBound(double percentile) const;

  // Trace id most recently stamped on `bucket`; 0 when no exemplar has
  // been recorded for it.
  uint64_t BucketExemplarId(size_t bucket) const {
    return exemplar_ids_[bucket].load(std::memory_order_relaxed);
  }

  // Sample value that accompanied the bucket's exemplar stamp.
  uint64_t BucketExemplarValue(size_t bucket) const {
    return exemplar_values_[bucket].load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<uint64_t>, kBuckets> counts_{};
  std::atomic<uint64_t> sum_{0};
  std::array<std::atomic<uint64_t>, kBuckets> exemplar_ids_{};
  std::array<std::atomic<uint64_t>, kBuckets> exemplar_values_{};
};

// The three instrument kinds a family can hold.
enum class InstrumentKind : uint8_t { kCounter, kGauge, kHistogram };

// Canonical lowercase name of an instrument kind ("counter", ...).
const char* InstrumentKindName(InstrumentKind kind);

// A named family of instruments distinguished by up to 2 label values
// (e.g. ordlog_rule_status_total{component=,status=}). Children are
// created lazily on first WithLabels and live as long as the registry;
// the returned references are stable, so hot paths should look a child up
// once and keep the reference. Lookup takes a sharded reader lock; the
// increment path on the returned instrument is lock-free.
template <typename Instrument>
class Family {
 public:
  // Constructed by MetricsRegistry; `label_names` has at most 2 entries.
  Family(std::string name, std::string help,
         std::vector<std::string> label_names)
      : name_(std::move(name)),
        help_(std::move(help)),
        label_names_(std::move(label_names)) {}

  Family(const Family&) = delete;
  Family& operator=(const Family&) = delete;

  // Metric name, e.g. "ordlog_queries_total".
  const std::string& name() const { return name_; }
  // One-line description rendered as the Prometheus # HELP text.
  const std::string& help() const { return help_; }
  // Declared label names, in order; empty for an unlabeled family.
  const std::vector<std::string>& label_names() const { return label_names_; }

  // The child for the given label values (as many as the family declares
  // label names; pass none for an unlabeled family). Creates it on first
  // use; later calls with the same values return the same instrument.
  Instrument& WithLabels(std::string_view value0 = {},
                         std::string_view value1 = {});

  // One (label values, instrument) pair, as captured by Children().
  struct Child {
    // The child's label values (unused slots empty).
    std::array<std::string, 2> labels;
    // The child instrument; owned by the family, never null.
    const Instrument* instrument;
  };

  // Every child created so far, sorted by label values (stable output for
  // exposition and tests).
  std::vector<Child> Children() const;

 private:
  static constexpr size_t kShards = 8;
  struct Entry {
    std::array<std::string, 2> labels;
    Instrument instrument;
  };
  struct Shard {
    mutable std::shared_mutex mutex;
    std::unordered_map<std::string, std::unique_ptr<Entry>> children;
  };

  const std::string name_;
  const std::string help_;
  const std::vector<std::string> label_names_;
  std::array<Shard, kShards> shards_;
};

// A family of counters (see Family).
using CounterFamily = Family<Counter>;
// A family of gauges (see Family).
using GaugeFamily = Family<Gauge>;
// A family of histograms (see Family).
using HistogramFamily = Family<Histogram>;

// A registry of named metric families with lazy creation and text
// exposition. Thread-safe: families and children may be created and
// updated concurrently with rendering; counters read during a render are
// independently relaxed-atomic (consistent enough for dashboards, not a
// transaction). Family registration CHECKs that the name is a valid
// ordlog metric name, that at most 2 labels are declared, and that a
// re-registration agrees on the kind.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The counter family `name`, creating it on first use. Re-registration
  // with the same name returns the existing family (help/labels of the
  // first registration win).
  CounterFamily& GetCounterFamily(std::string_view name,
                                  std::string_view help,
                                  std::vector<std::string> label_names = {});

  // The gauge family `name` (see GetCounterFamily).
  GaugeFamily& GetGaugeFamily(std::string_view name, std::string_view help,
                              std::vector<std::string> label_names = {});

  // The histogram family `name` (see GetCounterFamily).
  HistogramFamily& GetHistogramFamily(
      std::string_view name, std::string_view help,
      std::vector<std::string> label_names = {});

  // Registers a callback run at the start of every render, letting owners
  // of external state refresh instruments (e.g. set a gauge) right before
  // exposition.
  void AddCollector(std::function<void()> collector);

  // Prometheus text exposition format (version 0.0.4): # HELP / # TYPE
  // preambles, families sorted by name, children sorted by label values.
  // Histograms render cumulative le="" buckets up to the highest occupied
  // bucket plus le="+Inf", then _sum and _count.
  std::string RenderPrometheus() const;

  // The same data as a single JSON object:
  // {"families":[{"name":...,"kind":...,"help":...,"labels":[...],
  //   "samples":[{"labels":[...],"value":...}, ...]}, ...]}.
  // Histogram samples carry buckets/sum/count instead of value.
  std::string RenderJson() const;

 private:
  struct FamilyEntry {
    InstrumentKind kind = InstrumentKind::kCounter;
    std::unique_ptr<CounterFamily> counter;
    std::unique_ptr<GaugeFamily> gauge;
    std::unique_ptr<HistogramFamily> histogram;
  };

  void RunCollectors() const;

  mutable std::shared_mutex mutex_;
  // Sorted by name so exposition order is stable.
  std::map<std::string, FamilyEntry, std::less<>> families_;
  mutable std::mutex collector_mutex_;
  std::vector<std::function<void()>> collectors_;
};

}  // namespace ordlog

#endif  // ORDLOG_OBS_METRICS_H_

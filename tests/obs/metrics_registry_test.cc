// Tests for the obs metrics layer: name validation, the three instrument
// kinds, labeled families, collectors, and the Prometheus/JSON renderers.

#include <string>

#include "gtest/gtest.h"

#include "obs/metrics.h"

namespace ordlog {
namespace {

TEST(MetricNameTest, AcceptsCanonicalNames) {
  EXPECT_TRUE(IsValidMetricName("ordlog_queries_total"));
  EXPECT_TRUE(IsValidMetricName("ordlog_query_latency_us"));
  EXPECT_TRUE(IsValidMetricName("ordlog_kb_revision"));
  EXPECT_TRUE(IsValidMetricName("ordlog_heap_bytes"));
  EXPECT_TRUE(IsValidMetricName("ordlog_cache_hit_ratio"));
}

TEST(MetricNameTest, RejectsMalformedNames) {
  EXPECT_FALSE(IsValidMetricName(""));
  EXPECT_FALSE(IsValidMetricName("ordlog_"));
  EXPECT_FALSE(IsValidMetricName("queries_total"));        // missing prefix
  EXPECT_FALSE(IsValidMetricName("ordlog_Queries_total")); // uppercase
  EXPECT_FALSE(IsValidMetricName("ordlog_queries-total")); // dash
  EXPECT_FALSE(IsValidMetricName("ordlog_queries total")); // space
}

TEST(CounterTest, Increment) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Increment();
  counter.Increment(4);
  EXPECT_EQ(counter.Value(), 5u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  gauge.Set(7);
  EXPECT_EQ(gauge.Value(), 7);
  gauge.Add(-10);
  EXPECT_EQ(gauge.Value(), -3);
}

TEST(HistogramTest, BucketIndexPinsPowerOfTwoEdges) {
  // Exact powers of two must land on the LEFT edge of [2^i, 2^{i+1}).
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 0u);
  EXPECT_EQ(Histogram::BucketIndex(2), 1u);
  EXPECT_EQ(Histogram::BucketIndex(3), 1u);
  EXPECT_EQ(Histogram::BucketIndex(4), 2u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 10u);
  EXPECT_EQ(Histogram::BucketIndex(1025), 10u);
  EXPECT_EQ(Histogram::BucketIndex(2047), 10u);
  EXPECT_EQ(Histogram::BucketIndex(2048), 11u);
  // The last bucket absorbs everything beyond the covered range.
  EXPECT_EQ(Histogram::BucketIndex(uint64_t{1} << 62),
            Histogram::kBuckets - 1);
}

TEST(HistogramTest, BucketBoundsAreConsistent) {
  for (size_t bucket = 0; bucket + 1 < Histogram::kBuckets; ++bucket) {
    const uint64_t lo = Histogram::BucketLowerBound(bucket);
    const uint64_t hi = Histogram::BucketUpperBound(bucket);
    EXPECT_LT(lo, hi);
    EXPECT_EQ(Histogram::BucketIndex(lo == 0 ? 0 : lo), bucket);
    EXPECT_EQ(Histogram::BucketIndex(hi - 1), bucket);
    EXPECT_EQ(Histogram::BucketIndex(hi), bucket + 1);
  }
}

TEST(HistogramTest, RecordAndPercentiles) {
  Histogram histogram;
  EXPECT_EQ(histogram.PercentileUpperBound(50.0), 0u);
  for (int i = 0; i < 90; ++i) histogram.Record(3);     // bucket 1
  for (int i = 0; i < 10; ++i) histogram.Record(1000);  // bucket 9
  EXPECT_EQ(histogram.TotalCount(), 100u);
  EXPECT_EQ(histogram.Sum(), 90u * 3 + 10u * 1000);
  EXPECT_EQ(histogram.BucketCount(1), 90u);
  EXPECT_EQ(histogram.BucketCount(9), 10u);
  EXPECT_EQ(histogram.PercentileUpperBound(50.0),
            Histogram::BucketUpperBound(1));
  EXPECT_EQ(histogram.PercentileUpperBound(99.0),
            Histogram::BucketUpperBound(9));
}

TEST(HistogramTest, ExemplarStampsBucketWithTraceId) {
  Histogram histogram;
  histogram.Record(5);  // no exemplar: trace id stays 0
  EXPECT_EQ(histogram.BucketExemplarId(Histogram::BucketIndex(5)), 0u);

  histogram.Record(5, /*exemplar_trace_id=*/0xabcull);
  const size_t bucket = Histogram::BucketIndex(5);
  EXPECT_EQ(histogram.BucketExemplarId(bucket), 0xabcull);
  EXPECT_EQ(histogram.BucketExemplarValue(bucket), 5u);

  // A later exemplar in the same bucket replaces the earlier one; zero
  // exemplars never overwrite a stamped bucket.
  histogram.Record(6, /*exemplar_trace_id=*/0xdefull);
  histogram.Record(7);
  EXPECT_EQ(histogram.BucketExemplarId(bucket), 0xdefull);
  EXPECT_EQ(histogram.BucketExemplarValue(bucket), 6u);
  // Other buckets are untouched.
  EXPECT_EQ(histogram.BucketExemplarId(Histogram::BucketIndex(1000)), 0u);
}

TEST(RegistryTest, PrometheusHistogramCarriesExemplar) {
  MetricsRegistry registry;
  registry.GetHistogramFamily("ordlog_lat_us", "latency")
      .WithLabels()
      .Record(5, /*exemplar_trace_id=*/0xdeadbeef01020304ull);
  const std::string text = registry.RenderPrometheus();
  // Sample 5 lands in bucket [4,8); its _bucket line carries the
  // OpenMetrics-style exemplar suffix with the hex trace id.
  EXPECT_NE(text.find("ordlog_lat_us_bucket{le=\"8\"} 1 "
                      "# {trace_id=\"deadbeef01020304\"} 5\n"),
            std::string::npos)
      << text;
  // Unstamped buckets render without a suffix.
  EXPECT_NE(text.find("ordlog_lat_us_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
}

TEST(RegistryTest, JsonHistogramCarriesExemplars) {
  MetricsRegistry registry;
  registry.GetHistogramFamily("ordlog_lat_us", "latency")
      .WithLabels()
      .Record(5, /*exemplar_trace_id=*/0x1full);
  const std::string json = registry.RenderJson();
  EXPECT_NE(json.find("\"exemplars\":[{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"trace_id\":\"000000000000001f\""),
            std::string::npos);
  EXPECT_NE(json.find("\"value\":5"), std::string::npos);
}

TEST(FamilyTest, SameLabelsSameChild) {
  CounterFamily family("ordlog_demo_total", "demo", {"status"});
  Counter& served = family.WithLabels("served");
  Counter& served_again = family.WithLabels("served");
  Counter& failed = family.WithLabels("failed");
  EXPECT_EQ(&served, &served_again);
  EXPECT_NE(&served, &failed);
  served.Increment(2);
  EXPECT_EQ(family.WithLabels("served").Value(), 2u);
}

TEST(FamilyTest, ChildrenSortedByLabels) {
  CounterFamily family("ordlog_demo_total", "demo", {"a", "b"});
  family.WithLabels("z", "1").Increment();
  family.WithLabels("a", "2").Increment();
  family.WithLabels("a", "1").Increment();
  const auto children = family.Children();
  ASSERT_EQ(children.size(), 3u);
  EXPECT_EQ(children[0].labels[0], "a");
  EXPECT_EQ(children[0].labels[1], "1");
  EXPECT_EQ(children[1].labels[1], "2");
  EXPECT_EQ(children[2].labels[0], "z");
}

TEST(RegistryTest, RegistrationIsIdempotent) {
  MetricsRegistry registry;
  CounterFamily& first =
      registry.GetCounterFamily("ordlog_demo_total", "demo", {"status"});
  CounterFamily& second =
      registry.GetCounterFamily("ordlog_demo_total", "ignored help");
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(second.help(), "demo");  // first registration wins
}

TEST(RegistryTest, RenderPrometheusFormat) {
  MetricsRegistry registry;
  registry.GetCounterFamily("ordlog_b_total", "b counter", {"status"})
      .WithLabels("ok")
      .Increment(3);
  registry.GetGaugeFamily("ordlog_a_gauge", "a gauge").WithLabels().Set(-2);
  registry.GetHistogramFamily("ordlog_lat_us", "latency")
      .WithLabels()
      .Record(5);

  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# HELP ordlog_b_total b counter\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE ordlog_b_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("ordlog_b_total{status=\"ok\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ordlog_a_gauge gauge\n"), std::string::npos);
  EXPECT_NE(text.find("ordlog_a_gauge -2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ordlog_lat_us histogram\n"), std::string::npos);
  // Sample 5 lands in bucket 2 ([4,8)): cumulative buckets then +Inf.
  EXPECT_NE(text.find("ordlog_lat_us_bucket{le=\"8\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ordlog_lat_us_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("ordlog_lat_us_sum 5\n"), std::string::npos);
  EXPECT_NE(text.find("ordlog_lat_us_count 1\n"), std::string::npos);
  // Families render sorted by name: the gauge before the counter.
  EXPECT_LT(text.find("ordlog_a_gauge"), text.find("ordlog_b_total"));
}

TEST(RegistryTest, RenderPrometheusEscapesLabelValues) {
  MetricsRegistry registry;
  registry.GetCounterFamily("ordlog_esc_total", "esc", {"value"})
      .WithLabels("a\"b\\c\nd")
      .Increment();
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("ordlog_esc_total{value=\"a\\\"b\\\\c\\nd\"} 1\n"),
            std::string::npos)
      << text;
}

TEST(RegistryTest, RenderJsonShape) {
  MetricsRegistry registry;
  registry.GetCounterFamily("ordlog_demo_total", "demo", {"status"})
      .WithLabels("ok")
      .Increment(2);
  registry.GetHistogramFamily("ordlog_lat_us", "latency")
      .WithLabels()
      .Record(5);
  const std::string json = registry.RenderJson();
  EXPECT_NE(json.find("\"name\":\"ordlog_demo_total\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"kind\":\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":2"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"sum\":5"), std::string::npos);
}

TEST(RegistryTest, CollectorsRunBeforeRender) {
  MetricsRegistry registry;
  Gauge& mirrored =
      registry.GetGaugeFamily("ordlog_mirrored", "mirror").WithLabels();
  int64_t external = 0;
  registry.AddCollector([&] { mirrored.Set(external); });
  external = 42;
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("ordlog_mirrored 42\n"), std::string::npos) << text;
  // Every render re-runs the collector.
  external = 7;
  EXPECT_NE(registry.RenderPrometheus().find("ordlog_mirrored 7\n"),
            std::string::npos);
}

}  // namespace
}  // namespace ordlog

// Tests for the request-span subsystem: SpanContext nesting and commit
// policy, caller-timed spans, the shared root-trace path (SpanTracer /
// RootSpan), the hex trace-id wire format, the sampler, the bounded trace
// store behind /tracez, JSON serialization, the ASCII span tree, and the
// JSON-lines export sink.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

#include "obs/span.h"

namespace ordlog {
namespace {

TEST(TraceIdHexTest, RoundTrips) {
  EXPECT_EQ(TraceIdToHex(0x1ull), "0000000000000001");
  EXPECT_EQ(TraceIdToHex(0xdeadbeef01020304ull), "deadbeef01020304");
  for (const uint64_t id :
       {1ull, 0x42ull, 0xffffffffffffffffull, 0x8000000000000000ull}) {
    const std::optional<uint64_t> parsed = TraceIdFromHex(TraceIdToHex(id));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, id);
  }
}

TEST(TraceIdHexTest, ParseRejectsMalformedAndZero) {
  EXPECT_FALSE(TraceIdFromHex("").has_value());
  EXPECT_FALSE(TraceIdFromHex("0").has_value());           // zero id
  EXPECT_FALSE(TraceIdFromHex("0000000000000000").has_value());
  EXPECT_FALSE(TraceIdFromHex("xyz").has_value());
  EXPECT_FALSE(TraceIdFromHex("12345678901234567").has_value());  // 17 digits
  EXPECT_FALSE(TraceIdFromHex("dead beef").has_value());
  // Case-insensitive and short forms are fine.
  EXPECT_EQ(TraceIdFromHex("DEADBEEF").value_or(0), 0xdeadbeefull);
  EXPECT_EQ(TraceIdFromHex("7f").value_or(0), 0x7full);
}

TEST(SpanContextTest, NestsSpansByOpenOrder) {
  SpanContext context(42, /*recording=*/true, /*head_sampled=*/true);
  {
    ScopedSpan request = context.StartSpan("request");
    {
      ScopedSpan query = context.StartSpan("query");
      query.AddAttribute("rounds", 3);
      query.AddAttribute("rounds", 2);  // accumulates
      ScopedSpan ground = context.StartSpan("ground");
      ground.End();
      ground.End();  // idempotent
    }
    ScopedSpan wal = context.StartSpan("wal_append");
  }
  TraceRecord record = context.Finish("acme", "query", "c1 take_loan");

  EXPECT_EQ(record.trace_id, 42u);
  EXPECT_EQ(record.tenant, "acme");
  EXPECT_EQ(record.endpoint, "query");
  EXPECT_EQ(record.detail, "c1 take_loan");
  EXPECT_FALSE(record.slow);
  ASSERT_EQ(record.spans.size(), 4u);
  // Start order, parents before children.
  EXPECT_EQ(record.spans[0].name, "request");
  EXPECT_EQ(record.spans[0].parent_id, 0u);
  EXPECT_EQ(record.spans[1].name, "query");
  EXPECT_EQ(record.spans[1].parent_id, record.spans[0].span_id);
  EXPECT_EQ(record.spans[2].name, "ground");
  EXPECT_EQ(record.spans[2].parent_id, record.spans[1].span_id);
  EXPECT_EQ(record.spans[3].name, "wal_append");
  EXPECT_EQ(record.spans[3].parent_id, record.spans[0].span_id);
  // Attributes accumulated under one key.
  ASSERT_EQ(record.spans[1].attributes.size(), 1u);
  EXPECT_EQ(record.spans[1].attributes[0].key, "rounds");
  EXPECT_EQ(record.spans[1].attributes[0].value, 5u);
  // Every span has a nonzero duration once finished.
  for (const Span& span : record.spans) {
    EXPECT_GE(span.duration_us, 1u) << span.name;
  }
}

TEST(SpanContextTest, CommitPolicyIsSampledOrSlow) {
  SpanContext sampled(1, /*recording=*/true, /*head_sampled=*/true);
  EXPECT_TRUE(sampled.ShouldCommit());

  SpanContext unsampled(2, /*recording=*/true, /*head_sampled=*/false);
  EXPECT_FALSE(unsampled.ShouldCommit());
  unsampled.MarkSlow();
  EXPECT_TRUE(unsampled.ShouldCommit());
  EXPECT_TRUE(unsampled.slow());
}

TEST(SpanContextTest, NonRecordingContextStaysEmpty) {
  SpanContext context(7, /*recording=*/false, /*head_sampled=*/false);
  ScopedSpan span = context.StartSpan("query");
  EXPECT_FALSE(span.active());
  span.AddAttribute("rounds", 3);  // no-op
  EXPECT_EQ(context.span_count(), 0u);
  EXPECT_EQ(context.Finish("", "query", "").spans.size(), 0u);
}

TEST(SpanContextTest, FinishClosesOpenSpansAndAttributeTotalSums) {
  SpanContext context(9, /*recording=*/true, /*head_sampled=*/true);
  ScopedSpan a = context.StartSpan("a");
  a.AddAttribute("delta_tuples", 10);
  ScopedSpan b = context.StartSpan("b");
  b.AddAttribute("delta_tuples", 32);
  EXPECT_EQ(context.AttributeTotal("delta_tuples"), 42u);
  EXPECT_EQ(context.AttributeTotal("missing"), 0u);
  // Finish with both spans still open: durations get fixed anyway.
  const TraceRecord record = context.Finish("", "query", "");
  ASSERT_EQ(record.spans.size(), 2u);
  EXPECT_GE(record.spans[0].duration_us, 1u);
  EXPECT_GE(record.spans[1].duration_us, 1u);
  EXPECT_EQ(record.duration_us, record.spans[0].duration_us);
}

TEST(SpanContextTest, CallerTimedSpansKeepTheirReadings) {
  SpanContext context(11, /*recording=*/true, /*head_sampled=*/true);
  const SpanContext::Clock::time_point at =
      SpanContext::Clock::now() + std::chrono::microseconds(50);
  ScopedSpan timed = context.StartSpan("phase", at);
  timed.End(0);  // a sub-microsecond phase stays 0, not rounded up
  timed.End(7);  // already closed: no effect
  // A reading from before the trace started clamps to offset 0.
  ScopedSpan early = context.StartSpan(
      "early", SpanContext::Clock::now() - std::chrono::seconds(1));
  early.End(3);
  const TraceRecord record = context.Finish("", "query", "");
  ASSERT_EQ(record.spans.size(), 2u);
  EXPECT_GE(record.spans[0].start_us, 50u);
  EXPECT_EQ(record.spans[0].duration_us, 0u);
  EXPECT_EQ(record.spans[1].start_us, 0u);
  EXPECT_EQ(record.spans[1].duration_us, 3u);
}

TEST(SpanTracerTest, DisabledTracerRegistersCountersAndStaysInert) {
  MetricsRegistry registry;
  SpanTracer tracer(SpanOptions{}, registry);
  EXPECT_EQ(tracer.store(), nullptr);
  RootSpan root(&tracer, /*record_unsampled=*/true);
  EXPECT_EQ(root.context(), nullptr);
  EXPECT_FALSE(root.ShouldCommit());
  root.Commit("", "query", "");  // no-op
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# TYPE ordlog_span_traces_total counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ordlog_span_spans_total 0"), std::string::npos);
  RootSpan no_tracer(nullptr, /*record_unsampled=*/true);
  EXPECT_EQ(no_tracer.context(), nullptr);
}

TEST(SpanTracerTest, RootSpanCommitsWithSampledOrSlowReason) {
  MetricsRegistry registry;
  SpanOptions options;
  options.enabled = true;
  options.sample_probability = 0.0;
  SpanTracer tracer(options, registry);
  ASSERT_NE(tracer.store(), nullptr);

  // Unsampled and not recording unsampled requests: nothing to record.
  RootSpan skipped(&tracer, /*record_unsampled=*/false);
  EXPECT_EQ(skipped.context(), nullptr);

  // Unsampled but recording: commits only once marked slow.
  RootSpan quick(&tracer, /*record_unsampled=*/true);
  ASSERT_NE(quick.context(), nullptr);
  ScopedSpan quick_span = quick.context()->StartSpan("request");
  EXPECT_FALSE(quick.ShouldCommit());
  quick.Commit("t", "query", "fast");
  RootSpan slow(&tracer, /*record_unsampled=*/true);
  ScopedSpan slow_span = slow.context()->StartSpan("request");
  slow.context()->MarkSlow();
  slow.Commit("t", "query", "slow");
  EXPECT_EQ(tracer.store()->stats().traces, 1u);
  EXPECT_EQ(tracer.store()->stats().slow, 1u);

  SpanOptions always = options;
  always.sample_probability = 1.0;
  SpanTracer sampling(always, registry);
  RootSpan sampled(&sampling, /*record_unsampled=*/false);
  ASSERT_NE(sampled.context(), nullptr);
  ScopedSpan request = sampled.context()->StartSpan("request");
  ScopedSpan child = sampled.context()->StartSpan("admission");
  sampled.Commit("t", "mutate", "/v1/t/mutate");  // closes open spans
  const std::vector<TraceRecord> records = sampling.store()->Records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].endpoint, "mutate");
  EXPECT_EQ(records[0].spans.size(), 2u);

  // Both tracers count into the one registry's families.
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("ordlog_span_traces_total{reason=\"slow\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ordlog_span_traces_total{reason=\"sampled\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ordlog_span_spans_total 3\n"), std::string::npos)
      << text;
}

TEST(ScopedSpanTest, MoveTransfersOwnership) {
  SpanContext context(5, /*recording=*/true, /*head_sampled=*/true);
  ScopedSpan a = context.StartSpan("a");
  ScopedSpan b = std::move(a);
  EXPECT_FALSE(a.active());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b.active());
  b.End();
  EXPECT_FALSE(b.active());
}

TEST(SpanSamplerTest, ZeroAndOneProbabilities) {
  SpanSampler never(0.0);
  SpanSampler always(1.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(never.Sample());
    EXPECT_TRUE(always.Sample());
  }
  EXPECT_EQ(never.probability(), 0.0);
  EXPECT_EQ(always.probability(), 1.0);
  // Out-of-range probabilities clamp.
  EXPECT_EQ(SpanSampler(-1.0).probability(), 0.0);
  EXPECT_EQ(SpanSampler(2.0).probability(), 1.0);
}

TEST(SpanSamplerTest, IntermediateProbabilityIsRoughlyHonored) {
  SpanSampler sampler(0.25);
  int sampled = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) sampled += sampler.Sample() ? 1 : 0;
  // SplitMix64 is a solid mixer; 0.25 +/- 0.05 over 20k trials is lax.
  EXPECT_GT(sampled, kTrials / 5);
  EXPECT_LT(sampled, kTrials * 3 / 10);
}

TEST(SpanSamplerTest, TraceIdsAreNonzeroAndDistinct) {
  SpanSampler sampler(0.5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t id = sampler.NextTraceId();
    EXPECT_NE(id, 0u);
    EXPECT_TRUE(seen.insert(id).second) << "duplicate trace id";
  }
}

TraceRecord MakeTrace(uint64_t trace_id, const std::string& tenant,
                      bool slow = false) {
  SpanContext context(trace_id, /*recording=*/true, /*head_sampled=*/!slow);
  {
    ScopedSpan root = context.StartSpan("query");
    root.AddAttribute("rounds", 2);
    ScopedSpan child = context.StartSpan("eval");
  }
  if (slow) context.MarkSlow();
  return context.Finish(tenant, "query", "c1 take_loan");
}

TEST(TraceStoreTest, RingEvictsOldestAndFindsById) {
  TraceStore store(2);
  store.Add(MakeTrace(1, "a"));
  store.Add(MakeTrace(2, "a"));
  store.Add(MakeTrace(3, "b"));  // evicts trace 1

  EXPECT_FALSE(store.Find(1).has_value());
  ASSERT_TRUE(store.Find(2).has_value());
  ASSERT_TRUE(store.Find(3).has_value());
  EXPECT_EQ(store.Find(3)->tenant, "b");

  const std::vector<TraceRecord> records = store.Records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].trace_id, 2u);  // oldest retained first
  EXPECT_EQ(records[1].trace_id, 3u);

  // Tenant filtering.
  EXPECT_EQ(store.Records("a").size(), 1u);
  EXPECT_EQ(store.Records("b").size(), 1u);
  EXPECT_EQ(store.Records("zz").size(), 0u);

  const TraceStoreStats stats = store.stats();
  EXPECT_EQ(stats.traces, 3u);
  EXPECT_EQ(stats.spans, 6u);
  EXPECT_EQ(stats.slow, 0u);
}

TEST(TraceStoreTest, CountsSlowTracesAndListJsonSummarizes) {
  TraceStore store(4);
  store.Add(MakeTrace(0xabc, "acme", /*slow=*/true));
  EXPECT_EQ(store.stats().slow, 1u);

  const std::string json = store.ListJson();
  EXPECT_NE(json.find("\"capacity\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"recorded\":1"), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":\"0000000000000abc\""), std::string::npos);
  EXPECT_NE(json.find("\"slow\":true"), std::string::npos);
  EXPECT_NE(json.find("\"spans\":2"), std::string::npos);
  // Summaries only: no span names in the list document.
  EXPECT_EQ(json.find("\"eval\""), std::string::npos);
  // The filtered list keeps the store-wide counters.
  EXPECT_NE(store.ListJson("other").find("\"traces\":[]"), std::string::npos);
}

TEST(TraceRecordTest, ToJsonCarriesSpansAndAttributes) {
  const TraceRecord record = MakeTrace(0x1f, "acme");
  const std::string json = record.ToJson();
  EXPECT_NE(json.find("\"trace_id\":\"000000000000001f\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"tenant\":\"acme\""), std::string::npos);
  EXPECT_NE(json.find("\"endpoint\":\"query\""), std::string::npos);
  EXPECT_NE(json.find("\"detail\":\"c1 take_loan\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"query\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"eval\""), std::string::npos);
  EXPECT_NE(json.find("\"rounds\":2"), std::string::npos);
}

TEST(RenderSpanTreeTest, IndentsChildrenUnderParents) {
  const TraceRecord record = MakeTrace(0xbeef, "acme");
  const std::string tree = RenderSpanTree(record);
  EXPECT_NE(tree.find("trace 000000000000beef"), std::string::npos) << tree;
  EXPECT_NE(tree.find("tenant=acme"), std::string::npos);
  EXPECT_NE(tree.find("\n- query"), std::string::npos);
  EXPECT_NE(tree.find("\n  - eval"), std::string::npos);  // one level deeper
  EXPECT_NE(tree.find("rounds=2"), std::string::npos);
}

TEST(JsonLinesSpanSinkTest, WritesOneLinePerTrace) {
  std::ostringstream out;
  JsonLinesSpanSink sink(out);
  sink.Export(MakeTrace(1, "a"));
  sink.Export(MakeTrace(2, "b"));
  EXPECT_EQ(sink.lines_written(), 2u);
  const std::string text = out.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
  EXPECT_NE(text.find("\"trace_id\":\"0000000000000001\""), std::string::npos);
}

TEST(TraceStoreTest, ExportSinkSeesEveryCommit) {
  std::ostringstream out;
  JsonLinesSpanSink sink(out);
  TraceStore store(1);  // ring of one: everything but the last is evicted
  store.SetExportSink(&sink);
  store.Add(MakeTrace(1, "a"));
  store.Add(MakeTrace(2, "a"));
  EXPECT_EQ(sink.lines_written(), 2u);  // export saw the evicted trace too
  EXPECT_EQ(store.Records().size(), 1u);
}

TEST(TraceStoreTest, ConcurrentAddAndRead) {
  // Commits race reads; TSan (CI sanitizer job) checks the locking.
  TraceStore store(8);
  std::vector<std::thread> threads;
  for (int w = 0; w < 3; ++w) {
    threads.emplace_back([&store, w] {
      for (int i = 1; i <= 100; ++i) {
        store.Add(MakeTrace(static_cast<uint64_t>(w) * 1000 + i,
                            "t" + std::to_string(w)));
      }
    });
  }
  threads.emplace_back([&store] {
    for (int i = 0; i < 50; ++i) {
      (void)store.Records();
      (void)store.ListJson("t1");
      (void)store.Find(1001);
    }
  });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(store.stats().traces, 300u);
  EXPECT_EQ(store.Records().size(), 8u);
}

}  // namespace
}  // namespace ordlog

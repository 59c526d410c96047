// Tests for the QueryEngine's request-span tracing: head-sampled traces
// land in the engine's trace store with the full phase tree, slow queries
// commit even when unsampled, QueryWork attribution bills only the
// computing owner, and embedder-owned contexts are recorded into but
// never committed by the engine.

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "kb/knowledge_base.h"
#include "obs/span.h"
#include "runtime/query_engine.h"
#include "support/paper_programs.h"

namespace ordlog {
namespace {

KnowledgeBase LoadedKb(std::string_view source) {
  KnowledgeBase kb;
  EXPECT_TRUE(kb.Load(source).ok());
  return kb;
}

QueryRequest Skeptical(std::string_view module, std::string_view literal) {
  QueryRequest request;
  request.module = std::string(module);
  request.literal = std::string(literal);
  request.mode = QueryMode::kSkeptical;
  return request;
}

std::vector<std::string> SpanNames(const TraceRecord& record) {
  std::vector<std::string> names;
  for (const Span& span : record.spans) names.push_back(span.name);
  return names;
}

TEST(EngineSpansTest, SampledQueryCommitsFullPhaseTree) {
  KnowledgeBase kb = LoadedKb(testing::kFig1Penguin);
  QueryEngineOptions options;
  options.num_threads = 1;
  options.spans.enabled = true;
  options.spans.sample_probability = 1.0;
  options.tenant_label = "acme";
  QueryEngine engine(kb, options);

  const auto answer = engine.Execute(Skeptical("c1", "fly(penguin)"));
  ASSERT_TRUE(answer.ok());
  ASSERT_NE(answer->trace_id, 0u);

  ASSERT_NE(engine.trace_store(), nullptr);
  const std::optional<TraceRecord> trace =
      engine.trace_store()->Find(answer->trace_id);
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->tenant, "acme");
  EXPECT_EQ(trace->endpoint, "query");
  EXPECT_NE(trace->detail.find("fly(penguin)"), std::string::npos);
  EXPECT_FALSE(trace->slow);

  // A cold skeptical query walks query -> snapshot(ground) -> resolve ->
  // solve(eval); the root is "query" and every other span nests inside.
  const std::vector<std::string> names = SpanNames(*trace);
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names[0], "query");
  EXPECT_EQ(trace->spans[0].parent_id, 0u);
  for (const std::string expected :
       {"snapshot", "ground", "resolve", "solve", "eval"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing span " << expected;
  }
  for (size_t i = 1; i < trace->spans.size(); ++i) {
    EXPECT_NE(trace->spans[i].parent_id, 0u) << names[i];
  }
}

TEST(EngineSpansTest, UnsampledQueriesCommitNothing) {
  KnowledgeBase kb = LoadedKb(testing::kFig1Penguin);
  QueryEngineOptions options;
  options.num_threads = 1;
  options.spans.enabled = true;
  options.spans.sample_probability = 0.0;
  QueryEngine engine(kb, options);

  const auto answer = engine.Execute(Skeptical("c1", "fly(penguin)"));
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->trace_id, 0u);
  ASSERT_NE(engine.trace_store(), nullptr);
  EXPECT_EQ(engine.trace_store()->stats().traces, 0u);
}

TEST(EngineSpansTest, SlowQueryCommitsEvenWhenUnsampled) {
  KnowledgeBase kb = LoadedKb(testing::kFig1Penguin);
  QueryEngineOptions options;
  options.num_threads = 1;
  options.spans.enabled = true;
  options.spans.sample_probability = 0.0;
  // Threshold 0: every query is slow, so always-sample-on-slow fires.
  options.slow_query_threshold = std::chrono::microseconds(0);
  QueryEngine engine(kb, options);

  const auto answer = engine.Execute(Skeptical("c1", "fly(penguin)"));
  ASSERT_TRUE(answer.ok());
  ASSERT_NE(answer->trace_id, 0u);

  const std::optional<TraceRecord> trace =
      engine.trace_store()->Find(answer->trace_id);
  ASSERT_TRUE(trace.has_value());
  EXPECT_TRUE(trace->slow);
  EXPECT_EQ(engine.trace_store()->stats().slow, 1u);

  // The slow-query log carries the same trace id, linking /slowz rows to
  // /tracez trees.
  ASSERT_NE(engine.slow_query_log(), nullptr);
  const auto records = engine.slow_query_log()->Records();
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.back().trace_id, answer->trace_id);
}

TEST(EngineSpansTest, WorkIsBilledToTheComputingOwnerOnly) {
  KnowledgeBase kb = LoadedKb(testing::kFig1Penguin);
  QueryEngineOptions options;
  options.num_threads = 1;
  options.spans.enabled = true;
  options.spans.sample_probability = 1.0;
  QueryEngine engine(kb, options);

  // Cold query: grounds and evaluates, so work counters are nonzero.
  const auto cold = engine.Execute(Skeptical("c1", "fly(penguin)"));
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->cache_hit);
  EXPECT_GT(cold->work.ground_rules, 0u);
  EXPECT_GT(cold->work.eval_rounds, 0u);
  EXPECT_GT(cold->work.delta_tuples, 0u);

  // Warm repeat: a cache hit reports zero work — summing QueryWork across
  // requests never double-counts a shared computation.
  const auto warm = engine.Execute(Skeptical("c1", "fly(penguin)"));
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);
  EXPECT_EQ(warm->work.ground_rules, 0u);
  EXPECT_EQ(warm->work.eval_rounds, 0u);
  EXPECT_EQ(warm->work.delta_tuples, 0u);
  EXPECT_EQ(warm->work.solver_nodes, 0u);
}

TEST(EngineSpansTest, EmbedderOwnedContextIsRecordedButNotCommitted) {
  KnowledgeBase kb = LoadedKb(testing::kFig1Penguin);
  QueryEngineOptions options;
  options.num_threads = 1;
  options.spans.enabled = true;
  options.spans.sample_probability = 1.0;
  QueryEngine engine(kb, options);

  SpanContext context(77, /*recording=*/true, /*head_sampled=*/true);
  QueryRequest request = Skeptical("c1", "fly(penguin)");
  request.span = &context;
  // Embedder-owned contexts pair with Execute (same thread end to end).
  const auto answer = engine.Execute(std::move(request));
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->trace_id, 77u);

  // The engine recorded its spans into the embedder's context...
  EXPECT_GT(context.span_count(), 0u);
  // ...but did not commit it: the engine's own store stays empty.
  ASSERT_NE(engine.trace_store(), nullptr);
  EXPECT_EQ(engine.trace_store()->stats().traces, 0u);
  EXPECT_FALSE(engine.trace_store()->Find(77).has_value());
}

TEST(EngineSpansTest, CountModelsRecordsSearchSpan) {
  KnowledgeBase kb = LoadedKb(testing::kExample5P5);
  QueryEngineOptions options;
  options.num_threads = 1;
  options.spans.enabled = true;
  options.spans.sample_probability = 1.0;
  QueryEngine engine(kb, options);

  QueryRequest request;
  request.module = "c1";
  request.mode = QueryMode::kCountModels;
  const auto answer = engine.Execute(std::move(request));
  ASSERT_TRUE(answer.ok());
  ASSERT_NE(answer->trace_id, 0u);
  EXPECT_GT(answer->work.solver_nodes, 0u);

  const std::optional<TraceRecord> trace =
      engine.trace_store()->Find(answer->trace_id);
  ASSERT_TRUE(trace.has_value());
  const auto search =
      std::find_if(trace->spans.begin(), trace->spans.end(),
                   [](const Span& span) { return span.name == "search"; });
  ASSERT_NE(search, trace->spans.end()) << "missing search span";
  // Example 5 has three assumption-free models in c1; {c} is the one that
  // is not maximal, and the search span reports it as dominated.
  std::map<std::string, uint64_t> attributes;
  for (const SpanAttribute& attribute : search->attributes) {
    attributes[attribute.key] = attribute.value;
  }
  EXPECT_GE(attributes["leaves"], 3u);
  EXPECT_EQ(attributes.count("dominated"), 1u);
  EXPECT_EQ(attributes["dominated"], 1u);
}

}  // namespace
}  // namespace ordlog

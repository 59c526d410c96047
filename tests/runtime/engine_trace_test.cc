// Tests for the QueryEngine's tracing and explanation support: per-phase
// timing (one clock shared by phase spans and phase metrics), trace
// plumbing into the model computations, and the explain query option.

#include <optional>
#include <string>

#include "gtest/gtest.h"

#include "kb/knowledge_base.h"
#include "runtime/query_engine.h"
#include "support/paper_programs.h"
#include "trace/sink.h"

namespace ordlog {
namespace {

KnowledgeBase LoadedKb(std::string_view source) {
  KnowledgeBase kb;
  EXPECT_TRUE(kb.Load(source).ok());
  return kb;
}

QueryRequest SkepticalExplain(std::string_view module,
                              std::string_view literal) {
  QueryRequest request;
  request.module = std::string(module);
  request.literal = std::string(literal);
  request.mode = QueryMode::kSkeptical;
  request.explain = true;
  return request;
}

size_t CountKind(const std::vector<TraceEvent>& events, TraceEventKind kind) {
  size_t count = 0;
  for (const TraceEvent& event : events) {
    if (event.kind == kind) ++count;
  }
  return count;
}

TEST(EngineTraceTest, ExplainReturnsDerivationJson) {
  KnowledgeBase kb = LoadedKb(testing::kFig1Penguin);
  QueryEngineOptions options;
  options.num_threads = 1;
  QueryEngine engine(kb, options);

  const auto answer = engine.Execute(SkepticalExplain("c1", "fly(penguin)"));
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->truth, TruthValue::kFalse);
  EXPECT_NE(answer->explanation.find("\"truth\":\"false\""),
            std::string::npos)
      << answer->explanation;
  EXPECT_NE(answer->explanation.find("\"status\":\"overruled\""),
            std::string::npos)
      << answer->explanation;

  // The engine's JSON agrees with the KB's own ExplainJson.
  const auto direct = kb.ExplainJson("c1", "fly(penguin)");
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(answer->explanation, *direct);
}

TEST(EngineTraceTest, ExplainRejectedForNonSkepticalModes) {
  KnowledgeBase kb = LoadedKb(testing::kFig1Penguin);
  QueryEngine engine(kb, QueryEngineOptions{.num_threads = 1});

  QueryRequest request = SkepticalExplain("c1", "fly(penguin)");
  request.mode = QueryMode::kBrave;
  const auto answer = engine.Execute(std::move(request));
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTraceTest, ExplainUnknownLiteral) {
  KnowledgeBase kb = LoadedKb(testing::kFig1Penguin);
  QueryEngine engine(kb, QueryEngineOptions{.num_threads = 1});

  const auto answer =
      engine.Execute(SkepticalExplain("c1", "swims(penguin)"));
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->truth, TruthValue::kUndefined);
  EXPECT_NE(answer->explanation.find("\"unknown\":true"), std::string::npos)
      << answer->explanation;
}

TEST(EngineTraceTest, RuleStatusesReachTheSink) {
  KnowledgeBase kb = LoadedKb(testing::kFig2Mimmo);
  RingBufferSink sink(4096);
  QueryEngineOptions options;
  options.num_threads = 1;
  options.trace = &sink;
  QueryEngine engine(kb, options);

  const auto answer =
      engine.Execute(SkepticalExplain("c1", "free_ticket(mimmo)"));
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->truth, TruthValue::kUndefined);

  const std::vector<TraceEvent> events = sink.Events();
  // The least-model computation and the provenance sweep were traced.
  EXPECT_EQ(CountKind(events, TraceEventKind::kFixpointDone), 1u);
  EXPECT_GT(CountKind(events, TraceEventKind::kRuleStatus), 0u);
  bool found_defeated = false;
  for (const TraceEvent& event : events) {
    if (event.kind == TraceEventKind::kRuleStatus &&
        static_cast<RuleStatusCode>(event.a) == RuleStatusCode::kDefeated) {
      found_defeated = true;
    }
  }
  EXPECT_TRUE(found_defeated);

  // A second identical query hits the model cache: no second fixpoint
  // computation happens.
  const auto again =
      engine.Execute(SkepticalExplain("c1", "free_ticket(mimmo)"));
  ASSERT_TRUE(again.ok());
  const std::vector<TraceEvent> after = sink.Events();
  EXPECT_EQ(CountKind(after, TraceEventKind::kFixpointDone), 1u);
}

TEST(EngineTraceTest, PhaseTimingsAccumulateInMetrics) {
  KnowledgeBase kb = LoadedKb(testing::kFig1Penguin);
  QueryEngine engine(kb, QueryEngineOptions{.num_threads = 1});

  const auto answer = engine.Execute(SkepticalExplain("c1", "fly(penguin)"));
  ASSERT_TRUE(answer.ok());
  // Phases are contiguous slices of the query, so they sum to at most the
  // total latency.
  const MetricsSnapshot metrics = engine.Metrics();
  uint64_t total = 0;
  for (const uint64_t us : metrics.phase_us) total += us;
  EXPECT_LE(total, static_cast<uint64_t>(answer->latency.count()));
  EXPECT_EQ(metrics.queries_served, 1u);
  EXPECT_NE(metrics.ToString().find("phase_us{"), std::string::npos);
}

TEST(EngineTraceTest, PhaseSpansAndPhaseMetricsShareOneClock) {
  KnowledgeBase kb = LoadedKb(testing::kFig2Mimmo);
  QueryEngineOptions options;
  options.num_threads = 1;
  options.spans.enabled = true;
  options.spans.sample_probability = 1.0;
  QueryEngine engine(kb, options);

  // Twice: a cold query (reground + fixpoint) and a cached one.
  for (int round = 0; round < 2; ++round) {
    const MetricsSnapshot before = engine.Metrics();
    const auto answer =
        engine.Execute(SkepticalExplain("c1", "free_ticket(mimmo)"));
    ASSERT_TRUE(answer.ok());
    const MetricsSnapshot after = engine.Metrics();
    ASSERT_NE(answer->trace_id, 0u);
    const std::optional<TraceRecord> trace =
        engine.trace_store()->Find(answer->trace_id);
    ASSERT_TRUE(trace.has_value());

    const Span* query_span = nullptr;
    for (const Span& span : trace->spans) {
      if (span.name == "query") query_span = &span;
    }
    ASSERT_NE(query_span, nullptr);
    // Phases tile the query: the first opens where the query opens and
    // each next one where the previous closed (offsets are truncated to
    // whole microseconds separately, hence the 1 us slack).
    uint64_t phase_start = query_span->start_us;
    for (size_t phase = 0; phase < kNumQueryPhases; ++phase) {
      const char* name = QueryPhaseCodeName(static_cast<QueryPhaseCode>(phase));
      const Span* phase_span = nullptr;
      for (const Span& span : trace->spans) {
        if (span.name == name) phase_span = &span;
      }
      ASSERT_NE(phase_span, nullptr) << name;
      EXPECT_EQ(phase_span->parent_id, query_span->span_id) << name;
      EXPECT_GE(phase_span->start_us, phase_start) << name;
      EXPECT_LE(phase_span->start_us, phase_start + 1) << name;
      phase_start = phase_span->start_us + phase_span->duration_us;
      // The span and ordlog_query_phase_us{phase} read the same clock.
      EXPECT_EQ(phase_span->duration_us,
                after.phase_us[phase] - before.phase_us[phase])
          << name << " in round " << round;
    }
    EXPECT_LE(phase_start, query_span->start_us + query_span->duration_us + 1);
  }
}

TEST(EngineTraceTest, SolverEventsFlowThroughStableQueries) {
  KnowledgeBase kb = LoadedKb(testing::kExample5P5);
  RingBufferSink sink(8192);
  QueryEngineOptions options;
  options.num_threads = 1;
  options.trace = &sink;
  QueryEngine engine(kb, options);

  QueryRequest request;
  request.module = "c1";
  request.mode = QueryMode::kCountModels;
  const auto answer = engine.Execute(std::move(request));
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->model_count, 2u);

  const std::vector<TraceEvent> events = sink.Events();
  EXPECT_GT(CountKind(events, TraceEventKind::kSolverBranch), 0u);
  EXPECT_GT(CountKind(events, TraceEventKind::kSolverLeaf), 0u);
  EXPECT_GT(CountKind(events, TraceEventKind::kSolverBacktrack), 0u);
}

}  // namespace
}  // namespace ordlog

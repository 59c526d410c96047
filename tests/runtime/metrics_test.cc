// Tests for the QueryEngine's metrics: the MetricsSnapshot helpers, the
// snapshot read straight off the engine's registry instruments and
// ModelCache::stats(), and the /metricsz exposition of every engine family
// documented in docs/OBSERVABILITY.md.

#include <chrono>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "kb/knowledge_base.h"
#include "kb/mutation.h"
#include "runtime/query_engine.h"
#include "support/paper_programs.h"

namespace ordlog {
namespace {

QueryRequest Query(QueryMode mode, std::string_view literal) {
  QueryRequest request;
  request.module = "c1";
  request.literal = std::string(literal);
  request.mode = mode;
  return request;
}

// Drives `engine` (over kExample5P5) through two served skeptical queries
// (a miss, then a hit), a served count_models query, a cancelled query,
// and a deadline-exceeded query.
void ServeCancelAndExpire(QueryEngine& engine) {
  ASSERT_TRUE(engine.Execute(Query(QueryMode::kSkeptical, "a")).ok());
  ASSERT_TRUE(engine.Execute(Query(QueryMode::kSkeptical, "a")).ok());
  const auto count = engine.Execute(Query(QueryMode::kCountModels, ""));
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->model_count, 2u);

  QueryRequest cancelled = Query(QueryMode::kSkeptical, "b");
  cancelled.cancel.Cancel();
  const auto cancelled_answer = engine.Execute(std::move(cancelled));
  ASSERT_FALSE(cancelled_answer.ok());
  EXPECT_EQ(cancelled_answer.status().code(), StatusCode::kCancelled);

  QueryRequest expired = Query(QueryMode::kSkeptical, "b");
  expired.deadline = std::chrono::milliseconds(0);
  const auto expired_answer = engine.Execute(std::move(expired));
  ASSERT_FALSE(expired_answer.ok());
  EXPECT_EQ(expired_answer.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(MetricsSnapshotTest, RateHelpers) {
  MetricsSnapshot snapshot;
  // Empty snapshot: both rates are defined as zero.
  EXPECT_DOUBLE_EQ(snapshot.cache_hit_rate(), 0.0);
  EXPECT_DOUBLE_EQ(snapshot.failure_rate(), 0.0);

  snapshot.cache_hits = 3;
  snapshot.cache_misses = 1;
  snapshot.queries_served = 1;
  snapshot.queries_failed = 1;
  EXPECT_DOUBLE_EQ(snapshot.cache_hit_rate(), 0.75);
  EXPECT_DOUBLE_EQ(snapshot.failure_rate(), 0.5);
}

TEST(MetricsSnapshotTest, ToStringPrintsRates) {
  MetricsSnapshot snapshot;
  snapshot.cache_hits = 3;
  snapshot.cache_misses = 1;
  snapshot.queries_served = 1;
  snapshot.queries_failed = 1;
  const std::string text = snapshot.ToString();
  EXPECT_NE(text.find("hit_rate=0.75"), std::string::npos) << text;
  EXPECT_NE(text.find("failure_rate=0.50"), std::string::npos) << text;
}

TEST(EngineMetricsTest, SnapshotReflectsQueriesAndMutations) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.Load(testing::kExample5P5).ok());
  QueryEngineOptions options;
  options.num_threads = 1;
  QueryEngine engine(kb, options);
  ServeCancelAndExpire(engine);
  ASSERT_TRUE(engine.ApplyMutation(Mutation().AddFact("c2", "d")).ok());

  const MetricsSnapshot snapshot = engine.Metrics();
  EXPECT_EQ(snapshot.queries_served, 3u);
  EXPECT_EQ(snapshot.queries_failed, 2u);
  EXPECT_EQ(snapshot.cancellations, 1u);
  EXPECT_EQ(snapshot.deadline_exceeded, 1u);
  // Skeptical miss, skeptical hit, stable miss whose least-model prefix
  // is a hit.
  EXPECT_EQ(snapshot.cache_misses, 2u);
  EXPECT_EQ(snapshot.cache_hits, 2u);
  EXPECT_EQ(snapshot.mutations, 1u);
  EXPECT_EQ(snapshot.snapshots_built, 1u);
  EXPECT_GT(snapshot.solver_nodes, 0u);
  EXPECT_EQ(snapshot.latency_count, 3u);
  EXPECT_GT(snapshot.latency_p99_us, 0u);
}

TEST(EngineMetricsTest, SnapshotReadsTheExposedInstruments) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.Load(testing::kExample5P5).ok());
  QueryEngineOptions options;
  options.num_threads = 1;
  QueryEngine engine(kb, options);
  ASSERT_TRUE(engine.Execute(Query(QueryMode::kSkeptical, "a")).ok());

  const std::string text = engine.Registry().RenderPrometheus();
  EXPECT_NE(text.find("ordlog_queries_total{status=\"served\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ordlog_cache_requests_total{outcome=\"miss\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("ordlog_query_latency_us_count 1"), std::string::npos);
  EXPECT_EQ(engine.Metrics().queries_served, 1u);
  EXPECT_EQ(engine.Metrics().cache_misses, 1u);
}

// One documented engine family: its exposition type and a series prefix
// that pins its label names (and, where the scenario fixes it, a value).
struct FamilyExpectation {
  const char* name;
  const char* type;
  std::vector<const char*> series;
};

TEST(EngineMetricsTest, EveryDocumentedFamilyRendersAfterMixedOutcomes) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.Load(testing::kExample5P5).ok());
  QueryEngineOptions options;
  options.num_threads = 1;
  options.spans.enabled = true;
  options.spans.sample_probability = 1.0;
  QueryEngine engine(kb, options);
  ServeCancelAndExpire(engine);
  ASSERT_TRUE(engine.ApplyMutation(Mutation().AddFact("c2", "d")).ok());

  // The engine rows of the metric inventory in docs/OBSERVABILITY.md.
  const std::vector<FamilyExpectation> families = {
      {"ordlog_queries_total",
       "counter",
       {"ordlog_queries_total{status=\"served\"} 3\n",
        "ordlog_queries_total{status=\"failed\"} 2\n",
        "ordlog_queries_total{status=\"cancelled\"} 1\n",
        "ordlog_queries_total{status=\"deadline_exceeded\"} 1\n"}},
      {"ordlog_cache_requests_total",
       "counter",
       {"ordlog_cache_requests_total{outcome=\"hit\"} 2\n",
        "ordlog_cache_requests_total{outcome=\"miss\"} 2\n",
        "ordlog_cache_requests_total{outcome=\"coalesced\"} 0\n"}},
      {"ordlog_cache_evictions_total", "counter",
       {"ordlog_cache_evictions_total "}},
      {"ordlog_mutations_total", "counter", {"ordlog_mutations_total 1\n"}},
      {"ordlog_snapshots_total", "counter", {"ordlog_snapshots_total 1\n"}},
      {"ordlog_solver_nodes_total", "counter", {"ordlog_solver_nodes_total "}},
      {"ordlog_query_phase_us",
       "counter",
       {"ordlog_query_phase_us{phase=\"snapshot\"} ",
        "ordlog_query_phase_us{phase=\"resolve\"} ",
        "ordlog_query_phase_us{phase=\"solve\"} ",
        "ordlog_query_phase_us{phase=\"explain\"} "}},
      {"ordlog_query_latency_us", "histogram",
       {"ordlog_query_latency_us_count 3\n", "ordlog_query_latency_us_sum "}},
      {"ordlog_rule_status_total", "counter",
       {"ordlog_rule_status_total{component=\"c1\",status=\""}},
      {"ordlog_solver_search_total", "counter",
       {"ordlog_solver_search_total{component=\"c1\",event=\""}},
      {"ordlog_solver_parallel_subtrees_total", "counter",
       {"ordlog_solver_parallel_subtrees_total "}},
      {"ordlog_solver_parallel_steals_total", "counter",
       {"ordlog_solver_parallel_steals_total "}},
      {"ordlog_solver_parallel_cancelled_total", "counter",
       {"ordlog_solver_parallel_cancelled_total "}},
      {"ordlog_batch_prefix_total", "counter",
       {"ordlog_batch_prefix_total{kind=\"shared\"} 1\n"}},
      {"ordlog_ground_rules_total", "counter",
       {"ordlog_ground_rules_total{kind=\"emitted\"} ",
        "ordlog_ground_rules_total{kind=\"matched\"} "}},
      {"ordlog_ground_index_probes_total", "counter",
       {"ordlog_ground_index_probes_total "}},
      {"ordlog_slow_queries_total", "counter",
       {"ordlog_slow_queries_total 0\n"}},
      {"ordlog_kb_revision", "gauge", {"ordlog_kb_revision "}},
      {"ordlog_incremental_reuse_total", "counter",
       {"ordlog_incremental_reuse_total{kind=\""}},
      {"ordlog_incremental_delta_rules_total", "counter",
       {"ordlog_incremental_delta_rules_total "}},
      {"ordlog_incremental_delta_atoms_total", "counter",
       {"ordlog_incremental_delta_atoms_total "}},
      {"ordlog_eval_rounds_total", "counter", {"ordlog_eval_rounds_total "}},
      {"ordlog_eval_delta_tuples_total", "counter",
       {"ordlog_eval_delta_tuples_total "}},
      {"ordlog_eval_fused_total", "counter", {"ordlog_eval_fused_total "}},
      // Every query is head-sampled; the two failed ones commit too.
      {"ordlog_span_traces_total", "counter",
       {"ordlog_span_traces_total{reason=\"sampled\"} 5\n"}},
      {"ordlog_span_spans_total", "counter", {"ordlog_span_spans_total "}},
  };

  const std::string text = engine.Registry().RenderPrometheus();
  for (const FamilyExpectation& family : families) {
    EXPECT_NE(text.find(std::string("# TYPE ") + family.name + " " +
                        family.type + "\n"),
              std::string::npos)
        << family.name << "\n"
        << text;
    for (const char* series : family.series) {
      EXPECT_NE(text.find(series), std::string::npos)
          << series << "\n"
          << text;
    }
  }
}

}  // namespace
}  // namespace ordlog

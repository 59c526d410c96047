// QueryEngine::ApplyMutation: cache promotion for unaffected views,
// warm-started fixpoints for affected ones, the reuse metrics, and
// mutations racing in-flight queries (cancellation + single-flight, and a
// query that keeps its revision's shared ground program across a patch).

#include "runtime/query_engine.h"

#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "trace/sink.h"

namespace ordlog {
namespace {

using std::chrono::milliseconds;

QueryEngineOptions Threads(size_t n) {
  QueryEngineOptions options;
  options.num_threads = n;
  return options;
}

QueryRequest Request(std::string module, std::string literal) {
  QueryRequest request;
  request.module = std::move(module);
  request.literal = std::move(literal);
  return request;
}

// Parks the first fixpoint round that reaches it until Release().
class GateSink final : public TraceSink {
 public:
  void Emit(const TraceEvent& event) override {
    if (event.kind != TraceEventKind::kFixpointRound) return;
    if (armed_.exchange(false)) {
      entered_.count_down();
      released_.wait();
    }
  }
  void AwaitEntered() { entered_.wait(); }
  void Release() { released_.count_down(); }

 private:
  std::atomic<bool> armed_{true};
  std::latch entered_{1};
  std::latch released_{1};
};

uint64_t ReuseCount(QueryEngine& engine, std::string_view kind) {
  return engine.Registry()
      .GetCounterFamily("ordlog_incremental_reuse_total", "", {"kind"})
      .WithLabels(kind)
      .Value();
}

TEST(EngineIncrementalTest, MutationPromotesUnaffectedViewsAcrossRevisions) {
  KnowledgeBase kb;
  // `stable` and `hot` are order-incomparable: mutating `hot` cannot
  // change anything `stable` sees.
  ASSERT_TRUE(kb.Load(R"(
    component stable { s(a). more(X) :- s(X). }
    component hot { h(a). }
  )")
                  .ok());
  QueryEngine engine(kb, Threads(2));

  // Populate the cache for both views at the initial revision.
  const StatusOr<QueryAnswer> cold = engine.Execute(Request("stable", "more(a)"));
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(cold->truth, TruthValue::kTrue);
  ASSERT_TRUE(engine.Execute(Request("hot", "h(a)")).ok());

  // The new fact reuses the existing constant `a`: the universe does not
  // grow, so no pre-existing rule gains instances and only `hot` is
  // touched. (A fresh constant would conservatively touch every component
  // with variable rules via the pivot passes.)
  Mutation mutation;
  mutation.AddFact("hot", "h2(a)");
  const StatusOr<MutationReport> report = engine.ApplyMutation(mutation);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(report->incremental) << report->fallback_reason;
  EXPECT_EQ(report->new_constants, 0u);
  EXPECT_EQ(ReuseCount(engine, "delta_ground"), 1u);
  EXPECT_GE(ReuseCount(engine, "cache_promoted"), 1u);
  EXPECT_GT(engine.Registry()
                .GetCounterFamily("ordlog_incremental_delta_rules_total", "")
                .WithLabels()
                .Value(),
            0u);

  // The unaffected view answers from the promoted entry: a cache hit at
  // the *new* revision, no recomputation.
  const StatusOr<QueryAnswer> promoted =
      engine.Execute(Request("stable", "more(a)"));
  ASSERT_TRUE(promoted.ok()) << promoted.status();
  EXPECT_EQ(promoted->truth, TruthValue::kTrue);
  EXPECT_TRUE(promoted->cache_hit);
  EXPECT_EQ(promoted->revision, report->revision);
  // The mutated view sees the new fact.
  EXPECT_EQ(engine.QuerySkeptical("hot", "h2(a)").value(), TruthValue::kTrue);
}

TEST(EngineIncrementalTest, AffectedViewWarmStartsFromThePreviousModel) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.Load(R"(
    component m {
      base(a).
      derived(X) :- base(X).
      unrelated(c).
    }
  )")
                  .ok());
  QueryEngine engine(kb, Threads(2));
  ASSERT_TRUE(engine.Execute(Request("m", "derived(a)")).ok());
  EXPECT_EQ(ReuseCount(engine, "warm_start"), 0u);

  Mutation mutation;
  mutation.AddFact("m", "base(b)");
  const StatusOr<MutationReport> report = engine.ApplyMutation(mutation);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(report->incremental) << report->fallback_reason;

  const StatusOr<QueryAnswer> warm = engine.Execute(Request("m", "derived(b)"));
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_EQ(warm->truth, TruthValue::kTrue);
  EXPECT_FALSE(warm->cache_hit);  // recomputed — but from the parked seed
  EXPECT_EQ(ReuseCount(engine, "warm_start"), 1u);
  EXPECT_EQ(engine.QuerySkeptical("m", "unrelated(c)").value(),
            TruthValue::kTrue);

  // The seed is consumed: a second mutation-free computation (fresh view
  // of the same revision after a cache wipe cannot happen here, so just
  // check the counter stays put across more queries).
  ASSERT_TRUE(engine.Execute(Request("m", "derived(a)")).ok());
  EXPECT_EQ(ReuseCount(engine, "warm_start"), 1u);
}

TEST(EngineIncrementalTest, FullFallbackClearsSeedsAndStillAnswers) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.Load("component m { p(a). q(X) :- p(X). }").ok());
  QueryEngine engine(kb, Threads(2));
  ASSERT_TRUE(engine.Execute(Request("m", "q(a)")).ok());

  Mutation mutation;
  mutation.RetractFact("m", "p(a)").AddFact("m", "p(b)");
  const StatusOr<MutationReport> report = engine.ApplyMutation(mutation);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->incremental);
  EXPECT_EQ(ReuseCount(engine, "full_fallback"), 1u);

  EXPECT_EQ(engine.QuerySkeptical("m", "q(a)").value(),
            TruthValue::kUndefined);
  EXPECT_EQ(engine.QuerySkeptical("m", "q(b)").value(), TruthValue::kTrue);
}

TEST(EngineIncrementalTest, StaleSeedsNeverSurviveARenumberingMutation) {
  // Regression: a warm-start seed parked by one mutation must not leak
  // into a later full reground, whose atom renumbering would make the
  // seed's ids dangle. The evaluators now reject out-of-range seeds with
  // kInvalidArgument (and the engine falls back to a cold fixpoint), so
  // even a leaked seed cannot corrupt memory — but the engine must never
  // surface that error to the caller.
  KnowledgeBase kb;
  ASSERT_TRUE(kb.Load(R"(
    component m {
      p(a). p(b). p(c).
      q(X) :- p(X).
      r(X, Y) :- p(X), p(Y).
    }
  )")
                  .ok());
  QueryEngine engine(kb, Threads(2));
  ASSERT_TRUE(engine.Execute(Request("m", "q(a)")).ok());

  // Parks a warm seed for `m` (incremental path) — deliberately not
  // consumed before the next mutation.
  Mutation grow;
  grow.AddFact("m", "p(a)");  // no-op fact, but bumps the revision
  const StatusOr<MutationReport> first = engine.ApplyMutation(grow);
  ASSERT_TRUE(first.ok()) << first.status();

  // Retraction → full fallback → reground: the constant `c` disappears,
  // the atom universe shrinks, and every surviving atom is renumbered.
  Mutation shrink;
  shrink.RetractFact("m", "p(c)");
  const StatusOr<MutationReport> second = engine.ApplyMutation(shrink);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_FALSE(second->incremental);

  EXPECT_EQ(engine.QuerySkeptical("m", "q(a)").value(), TruthValue::kTrue);
  EXPECT_EQ(engine.QuerySkeptical("m", "q(c)").value(),
            TruthValue::kUndefined);
  EXPECT_EQ(engine.QuerySkeptical("m", "r(a, b)").value(), TruthValue::kTrue);
}

TEST(EngineIncrementalTest, AssertThenRetractAnswersAcrossMutations) {
  // The whole mutate → re-ground → warm-start → query cycle: an
  // incremental assert followed by a retraction (a full reground), with
  // answers checked at every revision.
  KnowledgeBase kb;
  ASSERT_TRUE(kb.Load(R"(
    component m {
      edge(a, b). edge(b, c).
      path(X, Y) :- edge(X, Y).
      path(X, Z) :- edge(X, Y), path(Y, Z).
    }
  )")
                  .ok());
  QueryEngine engine(kb, Threads(2));
  EXPECT_EQ(engine.QuerySkeptical("m", "path(a, c)").value(),
            TruthValue::kTrue);

  Mutation mutation;
  mutation.AddFact("m", "edge(c, d)");
  const StatusOr<MutationReport> report = engine.ApplyMutation(mutation);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->incremental) << report->fallback_reason;
  EXPECT_EQ(engine.QuerySkeptical("m", "path(a, d)").value(),
            TruthValue::kTrue);

  Mutation retract;
  retract.RetractFact("m", "edge(a, b)");
  ASSERT_TRUE(engine.ApplyMutation(retract).ok());
  EXPECT_EQ(engine.QuerySkeptical("m", "path(a, d)").value(),
            TruthValue::kUndefined);
  EXPECT_EQ(engine.QuerySkeptical("m", "path(b, d)").value(),
            TruthValue::kTrue);
}

TEST(EngineIncrementalTest, MutationDuringInFlightQueries) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.Load(R"(
    component m {
      edge(a, b). edge(b, c). edge(c, d). edge(d, e).
      path(X, Y) :- edge(X, Y).
      path(X, Z) :- edge(X, Y), path(Y, Z).
    }
  )")
                  .ok());
  QueryEngine engine(kb, Threads(2));
  ASSERT_TRUE(engine.Execute(Request("m", "path(a, e)")).ok());

  // A storm of identical queries racing a mutation: every future must
  // resolve (ok at the old or new revision, or a fast deadline failure for
  // the pre-expired ones), and single-flight means each (revision, view)
  // is computed at most once — the warm seed can only ever be consumed by
  // one of them.
  std::vector<std::future<StatusOr<QueryAnswer>>> futures;
  for (int i = 0; i < 12; ++i) {
    QueryRequest request = Request("m", "path(a, e)");
    if (i % 4 == 3) request.deadline = milliseconds(0);  // pre-expired
    futures.push_back(engine.Submit(std::move(request)));
  }
  Mutation mutation;
  mutation.AddFact("m", "edge(e, f)");
  const StatusOr<MutationReport> report = engine.ApplyMutation(mutation);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(report->incremental) << report->fallback_reason;

  for (auto& future : futures) {
    const StatusOr<QueryAnswer> answer = future.get();
    if (answer.ok()) {
      EXPECT_EQ(answer->truth, TruthValue::kTrue);
    } else {
      EXPECT_TRUE(answer.status().code() == StatusCode::kDeadlineExceeded ||
                  answer.status().code() == StatusCode::kCancelled)
          << answer.status();
    }
  }
  EXPECT_LE(ReuseCount(engine, "warm_start"), 1u);

  // Post-mutation queries see the new fact at the new revision.
  const StatusOr<QueryAnswer> after =
      engine.Execute(Request("m", "path(a, f)"));
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->truth, TruthValue::kTrue);
  EXPECT_EQ(after->revision, report->revision);
  EXPECT_EQ(engine.revision(), report->revision);
}

TEST(EngineIncrementalTest, InFlightQueryAnswersAtItsRevisionAcrossAPatch) {
  KnowledgeBase kb;
  // `b` is in the universe, so q(b) is a ground atom at every revision:
  // undefined until p(b) is asserted.
  ASSERT_TRUE(kb.Load("component m { p(a). r(b). q(X) :- p(X). }").ok());
  GateSink gate;
  QueryEngineOptions options = Threads(2);
  options.trace = &gate;
  QueryEngine engine(kb, options);
  const uint64_t revision_n = engine.revision();

  // A cache miss at revision N, parked inside its fixpoint while it holds
  // N's ground program.
  std::future<StatusOr<QueryAnswer>> in_flight =
      engine.Submit(Request("m", "q(b)"));
  gate.AwaitEntered();
  const GroundProgram* program_n = kb.shared_ground().get();
  ASSERT_NE(program_n, nullptr);
  const size_t rules_n = program_n->NumRules();

  const StatusOr<MutationReport> report =
      engine.ApplyMutation(Mutation().AddFact("m", "p(b)"));
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(report->incremental) << report->fallback_reason;
  // The held program was copied, not patched.
  EXPECT_NE(kb.shared_ground().get(), program_n);
  EXPECT_EQ(program_n->NumRules(), rules_n);

  gate.Release();
  const StatusOr<QueryAnswer> old_answer = in_flight.get();
  ASSERT_TRUE(old_answer.ok()) << old_answer.status();
  EXPECT_EQ(old_answer->revision, revision_n);
  EXPECT_EQ(old_answer->truth, TruthValue::kUndefined);

  const StatusOr<QueryAnswer> new_answer = engine.Execute(Request("m", "q(b)"));
  ASSERT_TRUE(new_answer.ok()) << new_answer.status();
  EXPECT_EQ(new_answer->revision, report->revision);
  EXPECT_EQ(new_answer->truth, TruthValue::kTrue);
}

}  // namespace
}  // namespace ordlog

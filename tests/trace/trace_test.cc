// Unit tests for the structured tracing layer (src/trace) and the
// instrumentation hooks in the semantics core.

#include <sstream>

#include "gtest/gtest.h"

#include "core/least_model.h"
#include "core/rule_status.h"
#include "core/stable_solver.h"
#include "core/v_operator.h"
#include "support/paper_programs.h"
#include "support/test_util.h"
#include "trace/json.h"
#include "trace/sink.h"

namespace ordlog {
namespace {

using ::ordlog::testing::GroundText;

ComponentId FindView(const GroundProgram& program, std::string_view name) {
  for (ComponentId c = 0;
       c < static_cast<ComponentId>(program.NumComponents()); ++c) {
    if (program.component_name(c) == name) return c;
  }
  ADD_FAILURE() << "no component named " << name;
  return 0;
}

TEST(JsonTest, QuoteEscapes) {
  EXPECT_EQ(JsonQuote("plain"), "\"plain\"");
  EXPECT_EQ(JsonQuote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(JsonQuote("back\\slash"), "\"back\\\\slash\"");
  EXPECT_EQ(JsonQuote("line\nbreak"), "\"line\\nbreak\"");
  EXPECT_EQ(JsonQuote(std::string_view("\x01", 1)), "\"\\u0001\"");
}

TEST(EventTest, Names) {
  EXPECT_STREQ(TraceEventKindName(TraceEventKind::kFixpointRound),
               "fixpoint_round");
  EXPECT_STREQ(TraceEventKindName(TraceEventKind::kSolverBacktrack),
               "solver_backtrack");
  EXPECT_STREQ(TraceEventKindName(TraceEventKind::kDeltaGround),
               "delta_ground");
  EXPECT_STREQ(RuleStatusCodeName(RuleStatusCode::kOverruled), "overruled");
  EXPECT_STREQ(RuleStatusCodeName(RuleStatusCode::kNotApplicable),
               "not_applicable");
}

TEST(EventTest, ToJsonStableShapes) {
  TraceEvent round;
  round.kind = TraceEventKind::kFixpointRound;
  round.component = 2;
  round.a = 3;
  round.b = 10;
  round.c = 4;
  EXPECT_EQ(TraceEventToJson(round),
            "{\"event\":\"fixpoint_round\",\"round\":3,\"size\":10,"
            "\"delta\":4}");

  TraceEvent status;
  status.kind = TraceEventKind::kRuleStatus;
  status.rule = 5;
  status.component = 1;
  status.a = static_cast<uint64_t>(RuleStatusCode::kDefeated);
  status.other_rule = 7;
  status.other_component = 2;
  EXPECT_EQ(TraceEventToJson(status),
            "{\"event\":\"rule_status\",\"rule\":5,\"status\":\"defeated\","
            "\"component\":1,\"by_rule\":7,\"by_component\":2}");

  TraceEvent branch;
  branch.kind = TraceEventKind::kSolverBranch;
  branch.node = 9;
  branch.a = 4;
  branch.b = 2;
  branch.c = 1;
  EXPECT_EQ(TraceEventToJson(branch),
            "{\"event\":\"solver_branch\",\"node\":9,\"atom\":4,\"value\":2,"
            "\"depth\":1}");

  TraceEvent delta;
  delta.kind = TraceEventKind::kDeltaGround;
  delta.component = 1;
  delta.a = 6;
  delta.b = 3;
  delta.c = 2;
  delta.duration_us = 123;
  EXPECT_EQ(TraceEventToJson(delta),
            "{\"event\":\"delta_ground\",\"component\":1,\"rules\":6,"
            "\"atoms\":3,\"new_terms\":2,\"duration_us\":123}");
}

TEST(NullSinkTest, DiscardsEvents) {
  NullSink sink;
  TraceEvent event;
  sink.Emit(event);  // must not crash; nothing observable
}

TEST(RingBufferSinkTest, RetainsMostRecent) {
  RingBufferSink sink(3);
  for (uint64_t i = 0; i < 5; ++i) {
    TraceEvent event;
    event.kind = TraceEventKind::kRuleFired;
    event.a = i;
    sink.Emit(event);
  }
  EXPECT_EQ(sink.total_emitted(), 5u);
  EXPECT_EQ(sink.size(), 3u);
  const std::vector<TraceEvent> events = sink.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].a, 2u);  // oldest retained
  EXPECT_EQ(events[1].a, 3u);
  EXPECT_EQ(events[2].a, 4u);

  sink.Clear();
  EXPECT_EQ(sink.total_emitted(), 0u);
  EXPECT_EQ(sink.size(), 0u);
}

TEST(JsonLinesSinkTest, OneJsonObjectPerLine) {
  std::ostringstream out;
  JsonLinesSink sink(out);
  TraceEvent event;
  event.kind = TraceEventKind::kGroundDone;
  event.a = 9;
  event.b = 6;
  event.duration_us = 42;
  sink.Emit(event);
  sink.Emit(event);
  EXPECT_EQ(sink.lines_written(), 2u);
  const std::string expected = TraceEventToJson(event) + "\n";
  EXPECT_EQ(out.str(), expected + expected);
}

TEST(FixpointTraceTest, VOperatorEmitsRoundsAndDone) {
  const GroundProgram program = GroundText(testing::kFig1Penguin);
  const ComponentId view = FindView(program, "c1");
  VOperator v(program, view);
  RingBufferSink sink(64);
  v.set_trace(&sink);
  const Interpretation model = v.LeastFixpoint();

  const std::vector<TraceEvent> events = sink.Events();
  ASSERT_FALSE(events.empty());
  size_t rounds = 0;
  uint64_t last_size = 0;
  for (size_t i = 0; i + 1 < events.size(); ++i) {
    ASSERT_EQ(events[i].kind, TraceEventKind::kFixpointRound);
    EXPECT_EQ(events[i].a, i + 1);          // 1-based round number
    EXPECT_GE(events[i].b, last_size);      // chain is increasing
    last_size = events[i].b;
    ++rounds;
  }
  const TraceEvent& done = events.back();
  ASSERT_EQ(done.kind, TraceEventKind::kFixpointDone);
  EXPECT_EQ(done.a, rounds);
  EXPECT_EQ(done.b, model.NumAssigned());
}

TEST(FixpointTraceTest, LeastModelComputerEmitsFirings) {
  const GroundProgram program = GroundText(testing::kFig1Penguin);
  const ComponentId view = FindView(program, "c1");
  LeastModelComputer computer(program, view);
  RingBufferSink sink(256);
  computer.set_trace(&sink);
  const Interpretation model = computer.Compute();

  const std::vector<TraceEvent> events = sink.Events();
  ASSERT_FALSE(events.empty());
  const TraceEvent& done = events.back();
  ASSERT_EQ(done.kind, TraceEventKind::kFixpointDone);
  EXPECT_EQ(done.b, model.NumAssigned());
  size_t firings = 0;
  for (const TraceEvent& event : events) {
    if (event.kind == TraceEventKind::kRuleFired) ++firings;
  }
  EXPECT_EQ(done.a, firings);
  // Every derived literal is the head of some fired rule.
  EXPECT_GE(firings, model.NumAssigned());
}

TEST(RuleStatusTraceTest, EmitsStatusWithSilencerPair) {
  const GroundProgram program = GroundText(testing::kFig1Penguin);
  const ComponentId view = FindView(program, "c1");
  const ComponentId c2 = FindView(program, "c2");
  const Interpretation model = ComputeLeastModel(program, view);
  RingBufferSink sink(64);
  EmitRuleStatuses(program, view, model, &sink);

  const std::vector<TraceEvent> events = sink.Events();
  ASSERT_EQ(events.size(), program.ViewRules(view).size());
  bool found_overruled = false;
  for (const TraceEvent& event : events) {
    ASSERT_EQ(event.kind, TraceEventKind::kRuleStatus);
    if (static_cast<RuleStatusCode>(event.a) == RuleStatusCode::kOverruled) {
      // fly(penguin) :- bird(penguin) [c2] is overruled by
      // -fly(penguin) :- ground_animal(penguin) [c1].
      EXPECT_EQ(event.component, c2);
      EXPECT_EQ(event.other_component, view);
      EXPECT_NE(event.rule, event.other_rule);
      found_overruled = true;
    }
  }
  EXPECT_TRUE(found_overruled);

  // A null sink is a no-op, not an error.
  EmitRuleStatuses(program, view, model, nullptr);
}

TEST(RuleStatusTraceTest, DefeatedPairOnFig2) {
  const GroundProgram program = GroundText(testing::kFig2Mimmo);
  const ComponentId view = FindView(program, "c1");
  const Interpretation model = ComputeLeastModel(program, view);
  RingBufferSink sink(64);
  EmitRuleStatuses(program, view, model, &sink);

  size_t defeated = 0;
  for (const TraceEvent& event : sink.Events()) {
    if (static_cast<RuleStatusCode>(event.a) == RuleStatusCode::kDefeated) {
      // Defeating is mutual between incomparable components.
      EXPECT_TRUE(program.Incomparable(event.component,
                                       event.other_component) ||
                  event.component == event.other_component);
      ++defeated;
    }
  }
  // rich(mimmo) / -rich and poor(mimmo) / -poor all defeat each other.
  EXPECT_GE(defeated, 4u);
}

TEST(SolverTraceTest, BranchLeafBacktrackOnExample5) {
  const GroundProgram program = GroundText(testing::kExample5P5);
  const ComponentId view = FindView(program, "c1");
  RingBufferSink sink(1024);
  StableSolverOptions options;
  options.trace = &sink;
  StableModelSolver solver(program, view, options);
  const auto models = solver.StableModels();
  ASSERT_TRUE(models.ok());
  EXPECT_EQ(models->size(), 2u);

  size_t branches = 0, accepted = 0, backtracks = 0;
  for (const TraceEvent& event : sink.Events()) {
    switch (event.kind) {
      case TraceEventKind::kSolverBranch:
        EXPECT_GE(event.node, 1u);
        ++branches;
        break;
      case TraceEventKind::kSolverLeaf:
        if (event.a == 1) ++accepted;
        break;
      case TraceEventKind::kSolverBacktrack:
        ++backtracks;
        break;
      default:
        break;
    }
  }
  EXPECT_GT(branches, 0u);
  EXPECT_GT(backtracks, 0u);
  // Assumption-free models ⊇ stable models.
  EXPECT_GE(accepted, 2u);
}

}  // namespace
}  // namespace ordlog

// The semi-naive, set-at-a-time evaluator must agree literal-for-literal
// with the worklist engine and the round-based V operator (all three
// compute V∞(∅), Definition 4 / Theorem 1b) — on the paper programs, on
// the .olp testdata corpus, on random ground ordered programs, and on
// grounded random non-ground Datalog programs — including
// warm-started ComputeFrom runs and cancellation (docs/EVALUATION.md).

#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>

#include "core/least_model.h"
#include "core/v_operator.h"
#include "eval/evaluator.h"
#include "eval/semi_naive.h"
#include "ground/grounder.h"
#include "gtest/gtest.h"
#include "support/paper_programs.h"
#include "support/random_programs.h"
#include "support/test_util.h"

namespace ordlog {
namespace {

using ::ordlog::testing::GroundText;
using ::ordlog::testing::MakeInterpretation;
using ::ordlog::testing::RandomDatalogOptions;
using ::ordlog::testing::RandomDatalogProgram;
using ::ordlog::testing::RandomGroundProgram;
using ::ordlog::testing::RandomProgramOptions;

// Checks worklist == semi-naive == V operator on every view of `program`,
// plus internal consistency of the semi-naive work stats.
void ExpectIdenticalModels(const GroundProgram& program,
                           const std::string& label) {
  for (ComponentId view = 0; view < program.NumComponents(); ++view) {
    const Interpretation reference =
        VOperator(program, view).LeastFixpoint();
    const Interpretation worklist = ComputeLeastModel(program, view);
    SemiNaiveEvaluator evaluator(program, view);
    const Interpretation semi_naive = evaluator.Compute();
    EXPECT_EQ(semi_naive, reference)
        << label << " view " << program.component_name(view)
        << "\nsemi-naive " << semi_naive.ToString(program) << "\nref        "
        << reference.ToString(program);
    EXPECT_EQ(semi_naive, worklist) << label << " view " << view;
    const EvalStats& stats = evaluator.last_stats();
    EXPECT_EQ(stats.delta_tuples, semi_naive.NumAssigned()) << label;
    EXPECT_EQ(stats.rounds == 0, semi_naive.Empty()) << label;
  }
}

TEST(SemiNaiveDifferentialTest, PaperPrograms) {
  for (const std::string_view source :
       {testing::kFig1Penguin, testing::kFig1Flattened, testing::kFig2Mimmo,
        testing::kFig3LoanBase, testing::kExample3P3, testing::kExample4P4,
        testing::kExample4P4Closed, testing::kExample5P5,
        testing::kExample6Ancestor, testing::kExample8Birds,
        testing::kExample9Colors}) {
    ExpectIdenticalModels(GroundText(source), std::string(source, 0, 24));
  }
}

TEST(SemiNaiveDifferentialTest, TestdataCorpus) {
  size_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(ORDLOG_TESTDATA_DIR)) {
    if (entry.path().extension() != ".olp") continue;
    std::ifstream in(entry.path());
    std::ostringstream text;
    text << in.rdbuf();
    ExpectIdenticalModels(GroundText(text.str()),
                          entry.path().filename().string());
    ++files;
  }
  EXPECT_GE(files, 4u);  // penguin, mimmo, loan, choice at minimum
}

// 100 random ordered programs, every view; the strategy dispatcher must
// route to identical results too.
class SemiNaivePropertyTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(SemiNaivePropertyTest, MatchesWorklistOnRandomPrograms) {
  std::mt19937 rng(GetParam());
  RandomProgramOptions options;
  options.num_atoms = 7;
  options.num_components = 4;
  options.num_rules = 18;
  const GroundProgram program = RandomGroundProgram(rng, options);
  ExpectIdenticalModels(program, "seed " + std::to_string(GetParam()));
  for (ComponentId view = 0; view < program.NumComponents(); ++view) {
    const Interpretation via_worklist =
        LeastModelEvaluator(program, view,
                            {.strategy = EvalStrategy::kWorklist})
            .Compute();
    const Interpretation via_semi_naive =
        LeastModelEvaluator(program, view,
                            {.strategy = EvalStrategy::kSemiNaive})
            .Compute();
    EXPECT_EQ(via_worklist, via_semi_naive)
        << "seed " << GetParam() << " view " << view;
  }
}

TEST_P(SemiNaivePropertyTest, WarmStartFromSubsetSeedMatchesColdStart) {
  std::mt19937 rng(GetParam() ^ 0x9e3779b9u);
  RandomProgramOptions options;
  options.num_atoms = 7;
  options.num_components = 4;
  options.num_rules = 18;
  const GroundProgram program = RandomGroundProgram(rng, options);
  std::bernoulli_distribution keep(0.5);
  for (ComponentId view = 0; view < program.NumComponents(); ++view) {
    const Interpretation cold = ComputeLeastModel(program, view);
    // Any subset of the least model is a sound seed (Lemma 1); draw a
    // random one, plus the two extremes.
    Interpretation subset = Interpretation::ForProgram(program);
    for (const GroundLiteral& literal : cold.Literals()) {
      if (keep(rng)) {
        ASSERT_TRUE(subset.Add(literal));
      }
    }
    const Interpretation empty = Interpretation::ForProgram(program);
    const SemiNaiveEvaluator evaluator(program, view);
    for (const Interpretation* seed :
         std::initializer_list<const Interpretation*>{&subset, &cold,
                                                      &empty}) {
      StatusOr<Interpretation> warm = evaluator.ComputeFrom(*seed, nullptr);
      ASSERT_TRUE(warm.ok()) << warm.status().ToString();
      EXPECT_EQ(*warm, cold) << "seed " << GetParam() << " view " << view;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, SemiNaivePropertyTest,
                         ::testing::Range(1u, 101u));

TEST(SemiNaiveDifferentialTest, ConflictingSeedIsRejectedLikeWorklist) {
  const GroundProgram program = GroundText(R"(
    component c { p. q :- p. }
  )");
  // {-q} contradicts the least model {p, q}: both engines must report
  // kInvalidArgument (the incremental layer then falls back to a cold
  // start).
  const Interpretation bad = MakeInterpretation(program, {"-q"});
  const StatusOr<Interpretation> semi_naive =
      SemiNaiveEvaluator(program, 0).ComputeFrom(bad, nullptr);
  ASSERT_FALSE(semi_naive.ok());
  EXPECT_EQ(semi_naive.status().code(), StatusCode::kInvalidArgument);
  const StatusOr<Interpretation> worklist =
      LeastModelComputer(program, 0).ComputeFrom(bad, nullptr);
  ASSERT_FALSE(worklist.ok());
  EXPECT_EQ(worklist.status().code(), StatusCode::kInvalidArgument);
}

TEST(SemiNaiveDifferentialTest, SeedOverSmallerAtomUniverseResumes) {
  // The incremental layer hands ComputeFrom a seed whose Interpretation
  // was sized for the pre-patch atom universe; atom ids are stable under
  // appends, so it must still resume cleanly.
  const GroundProgram program = GroundText(R"(
    component c { p0. p1 :- p0. p2 :- p1. }
  )");
  Interpretation small(1);  // only atom 0 addressable
  ASSERT_TRUE(small.Add(GroundLiteral{0, true}));
  const StatusOr<Interpretation> warm =
      SemiNaiveEvaluator(program, 0).ComputeFrom(small, nullptr);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(*warm, ComputeLeastModel(program, 0));
}

TEST(SemiNaiveDifferentialTest, CancellationAndDeadlines) {
  std::ostringstream source;
  source << "component c {\n  p0.\n";
  for (int i = 0; i < 4096; ++i) {
    source << "  p" << i + 1 << " :- p" << i << ".\n";
  }
  source << "}\n";
  const GroundProgram program = GroundText(source.str());
  const SemiNaiveEvaluator evaluator(program, 0);

  CancelToken cancelled;
  cancelled.Cancel();
  const StatusOr<Interpretation> after_cancel =
      evaluator.Compute(cancelled);
  ASSERT_FALSE(after_cancel.ok());
  EXPECT_EQ(after_cancel.status().code(), StatusCode::kCancelled);

  const CancelToken expired = CancelToken::WithDeadline(
      CancelToken::Clock::now() - std::chrono::seconds(1));
  const StatusOr<Interpretation> after_deadline =
      evaluator.Compute(expired);
  ASSERT_FALSE(after_deadline.ok());
  EXPECT_EQ(after_deadline.status().code(), StatusCode::kDeadlineExceeded);

  // An unconstrained token lets the fixpoint run to completion.
  const StatusOr<Interpretation> ok = evaluator.Compute(CancelToken());
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->NumAssigned(), 4097u);
}

// The same 100 seeds over random non-ground Datalog programs (variables,
// constants, comparison constraints), grounded and then checked like the
// ground corpus: semi-naive == worklist == V operator on every view.
TEST_P(SemiNaivePropertyTest, MatchesVOperatorOnRandomDatalogPrograms) {
  std::mt19937 rng(GetParam() ^ 0x51ed2701u);
  OrderedProgram program = RandomDatalogProgram(rng, RandomDatalogOptions{});
  ASSERT_TRUE(program.Finalize().ok());
  const StatusOr<GroundProgram> ground =
      Grounder::Ground(program, GrounderOptions{});
  ASSERT_TRUE(ground.ok()) << ground.status().ToString();
  ExpectIdenticalModels(*ground, "datalog seed " + std::to_string(GetParam()));
}

TEST(SemiNaiveDifferentialTest, OversizedSeedIsRejectedByAllEngines) {
  // A seed sized for a *larger* atom universe than the program's is
  // stale (a full reground renumbered the atoms); every engine must
  // reject it as kInvalidArgument instead of indexing out of bounds.
  const GroundProgram program = GroundText(R"(
    component c { p. q :- p. }
  )");
  Interpretation oversized(program.NumAtoms() + 8);
  ASSERT_TRUE(oversized.Add(
      GroundLiteral{static_cast<GroundAtomId>(program.NumAtoms() + 3), true}));
  const StatusOr<Interpretation> semi_naive =
      SemiNaiveEvaluator(program, 0).ComputeFrom(oversized, nullptr);
  ASSERT_FALSE(semi_naive.ok());
  EXPECT_EQ(semi_naive.status().code(), StatusCode::kInvalidArgument);
  const StatusOr<Interpretation> worklist =
      LeastModelComputer(program, 0).ComputeFrom(oversized, nullptr);
  ASSERT_FALSE(worklist.ok());
  EXPECT_EQ(worklist.status().code(), StatusCode::kInvalidArgument);
}

TEST(SemiNaiveDifferentialTest, StrategyDispatcherRoutesAndReports) {
  const GroundProgram program = GroundText(testing::kFig1Penguin);
  const LeastModelEvaluator semi(program, 0,
                                 {.strategy = EvalStrategy::kSemiNaive});
  const LeastModelEvaluator work(program, 0,
                                 {.strategy = EvalStrategy::kWorklist});
  EXPECT_EQ(semi.Compute(), work.Compute());
  EXPECT_GT(semi.last_stats().rounds, 0u);
  EXPECT_EQ(work.last_stats().rounds, 0u);  // worklist reports zeros
  EXPECT_STREQ(EvalStrategyName(semi.strategy()), "semi_naive");
  EXPECT_STREQ(EvalStrategyName(work.strategy()), "worklist");
}

}  // namespace
}  // namespace ordlog

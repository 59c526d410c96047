// Parallel stable-model search must be invisible semantically: the model
// set (and order) returned with an executor attached — any thread count —
// is identical to the sequential solver's, across the paper programs, the
// .olp testdata corpus, and a large random-program sweep; first-winner
// cancellation under max_models must never change the returned prefix;
// and cancelling a query mid-steal must tear down cleanly (TaskGroup
// join), never crash or hang. The maximality filter that runs inside the
// search (per subtree and in the ordered merge) is checked against the
// definition: BruteForceEnumerator, and a quadratic all-pairs filter over
// the assumption-free models. Runs under TSan in CI (docs/RUNTIME.md,
// "Parallel stable-model search").

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/enumerate.h"
#include "core/stable_solver.h"
#include "gtest/gtest.h"
#include "runtime/thread_pool.h"
#include "support/paper_programs.h"
#include "support/random_programs.h"
#include "support/test_util.h"

namespace ordlog {
namespace {

using ::ordlog::testing::GroundText;
using ::ordlog::testing::RandomGroundProgram;
using ::ordlog::testing::RandomInterpretation;
using ::ordlog::testing::RandomNegativeProgram;
using ::ordlog::testing::RandomProgramOptions;
using ::ordlog::testing::RandomSeminegativeProgram;
using ::ordlog::testing::Render;

// Renders models in list order (testing::Render sorts them).
std::vector<std::string> InOrder(const GroundProgram& program,
                                 const std::vector<Interpretation>& models) {
  std::vector<std::string> rendered;
  for (const Interpretation& model : models) {
    rendered.push_back(model.ToString(program));
  }
  return rendered;
}

// Reference maximality filter: every candidate that no other candidate
// strictly contains, in input order, by comparing all pairs.
std::vector<Interpretation> QuadraticMaximal(
    const std::vector<Interpretation>& candidates) {
  std::vector<Interpretation> maximal;
  for (const Interpretation& candidate : candidates) {
    bool dominated = false;
    for (const Interpretation& other : candidates) {
      if (candidate.IsProperSubsetOf(other)) dominated = true;
    }
    if (!dominated) maximal.push_back(candidate);
  }
  return maximal;
}

// The first `n` models of `models` (all of them when there are fewer).
std::vector<Interpretation> Prefix(const std::vector<Interpretation>& models,
                                   size_t n) {
  return {models.begin(),
          models.begin() + static_cast<std::ptrdiff_t>(
                               std::min(n, models.size()))};
}

// A deep two-level search workload: k independent gadgets from Example 5,
// 2^k stable models, ~3^k search nodes — enough tree for every subtree
// task to do real work.
std::string GadgetProgram(int k) {
  std::ostringstream c2, c1;
  c2 << "component c2 {\n";
  c1 << "component c1 {\n";
  for (int i = 0; i < k; ++i) {
    c2 << "  a" << i << ". b" << i << ". c" << i << ".\n";
    c1 << "  -a" << i << " :- b" << i << ", c" << i << ".\n"
       << "  -b" << i << " :- a" << i << ".\n"
       << "  -b" << i << " :- -b" << i << ".\n";
  }
  c2 << "}\n";
  c1 << "}\n";
  return c2.str() + c1.str() + "order c1 < c2.\n";
}

// Asserts that parallel search over `pool` with `threads` workers returns
// exactly the sequential result, in order, on every view of `program` —
// both the assumption-free enumeration and the stable models, which must
// equal the all-pairs maximal filter over the assumption-free models —
// and with `max_models` caps exercising first-winner cancellation.
void ExpectParallelMatchesSequential(const GroundProgram& program,
                                     ThreadPool& pool, size_t threads,
                                     const std::string& label) {
  for (ComponentId view = 0; view < program.NumComponents(); ++view) {
    StableModelSolver sequential(program, view);
    StableSolverStats seq_stats;
    const auto seq_models = sequential.AssumptionFreeModels(&seq_stats);
    ASSERT_TRUE(seq_models.ok()) << label << ": " << seq_models.status();

    StableSolverOptions options;
    options.executor = &pool;
    options.search_threads = threads;
    options.parallel_min_branch = 0;  // force the parallel path everywhere
    StableModelSolver parallel(program, view, options);
    StableSolverStats par_stats;
    const auto par_models = parallel.AssumptionFreeModels(&par_stats);
    ASSERT_TRUE(par_models.ok()) << label << ": " << par_models.status();
    EXPECT_EQ(InOrder(program, *par_models), InOrder(program, *seq_models))
        << label << " view " << program.component_name(view) << " threads "
        << threads;
    EXPECT_EQ(par_models->size(), seq_models->size()) << label;
    EXPECT_GE(par_stats.subtrees, 1u) << label << ": parallel path not taken";
    EXPECT_EQ(par_stats.leaves, seq_stats.leaves) << label;

    StableSolverStats seq_stable_stats;
    StableSolverStats par_stable_stats;
    const auto seq_stable = sequential.StableModels(&seq_stable_stats);
    const auto par_stable = parallel.StableModels(&par_stable_stats);
    ASSERT_TRUE(seq_stable.ok() && par_stable.ok()) << label;
    const std::vector<Interpretation> expected_stable =
        QuadraticMaximal(*seq_models);
    EXPECT_EQ(InOrder(program, *seq_stable),
              InOrder(program, expected_stable))
        << label << " (sequential maximal filter)";
    EXPECT_EQ(InOrder(program, *par_stable), InOrder(program, *seq_stable))
        << label << " (parallel maximal filter)";
    const size_t dominated = seq_models->size() - expected_stable.size();
    EXPECT_EQ(seq_stable_stats.dominated, dominated) << label;
    EXPECT_EQ(par_stable_stats.dominated, dominated) << label;
    EXPECT_EQ(seq_stats.dominated, 0u) << label;

    // Every max_models cap must return the identical prefix (this is the
    // first-winner-cancellation soundness condition: only subtrees beyond
    // the merge cut may be abandoned).
    for (const size_t cap : {size_t{0}, size_t{1}, size_t{2}, size_t{5}}) {
      StableSolverOptions capped = options;
      capped.max_models = cap;
      StableSolverOptions seq_capped;
      seq_capped.max_models = cap;
      const auto par_capped =
          StableModelSolver(program, view, capped).AssumptionFreeModels();
      const auto seq_capped_models =
          StableModelSolver(program, view, seq_capped).AssumptionFreeModels();
      ASSERT_TRUE(par_capped.ok() && seq_capped_models.ok()) << label;
      EXPECT_EQ(InOrder(program, *par_capped),
                InOrder(program, *seq_capped_models))
          << label << " max_models=" << cap;

      const auto par_capped_stable =
          StableModelSolver(program, view, capped).StableModels();
      const auto seq_capped_stable =
          StableModelSolver(program, view, seq_capped).StableModels();
      ASSERT_TRUE(par_capped_stable.ok() && seq_capped_stable.ok()) << label;
      EXPECT_EQ(InOrder(program, *seq_capped_stable),
                InOrder(program, Prefix(expected_stable, cap)))
          << label << " stable max_models=" << cap;
      EXPECT_EQ(InOrder(program, *par_capped_stable),
                InOrder(program, *seq_capped_stable))
          << label << " stable max_models=" << cap;
    }
  }
}

TEST(ParallelSearchTest, PaperProgramsMatchSequential) {
  ThreadPool pool(4);
  for (const std::string_view source :
       {testing::kFig1Penguin, testing::kFig1Flattened, testing::kFig2Mimmo,
        testing::kFig3LoanBase, testing::kExample3P3, testing::kExample4P4,
        testing::kExample4P4Closed, testing::kExample5P5,
        testing::kExample6Ancestor, testing::kExample8Birds}) {
    const GroundProgram program = GroundText(source);
    for (const size_t threads : {size_t{2}, size_t{4}, size_t{8}}) {
      ExpectParallelMatchesSequential(program, pool, threads,
                                      std::string(source.substr(0, 24)));
    }
  }
}

TEST(ParallelSearchTest, TestdataCorpusMatchesSequential) {
  ThreadPool pool(4);
  size_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(ORDLOG_TESTDATA_DIR)) {
    if (entry.path().extension() != ".olp") continue;
    std::ifstream in(entry.path());
    std::ostringstream text;
    text << in.rdbuf();
    ExpectParallelMatchesSequential(GroundText(text.str()), pool, 4,
                                    entry.path().filename().string());
    ++files;
  }
  EXPECT_GE(files, 4u);  // penguin, mimmo, loan, choice at minimum
}

TEST(ParallelSearchTest, DeepGadgetTreeMatchesSequential) {
  ThreadPool pool(4);
  const GroundProgram program = GroundText(GadgetProgram(8));
  const ComponentId c1 = 1;
  ASSERT_EQ(program.component_name(c1), "c1");
  ExpectParallelMatchesSequential(program, pool, 4, "gadgets(8)");
}

// The ISSUE's differential sweep: >= 100 random seeds, sequential vs
// 4-thread search on every view. Random ordered programs exercise
// negative heads, order edges, pruning, and empty model sets.
class ParallelSearchPropertyTest : public ::testing::TestWithParam<uint32_t> {
};

TEST_P(ParallelSearchPropertyTest, ParallelAgreesWithSequential) {
  std::mt19937 rng(GetParam());
  RandomProgramOptions options;
  options.num_atoms = 6;
  options.num_components = 2;
  options.num_rules = 12;
  const GroundProgram program = RandomGroundProgram(rng, options);
  ThreadPool pool(4);
  ExpectParallelMatchesSequential(
      program, pool, 4, "seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, ParallelSearchPropertyTest,
                         ::testing::Range(1u, 111u));

// max_models caps stable models: Example5Gadgets(2) has 4 stable models
// (of 9 assumption-free ones), and each cap 1-4 returns exactly that many,
// the leading ones of the uncapped list, at every thread count. Four
// gadgets (16 of 81) leave several models per subtree, so a cap also
// falls inside a subtree's merged models.
TEST(ParallelSearchTest, MaxModelsCapsStableModels) {
  ThreadPool pool(4);
  for (const int gadgets : {2, 4}) {
    const GroundProgram program = GroundText(GadgetProgram(gadgets));
    const ComponentId c1 = 1;
    const auto uncapped = StableModelSolver(program, c1).StableModels();
    ASSERT_TRUE(uncapped.ok());
    const size_t stable = size_t{1} << gadgets;
    ASSERT_EQ(uncapped->size(), stable);
    for (const size_t threads :
         {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      for (size_t cap = 1; cap <= stable; ++cap) {
        StableSolverOptions options;
        options.max_models = cap;
        if (threads > 1) {
          options.executor = &pool;
          options.search_threads = threads;
          options.parallel_min_branch = 0;
        }
        const auto capped =
            StableModelSolver(program, c1, options).StableModels();
        ASSERT_TRUE(capped.ok()) << capped.status();
        EXPECT_EQ(capped->size(), cap)
            << gadgets << " gadgets, threads " << threads;
        EXPECT_EQ(InOrder(program, *capped),
                  InOrder(program, Prefix(*uncapped, cap)))
            << gadgets << " gadgets, threads " << threads
            << " max_models=" << cap;
      }
    }
  }
}

// The spec oracle for the in-search maximality filter, on every random
// generator:
//  * sequential AssumptionFreeModels never lists a model before one of its
//    proper supersets (the ordering the single-pass filter relies on);
//  * StableModels at 1/2/4/8 threads equals BruteForceEnumerator's stable
//    models (Def. 9) as a set, in the same order at every thread count;
//  * a cap returns exactly min(cap, n) models, a prefix of that order.
class MaximalSearchOracleTest : public ::testing::TestWithParam<uint32_t> {
};

void ExpectMaximalSearchMatchesOracle(const GroundProgram& program,
                                      ThreadPool& pool,
                                      const std::string& label) {
  for (ComponentId view = 0; view < program.NumComponents(); ++view) {
    const auto af = StableModelSolver(program, view).AssumptionFreeModels();
    ASSERT_TRUE(af.ok()) << label;
    for (size_t i = 0; i < af->size(); ++i) {
      for (size_t j = i + 1; j < af->size(); ++j) {
        EXPECT_FALSE((*af)[i].IsProperSubsetOf((*af)[j]))
            << label << ": " << (*af)[i].ToString(program)
            << " is listed before its superset "
            << (*af)[j].ToString(program);
      }
    }

    const auto oracle = BruteForceEnumerator(program, view).StableModels();
    ASSERT_TRUE(oracle.ok()) << label << ": " << oracle.status();
    const auto sequential = StableModelSolver(program, view).StableModels();
    ASSERT_TRUE(sequential.ok()) << label;
    EXPECT_EQ(Render(program, *sequential), Render(program, *oracle))
        << label << " view " << program.component_name(view);

    for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      for (const size_t cap : {size_t{0}, size_t{1}, size_t{2}, size_t{5},
                               StableSolverOptions{}.max_models}) {
        StableSolverOptions options;
        options.max_models = cap;
        if (threads > 1) {
          options.executor = &pool;
          options.search_threads = threads;
          options.parallel_min_branch = 0;
        }
        const auto models =
            StableModelSolver(program, view, options).StableModels();
        ASSERT_TRUE(models.ok()) << label;
        EXPECT_EQ(InOrder(program, *models),
                  InOrder(program, Prefix(*sequential, cap)))
            << label << " view " << program.component_name(view)
            << " threads " << threads << " max_models=" << cap;
      }
    }
  }
}

TEST_P(MaximalSearchOracleTest, OrderedPrograms) {
  std::mt19937 rng(GetParam());
  RandomProgramOptions options;
  options.num_atoms = 6;
  options.num_components = 3;
  options.num_rules = 14;
  ThreadPool pool(4);
  ExpectMaximalSearchMatchesOracle(RandomGroundProgram(rng, options), pool,
                                   "ordered seed " +
                                       std::to_string(GetParam()));
}

TEST_P(MaximalSearchOracleTest, SeminegativePrograms) {
  std::mt19937 rng(GetParam());
  ThreadPool pool(4);
  ExpectMaximalSearchMatchesOracle(RandomSeminegativeProgram(rng, 6, 10, 2),
                                   pool,
                                   "seminegative seed " +
                                       std::to_string(GetParam()));
}

TEST_P(MaximalSearchOracleTest, NegativePrograms) {
  std::mt19937 rng(GetParam());
  ThreadPool pool(4);
  ExpectMaximalSearchMatchesOracle(RandomNegativeProgram(rng, 6, 10, 2), pool,
                                   "negative seed " +
                                       std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, MaximalSearchOracleTest,
                         ::testing::Range(1u, 41u));

// FilterMaximal visits candidates by size instead of comparing all pairs;
// on shuffled random sets with equal duplicates it must keep exactly what
// the all-pairs filter keeps, in the same order.
TEST(ParallelSearchTest, FilterMaximalMatchesQuadraticReference) {
  for (uint32_t seed = 1; seed <= 200; ++seed) {
    std::mt19937 rng(seed);
    RandomProgramOptions options;
    options.num_atoms = 1 + seed % 5;
    const GroundProgram program = RandomGroundProgram(rng, options);
    std::vector<Interpretation> candidates;
    const size_t count = seed % 40;
    for (size_t i = 0; i < count; ++i) {
      candidates.push_back(RandomInterpretation(rng, program));
    }
    for (size_t i = 0; i < count / 4; ++i) {
      candidates.push_back(candidates[rng() % count]);  // equal duplicates
    }
    std::shuffle(candidates.begin(), candidates.end(), rng);
    const std::vector<Interpretation> expected = QuadraticMaximal(candidates);
    EXPECT_EQ(InOrder(program, FilterMaximal(candidates)),
              InOrder(program, expected))
        << "seed " << seed;
  }
}

TEST(ParallelSearchTest, SearchThreadsOneStaysSequential) {
  ThreadPool pool(4);
  const GroundProgram program = GroundText(testing::kExample5P5);
  StableSolverOptions options;
  options.executor = &pool;
  options.search_threads = 1;  // explicit opt-out
  options.parallel_min_branch = 0;
  StableSolverStats stats;
  const auto models =
      StableModelSolver(program, 1, options).AssumptionFreeModels(&stats);
  ASSERT_TRUE(models.ok());
  EXPECT_EQ(stats.subtrees, 0u);
  EXPECT_EQ(stats.steals, 0u);
}

TEST(ParallelSearchTest, MinBranchGateKeepsSmallTreesSequential) {
  ThreadPool pool(4);
  const GroundProgram program = GroundText(testing::kExample5P5);
  StableSolverOptions options;
  options.executor = &pool;
  options.search_threads = 4;
  options.parallel_min_branch = 64;  // far above the view's branch count
  StableSolverStats stats;
  const auto models =
      StableModelSolver(program, 1, options).AssumptionFreeModels(&stats);
  ASSERT_TRUE(models.ok());
  EXPECT_EQ(stats.subtrees, 0u);
}

// Cancel-mid-steal stress: fire the token while helper threads are deep
// in stolen subtrees, at a sweep of delays. Every outcome must be clean —
// either a complete (sequential-identical) result or kCancelled — and the
// solver must never deadlock or leave a helper running (TaskGroup join
// inside the solver guarantees the latter; TSan would flag any escape).
TEST(ParallelSearchTest, CancelMidStealStress) {
  const GroundProgram program = GroundText(GadgetProgram(9));
  const ComponentId c1 = 1;
  StableModelSolver reference(program, c1);
  const auto expected = reference.AssumptionFreeModels();
  ASSERT_TRUE(expected.ok());

  ThreadPool pool(4);
  for (int round = 0; round < 24; ++round) {
    CancelToken token;
    StableSolverOptions options;
    options.executor = &pool;
    options.search_threads = 4;
    options.parallel_min_branch = 0;
    options.cancel = &token;
    options.cancel_check_interval = 16;  // poll often: tight cancel window
    StableModelSolver solver(program, c1, options);

    std::thread canceller([&token, round] {
      std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
      token.Cancel();
    });
    StableSolverStats stats;
    const auto models = solver.AssumptionFreeModels(&stats);
    canceller.join();
    if (models.ok()) {
      EXPECT_EQ(Render(program, *models), Render(program, *expected))
          << "round " << round;
    } else {
      EXPECT_EQ(models.status().code(), StatusCode::kCancelled)
          << "round " << round << ": " << models.status();
    }
  }
}

// An already-fired token must fail fast even when the frontier split
// would otherwise fan out a large tree.
TEST(ParallelSearchTest, PreCancelledTokenFailsFast) {
  const GroundProgram program = GroundText(GadgetProgram(9));
  ThreadPool pool(4);
  CancelToken token;
  token.Cancel();
  StableSolverOptions options;
  options.executor = &pool;
  options.search_threads = 4;
  options.parallel_min_branch = 0;
  options.cancel = &token;
  options.cancel_check_interval = 1;
  const auto models =
      StableModelSolver(program, 1, options).AssumptionFreeModels();
  ASSERT_FALSE(models.ok());
  EXPECT_EQ(models.status().code(), StatusCode::kCancelled);
}

// The global node budget aborts parallel searches too.
TEST(ParallelSearchTest, SharedNodeBudgetTrips) {
  const GroundProgram program = GroundText(GadgetProgram(9));
  ThreadPool pool(4);
  StableSolverOptions options;
  options.executor = &pool;
  options.search_threads = 4;
  options.parallel_min_branch = 0;
  options.node_budget = 100;  // far below the ~3^9 tree
  const auto models =
      StableModelSolver(program, 1, options).AssumptionFreeModels();
  ASSERT_FALSE(models.ok());
  EXPECT_EQ(models.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace ordlog

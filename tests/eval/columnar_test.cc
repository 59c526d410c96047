// The columnar fact store under the semi-naive evaluator: sorted,
// deduplicated per-predicate delta tables and the per-round stage/commit
// protocol (docs/EVALUATION.md).

#include "eval/columnar.h"

#include <algorithm>
#include <map>
#include <random>
#include <vector>

#include "gtest/gtest.h"
#include "support/test_util.h"

namespace ordlog {
namespace {

using ::ordlog::testing::GroundText;

TEST(PredicateTableTest, BuildSortsAndDeduplicates) {
  PredicateTableBuilder builder(2);
  const TermId r0[] = {5, 9};
  const TermId r1[] = {3, 7};
  const TermId r2[] = {5, 2};
  const TermId dup[] = {3, 7};
  builder.AddRow(r0, 10);
  builder.AddRow(r1, 11);
  builder.AddRow(r2, 12);
  builder.AddRow(dup, 99);  // duplicate tuple: first occurrence wins
  const PredicateTable table = builder.Build();

  ASSERT_EQ(table.NumRows(), 3u);
  EXPECT_EQ(table.arity(), 2u);
  // Lexicographic row order: (3,7) < (5,2) < (5,9).
  EXPECT_EQ(table.Term(0, 0), 3u);
  EXPECT_EQ(table.Term(0, 1), 7u);
  EXPECT_EQ(table.Term(1, 0), 5u);
  EXPECT_EQ(table.Term(1, 1), 2u);
  EXPECT_EQ(table.Term(2, 0), 5u);
  EXPECT_EQ(table.Term(2, 1), 9u);
  // The duplicate kept the first atom id.
  EXPECT_EQ(table.atom_id(0), 11u);
  // Columns are contiguous per argument position.
  EXPECT_EQ(table.Column(0), (std::vector<TermId>{3, 5, 5}));
  // The builder reset itself.
  EXPECT_TRUE(builder.Empty());
}

TEST(PredicateTableTest, ZeroArityHoldsOneRow) {
  PredicateTableBuilder builder(0);
  builder.AddRow(nullptr, 7);
  builder.AddRow(nullptr, 8);  // same (empty) tuple
  const PredicateTable table = builder.Build();
  ASSERT_EQ(table.NumRows(), 1u);
  EXPECT_EQ(table.atom_id(0), 7u);
}

// Randomized audit of Build against a sorted, deduplicated reference on
// tables of every awkward shape — empty, single-row, already sorted (the
// builder's fast path), all-duplicate, zero arity: rows come out in
// lexicographic order and a duplicate keeps its first atom id.
TEST(PredicateTableTest, RandomizedBuildMatchesSortedSet) {
  std::mt19937 rng(0x5eedc01u);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t arity = trial % 4;  // includes zero-arity tables
    // A tiny term domain forces heavy duplicates.
    const TermId domain = 1 + trial % 3;
    const size_t rows = trial % 7 == 0 ? 0 : rng() % 24;

    std::vector<std::vector<TermId>> staged;
    for (size_t r = 0; r < rows; ++r) {
      std::vector<TermId> row(arity);
      for (TermId& term : row) term = rng() % domain;
      staged.push_back(std::move(row));
    }
    if (trial % 5 == 0) std::sort(staged.begin(), staged.end());
    PredicateTableBuilder builder(arity);
    std::map<std::vector<TermId>, GroundAtomId> reference;
    for (size_t r = 0; r < staged.size(); ++r) {
      builder.AddRow(staged[r].empty() ? nullptr : staged[r].data(),
                     static_cast<GroundAtomId>(r));
      reference.emplace(staged[r], static_cast<GroundAtomId>(r));
    }
    const PredicateTable table = builder.Build();
    ASSERT_EQ(table.NumRows(), reference.size()) << "trial " << trial;
    size_t row = 0;
    for (const auto& [tuple, atom] : reference) {
      for (size_t col = 0; col < arity; ++col) {
        EXPECT_EQ(table.Term(row, col), tuple[col]) << "trial " << trial;
      }
      EXPECT_EQ(table.atom_id(row), atom) << "trial " << trial;
      ++row;
    }
    EXPECT_TRUE(builder.Empty());
  }
}

TEST(FactStoreTest, StageCommitRoundTrip) {
  const GroundProgram program = GroundText(R"(
    component c {
      bird(tweety). bird(pingu).
      -flightless(tweety).
    }
  )");
  FactStore store(program);

  // Round 1: stage every fact literal of the program.
  size_t positives = 0;
  for (GroundAtomId atom = 0; atom < program.NumAtoms(); ++atom) {
    const bool positive = program.atom(atom).predicate ==
                          program.atom(0).predicate;  // bird(...) first
    store.Stage(GroundLiteral{atom, positive});
    positives += positive ? 1 : 0;
  }
  const size_t committed = store.Commit();
  EXPECT_EQ(committed, program.NumAtoms());

  // Channels split by (predicate, sign), in first-staged order; tuples
  // are sorted and atom-id-addressable.
  ASSERT_EQ(store.deltas().size(), 2u);
  EXPECT_EQ(store.deltas()[0].predicate, program.atom(0).predicate);
  EXPECT_TRUE(store.deltas()[0].positive);
  EXPECT_EQ(store.deltas()[0].table.NumRows(), positives);
  EXPECT_FALSE(store.deltas()[1].positive);
  size_t delta_rows = 0;
  for (const FactStore::Delta& delta : store.deltas()) {
    delta_rows += delta.table.NumRows();
    for (size_t row = 0; row + 1 < delta.table.NumRows(); ++row) {
      EXPECT_LT(delta.table.Term(row, 0), delta.table.Term(row + 1, 0));
    }
    for (size_t row = 0; row < delta.table.NumRows(); ++row) {
      const Atom& atom = program.atom(delta.table.atom_id(row));
      EXPECT_EQ(atom.predicate, delta.predicate);
    }
  }
  EXPECT_EQ(delta_rows, committed);

  // Round 2: nothing staged -> empty commit, no deltas.
  EXPECT_EQ(store.Commit(), 0u);
  EXPECT_TRUE(store.deltas().empty());
}

TEST(FactStoreTest, MixedAritiesGetSeparateChannels) {
  // One predicate symbol at two arities: each arity is its own channel,
  // so a row never reads past its atom's argument list.
  const GroundProgram program = GroundText(R"(
    component c { p(a, b). p(a). q. }
  )");
  FactStore store(program);
  for (GroundAtomId atom = 0; atom < program.NumAtoms(); ++atom) {
    store.Stage(GroundLiteral{atom, true});
  }
  EXPECT_EQ(store.Commit(), program.NumAtoms());
  ASSERT_EQ(store.deltas().size(), 3u);
  for (const FactStore::Delta& delta : store.deltas()) {
    ASSERT_EQ(delta.table.NumRows(), 1u);
    const Atom& atom = program.atom(delta.table.atom_id(0));
    EXPECT_EQ(atom.predicate, delta.predicate);
    EXPECT_EQ(delta.table.arity(), atom.args.size());
  }
}

}  // namespace
}  // namespace ordlog

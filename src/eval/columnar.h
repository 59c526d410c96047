#ifndef ORDLOG_EVAL_COLUMNAR_H_
#define ORDLOG_EVAL_COLUMNAR_H_

#include <cstdint>
#include <vector>

#include "ground/ground_program.h"

namespace ordlog {

// A sorted, deduplicated, columnar table of ground tuples for one
// (predicate, sign) channel of a fact store's round delta. Rows are the
// argument tuples of derived ground atoms; each row also carries the dense
// GroundAtomId of the atom it came from, so set-at-a-time consumers can
// hop back into the bitset/rule world without re-interning. Storage is
// column-major (one contiguous `TermId` vector per argument position), and
// rows are kept in lexicographic TermId order with no duplicates. Build
// with PredicateTableBuilder.
class PredicateTable {
 public:
  // An empty table of the given arity (0-ary tables hold at most one row).
  explicit PredicateTable(size_t arity) : columns_(arity) {}

  // Number of argument positions.
  size_t arity() const { return columns_.size(); }
  // Number of tuples.
  size_t NumRows() const { return atom_ids_.size(); }
  // True when the table holds no tuples.
  bool Empty() const { return atom_ids_.empty(); }

  // The term in column `col` of row `row` (lexicographic row order).
  TermId Term(size_t row, size_t col) const { return columns_[col][row]; }
  // The ground atom the row was staged from.
  GroundAtomId atom_id(size_t row) const { return atom_ids_[row]; }
  // One whole column, contiguous over all rows.
  const std::vector<TermId>& Column(size_t col) const {
    return columns_[col];
  }

 private:
  friend class PredicateTableBuilder;

  std::vector<std::vector<TermId>> columns_;  // [col][row]
  std::vector<GroundAtomId> atom_ids_;        // [row]
};

// Accumulates rows in arbitrary order, then sorts and deduplicates them
// into a PredicateTable. Reusable after Build (it resets to empty).
class PredicateTableBuilder {
 public:
  // A builder for tuples with `arity` argument positions.
  explicit PredicateTableBuilder(size_t arity) : arity_(arity) {}

  // Appends one tuple (`args` must have exactly arity() entries).
  void AddRow(const TermId* args, GroundAtomId atom);
  // Number of argument positions.
  size_t arity() const { return arity_; }
  // Number of rows added since the last Build (pre-dedup).
  size_t NumStaged() const { return atoms_.size(); }
  // True when no rows are staged.
  bool Empty() const { return atoms_.empty(); }
  // Sorts, deduplicates (first occurrence wins), transposes to columnar
  // storage, and resets the builder.
  PredicateTable Build();

 private:
  size_t arity_;
  std::vector<TermId> flat_;  // row-major staging area
  std::vector<GroundAtomId> atoms_;
};

// The round-delta store a semi-naive evaluation derives into. The
// protocol per round is
//
//   Stage(literal)...   — each literal derived this round, once
//   Commit()            — sort the staged rows into per-channel delta
//                         tables and expose them via `deltas()` for the
//                         next round's set-at-a-time propagation
//
// A channel is one (predicate symbol, arity, sign) triple, created on its
// first Stage; negative literals land in the negative channel of the same
// predicate (the paper's explicitly-derived classical negation, not
// negation-as-failure). Only the latest round is kept: the evaluator's
// Interpretation already holds everything derived so far.
class FactStore {
 public:
  // An empty store deriving into `program`'s atom universe.
  explicit FactStore(const GroundProgram& program) : program_(program) {}

  // Stages one derived literal into the current round's delta. The
  // caller guarantees per-round uniqueness (evaluators stage a literal
  // only when it first enters the interpretation); duplicates are
  // deduplicated at Commit anyway.
  void Stage(GroundLiteral literal);

  // One committed delta channel: the predicate, the sign, and the sorted
  // delta table (only non-empty channels are reported).
  struct Delta {
    SymbolId predicate = 0;
    bool positive = true;
    PredicateTable table;
  };

  // Sorts and commits the staged rows into `deltas()`, channels in the
  // order they were first staged into. Returns the number of committed
  // tuples (0 = fixpoint).
  size_t Commit();

  // The channels committed by the most recent Commit.
  const std::vector<Delta>& deltas() const { return deltas_; }

 private:
  // Sentinel for a channel never staged into.
  static constexpr uint32_t kNoChannel = 0xffffffffu;
  struct Channel {
    SymbolId predicate = 0;
    bool positive = true;
    PredicateTableBuilder staged;
    // The channel of the same (predicate, sign) at another arity, or
    // kNoChannel.
    uint32_t other_arity = kNoChannel;
    Channel(SymbolId p, bool pos, size_t arity)
        : predicate(p), positive(pos), staged(arity) {}
  };

  const GroundProgram& program_;
  std::vector<Channel> channels_;
  // (predicate * 2 + sign) -> index into channels_ of its first arity,
  // grown on demand. A flat array beats a hash map here: Stage runs once
  // per derived literal, and predicate symbol ids are small and dense.
  std::vector<uint32_t> channel_slots_;
  std::vector<uint32_t> dirty_;  // channels with staged rows
  std::vector<Delta> deltas_;
};

}  // namespace ordlog

#endif  // ORDLOG_EVAL_COLUMNAR_H_

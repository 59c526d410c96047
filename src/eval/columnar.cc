#include "eval/columnar.h"

#include <algorithm>
#include <numeric>

namespace ordlog {

void PredicateTableBuilder::AddRow(const TermId* args, GroundAtomId atom) {
  for (size_t col = 0; col < arity_; ++col) flat_.push_back(args[col]);
  atoms_.push_back(atom);
}

PredicateTable PredicateTableBuilder::Build() {
  const size_t rows = atoms_.size();
  // Fast path: staged rows already strictly ascending — the common case,
  // because the evaluator stages literals in discovery order and ground
  // atoms (hence their interned argument terms) are numbered in program
  // order. No permutation, no dedup; arity 1 moves the column wholesale.
  bool sorted = true;
  for (size_t row = 1; row < rows && sorted; ++row) {
    int cmp = 0;
    for (size_t col = 0; col < arity_; ++col) {
      const TermId prev = flat_[(row - 1) * arity_ + col];
      const TermId next = flat_[row * arity_ + col];
      if (prev != next) {
        cmp = prev < next ? -1 : 1;
        break;
      }
    }
    sorted = cmp < 0;  // ties are duplicates: take the slow path
  }
  if (sorted) {
    PredicateTable table(arity_);
    if (arity_ == 1) {
      table.columns_[0] = std::move(flat_);
    } else {
      for (size_t col = 0; col < arity_; ++col) {
        table.columns_[col].resize(rows);
        for (size_t row = 0; row < rows; ++row) {
          table.columns_[col][row] = flat_[row * arity_ + col];
        }
      }
    }
    table.atom_ids_ = std::move(atoms_);
    flat_.clear();
    atoms_.clear();
    return table;
  }
  std::vector<uint32_t> order(rows);
  std::iota(order.begin(), order.end(), 0);
  const size_t arity = arity_;
  const std::vector<TermId>& flat = flat_;
  auto compare_rows = [&](uint32_t ra, uint32_t rb) {
    for (size_t col = 0; col < arity; ++col) {
      const TermId lhs = flat[ra * arity + col];
      const TermId rhs = flat[rb * arity + col];
      if (lhs != rhs) return lhs < rhs;
    }
    return ra < rb;  // stable: first occurrence wins the dedup below
  };
  std::sort(order.begin(), order.end(), compare_rows);
  auto equal_rows = [&](uint32_t ra, uint32_t rb) {
    for (size_t col = 0; col < arity; ++col) {
      if (flat[ra * arity + col] != flat[rb * arity + col]) return false;
    }
    return true;
  };
  PredicateTable table(arity);
  table.atom_ids_.reserve(rows);
  for (auto& column : table.columns_) column.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    if (i > 0 && equal_rows(order[i - 1], order[i])) continue;
    const uint32_t row = order[i];
    for (size_t col = 0; col < arity; ++col) {
      table.columns_[col].push_back(flat[row * arity + col]);
    }
    table.atom_ids_.push_back(atoms_[row]);
  }
  flat_.clear();
  atoms_.clear();
  return table;
}

void FactStore::Stage(GroundLiteral literal) {
  const Atom& atom = program_.atom(literal.atom);
  const size_t key = static_cast<size_t>(atom.predicate) * 2 +
                     (literal.positive ? 1 : 0);
  if (key >= channel_slots_.size()) {
    channel_slots_.resize(key + 1, kNoChannel);
  }
  uint32_t* slot = &channel_slots_[key];
  while (*slot != kNoChannel &&
         channels_[*slot].staged.arity() != atom.args.size()) {
    slot = &channels_[*slot].other_arity;
  }
  uint32_t index = *slot;
  if (index == kNoChannel) {
    index = static_cast<uint32_t>(channels_.size());
    *slot = index;  // before emplace_back, which may move `slot`'s channel
    channels_.emplace_back(atom.predicate, literal.positive,
                           atom.args.size());
  }
  Channel& channel = channels_[index];
  if (channel.staged.Empty()) dirty_.push_back(index);
  channel.staged.AddRow(atom.args.data(), literal.atom);
}

size_t FactStore::Commit() {
  deltas_.clear();
  size_t committed = 0;
  std::sort(dirty_.begin(), dirty_.end());  // deterministic channel order
  for (uint32_t index : dirty_) {
    Channel& channel = channels_[index];
    PredicateTable delta = channel.staged.Build();
    committed += delta.NumRows();
    deltas_.push_back(
        Delta{channel.predicate, channel.positive, std::move(delta)});
  }
  dirty_.clear();
  return committed;
}

}  // namespace ordlog

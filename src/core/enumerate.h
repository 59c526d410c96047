#ifndef ORDLOG_CORE_ENUMERATE_H_
#define ORDLOG_CORE_ENUMERATE_H_

#include <vector>

#include "base/status.h"
#include "base/strings.h"
#include "core/assumption.h"
#include "core/model_check.h"

namespace ordlog {

struct EnumerationOptions {
  // Refuse views whose Herbrand base exceeds this (3^n interpretations).
  size_t max_atoms = 16;
  // Stop after this many results.
  size_t max_results = 1'000'000;
};

// Exhaustively enumerates interpretations of a view (3^n candidates) and
// classifies them. Ground truth for tests and for the paper's small example
// programs; the backtracking StableModelSolver is the scalable path.
class BruteForceEnumerator {
 public:
  BruteForceEnumerator(const GroundProgram& program, ComponentId view,
                       EnumerationOptions options = {});

  // All models of P in the view (Def. 3), in enumeration order.
  StatusOr<std::vector<Interpretation>> AllModels() const;

  // All assumption-free models (Def. 7).
  StatusOr<std::vector<Interpretation>> AssumptionFreeModels() const;

  // Def. 9: maximal assumption-free models.
  StatusOr<std::vector<Interpretation>> StableModels() const;

  // Def. 5(b): maximal models.
  StatusOr<std::vector<Interpretation>> ExhaustiveModels() const;

  // Def. 5(a): total models.
  StatusOr<std::vector<Interpretation>> TotalModels() const;

 private:
  template <typename Predicate>
  StatusOr<std::vector<Interpretation>> Enumerate(Predicate&& keep) const;

  const GroundProgram& program_;
  const ComponentId view_;
  const EnumerationOptions options_;
  ModelChecker checker_;
  AssumptionAnalyzer assumptions_;
  std::vector<GroundAtomId> base_;  // the view's Herbrand base, as a list
};

// Keeps only the ⊆-maximal interpretations of `candidates`, in input
// order. The input may come in any order; equal duplicates are all kept.
// O(n·k) subset tests for n candidates and k maximal ones.
std::vector<Interpretation> FilterMaximal(
    std::vector<Interpretation> candidates);

// Invokes `fn` on every consistent interpretation over `atoms` (3^n
// candidates, odometer order starting from the empty interpretation)
// until `fn` returns false. Shared by every brute-force enumerator in
// core/ and transform/. kResourceExhausted when |atoms| exceeds
// `max_atoms`.
template <typename Fn>
Status ForEachInterpretation(const GroundProgram& program,
                             const std::vector<GroundAtomId>& atoms,
                             size_t max_atoms, Fn&& fn) {
  if (atoms.size() > max_atoms) {
    return ResourceExhaustedError(
        StrCat("brute-force enumeration over ", atoms.size(),
               " atoms exceeds max_atoms=", max_atoms));
  }
  std::vector<uint8_t> digits(atoms.size(), 0);
  Interpretation candidate = Interpretation::ForProgram(program);
  while (true) {
    if (!fn(static_cast<const Interpretation&>(candidate))) {
      return Status::Ok();
    }
    size_t i = 0;
    for (; i < atoms.size(); ++i) {
      digits[i] = static_cast<uint8_t>((digits[i] + 1) % 3);
      candidate.Set(atoms[i], digits[i] == 0   ? TruthValue::kUndefined
                              : digits[i] == 1 ? TruthValue::kTrue
                                               : TruthValue::kFalse);
      if (digits[i] != 0) break;
    }
    if (i == atoms.size()) return Status::Ok();
  }
}

}  // namespace ordlog

#endif  // ORDLOG_CORE_ENUMERATE_H_

#include "core/enumerate.h"

#include <algorithm>

#include "base/strings.h"

namespace ordlog {

BruteForceEnumerator::BruteForceEnumerator(const GroundProgram& program,
                                           ComponentId view,
                                           EnumerationOptions options)
    : program_(program),
      view_(view),
      options_(options),
      checker_(program, view),
      assumptions_(program, view) {
  program.ViewAtoms(view).ForEach([this](size_t atom) {
    base_.push_back(static_cast<GroundAtomId>(atom));
  });
}

template <typename Predicate>
StatusOr<std::vector<Interpretation>> BruteForceEnumerator::Enumerate(
    Predicate&& keep) const {
  std::vector<Interpretation> results;
  ORDLOG_RETURN_IF_ERROR(ForEachInterpretation(
      program_, base_, options_.max_atoms,
      [&](const Interpretation& candidate) {
        if (keep(candidate)) {
          results.push_back(candidate);
        }
        return results.size() < options_.max_results;
      }));
  return results;
}

StatusOr<std::vector<Interpretation>> BruteForceEnumerator::AllModels()
    const {
  return Enumerate(
      [this](const Interpretation& m) { return checker_.IsModel(m); });
}

StatusOr<std::vector<Interpretation>>
BruteForceEnumerator::AssumptionFreeModels() const {
  return Enumerate([this](const Interpretation& m) {
    return checker_.IsModel(m) && assumptions_.IsAssumptionFree(m);
  });
}

StatusOr<std::vector<Interpretation>> BruteForceEnumerator::StableModels()
    const {
  ORDLOG_ASSIGN_OR_RETURN(std::vector<Interpretation> models,
                          AssumptionFreeModels());
  return FilterMaximal(std::move(models));
}

StatusOr<std::vector<Interpretation>>
BruteForceEnumerator::ExhaustiveModels() const {
  ORDLOG_ASSIGN_OR_RETURN(std::vector<Interpretation> models, AllModels());
  return FilterMaximal(std::move(models));
}

StatusOr<std::vector<Interpretation>> BruteForceEnumerator::TotalModels()
    const {
  return Enumerate(
      [this](const Interpretation& m) { return checker_.IsTotal(m); });
}

std::vector<Interpretation> FilterMaximal(
    std::vector<Interpretation> candidates) {
  // A proper superset assigns strictly more literals. Visiting the
  // candidates by descending size therefore reaches every proper superset
  // of a candidate before the candidate itself, and some maximal one among
  // them has been kept by then. So each candidate is compared only with
  // the kept models that are strictly larger, for which ⊆ already means ⊊.
  const size_t n = candidates.size();
  std::vector<size_t> sizes(n);
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) {
    sizes[i] = candidates[i].NumAssigned();
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return sizes[a] > sizes[b];
  });
  std::vector<const Interpretation*> kept;
  std::vector<bool> keep(n, false);
  size_t larger = 0;  // kept[0, larger) are strictly larger than order[k]
  for (size_t k = 0; k < n; ++k) {
    const size_t i = order[k];
    if (k > 0 && sizes[i] < sizes[order[k - 1]]) larger = kept.size();
    bool dominated = false;
    for (size_t j = 0; j < larger && !dominated; ++j) {
      dominated = candidates[i].IsSubsetOf(*kept[j]);
    }
    if (dominated) continue;
    keep[i] = true;
    kept.push_back(&candidates[i]);
  }
  std::vector<Interpretation> maximal;
  maximal.reserve(kept.size());
  for (size_t i = 0; i < n; ++i) {
    if (keep[i]) maximal.push_back(std::move(candidates[i]));
  }
  return maximal;
}

}  // namespace ordlog

#include "runtime/model_cache.h"

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace ordlog {
namespace {

ModelEntry EntryWithNodes(size_t nodes) {
  ModelEntry entry;
  entry.solver_nodes = nodes;
  return entry;
}

TEST(ModelCacheTest, MissThenHit) {
  MetricsRegistry registry;
  ModelCache cache({}, registry);
  CancelToken cancel;
  const ModelCacheKey key{/*revision=*/1, /*view=*/0,
                          CacheKind::kLeastModel};
  int computes = 0;
  const auto compute = [&]() -> StatusOr<ModelEntry> {
    ++computes;
    return EntryWithNodes(7);
  };

  const auto first = cache.GetOrCompute(key, compute, cancel);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->hit);
  EXPECT_EQ(first->entry->solver_nodes, 7u);

  const auto second = cache.GetOrCompute(key, compute, cancel);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->hit);
  EXPECT_EQ(computes, 1);

  const ModelCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  // The stats are the registry's instruments: the exposition agrees.
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("ordlog_cache_requests_total{outcome=\"hit\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ordlog_cache_requests_total{outcome=\"miss\"} 1"),
            std::string::npos)
      << text;
}

TEST(ModelCacheTest, DistinctKeysDoNotCollide) {
  MetricsRegistry registry;
  ModelCache cache({}, registry);
  CancelToken cancel;
  const auto compute_a = [] { return StatusOr<ModelEntry>(EntryWithNodes(1)); };
  const auto compute_b = [] { return StatusOr<ModelEntry>(EntryWithNodes(2)); };
  const ModelCacheKey by_revision{1, 0, CacheKind::kLeastModel};
  const ModelCacheKey by_view{1, 1, CacheKind::kLeastModel};
  const ModelCacheKey by_kind{1, 0, CacheKind::kStableModels};
  ASSERT_TRUE(cache.GetOrCompute(by_revision, compute_a, cancel).ok());
  EXPECT_EQ(cache.GetOrCompute(by_view, compute_b, cancel)->entry
                ->solver_nodes,
            2u);
  EXPECT_EQ(cache.GetOrCompute(by_kind, compute_b, cancel)->entry
                ->solver_nodes,
            2u);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(ModelCacheTest, FailedComputeIsNotCached) {
  MetricsRegistry registry;
  ModelCache cache({}, registry);
  CancelToken cancel;
  const ModelCacheKey key{1, 0, CacheKind::kStableModels};
  int computes = 0;
  const auto failing = [&]() -> StatusOr<ModelEntry> {
    ++computes;
    return DeadlineExceededError("simulated deadline");
  };
  EXPECT_EQ(cache.GetOrCompute(key, failing, cancel).status().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(cache.size(), 0u) << "failure must not pollute the cache";

  // The next caller recomputes (and may succeed).
  const auto succeeding = [&]() -> StatusOr<ModelEntry> {
    ++computes;
    return EntryWithNodes(3);
  };
  const auto result = cache.GetOrCompute(key, succeeding, cancel);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->hit);
  EXPECT_EQ(computes, 2);
}

TEST(ModelCacheTest, ConcurrentCallersCoalesceOntoOneComputation) {
  MetricsRegistry registry;
  ModelCache cache({}, registry);
  const ModelCacheKey key{1, 0, CacheKind::kStableModels};
  std::atomic<int> computes{0};
  std::atomic<int> waiters_started{0};
  constexpr int kWaiters = 8;

  const auto compute = [&]() -> StatusOr<ModelEntry> {
    computes.fetch_add(1);
    // Give the other threads time to pile onto the in-flight slot.
    while (waiters_started.load() < kWaiters) {
      std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    return EntryWithNodes(11);
  };

  std::vector<std::thread> threads;
  std::atomic<int> served{0};
  for (int i = 0; i < kWaiters; ++i) {
    threads.emplace_back([&] {
      CancelToken cancel;
      waiters_started.fetch_add(1);
      const auto result = cache.GetOrCompute(key, compute, cancel);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result->entry->solver_nodes, 11u);
      served.fetch_add(1);
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(computes.load(), 1) << "single-flight: exactly one computation";
  EXPECT_EQ(served.load(), kWaiters);
}

TEST(ModelCacheTest, WaiterHonorsItsOwnDeadline) {
  MetricsRegistry registry;
  ModelCache cache({}, registry);
  const ModelCacheKey key{1, 0, CacheKind::kStableModels};
  std::atomic<bool> owner_started{false};
  std::atomic<bool> release_owner{false};

  // Owner thread: computes slowly.
  std::thread owner([&] {
    CancelToken cancel;
    const auto result = cache.GetOrCompute(
        key,
        [&]() -> StatusOr<ModelEntry> {
          owner_started.store(true);
          while (!release_owner.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          return EntryWithNodes(5);
        },
        cancel);
    EXPECT_TRUE(result.ok());
  });
  while (!owner_started.load()) std::this_thread::yield();

  // Waiter with an immediate deadline gives up; the owner keeps going.
  CancelToken expired =
      CancelToken::WithTimeout(std::chrono::milliseconds(-1));
  const auto waited = cache.GetOrCompute(
      key, [] { return StatusOr<ModelEntry>(EntryWithNodes(0)); }, expired);
  EXPECT_EQ(waited.status().code(), StatusCode::kDeadlineExceeded);

  release_owner.store(true);
  owner.join();

  // The owner's result was cached despite the waiter's deadline.
  CancelToken cancel;
  const auto after = cache.GetOrCompute(
      key, [] { return StatusOr<ModelEntry>(EntryWithNodes(0)); }, cancel);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->hit);
  EXPECT_EQ(after->entry->solver_nodes, 5u);
}

TEST(ModelCacheTest, EvictStaleDropsOlderRevisionsOnly) {
  MetricsRegistry registry;
  ModelCache cache({}, registry);
  CancelToken cancel;
  const auto compute = [] { return StatusOr<ModelEntry>(EntryWithNodes(1)); };
  ASSERT_TRUE(
      cache.GetOrCompute({1, 0, CacheKind::kLeastModel}, compute, cancel)
          .ok());
  ASSERT_TRUE(
      cache.GetOrCompute({2, 0, CacheKind::kLeastModel}, compute, cancel)
          .ok());
  ASSERT_TRUE(
      cache.GetOrCompute({2, 1, CacheKind::kLeastModel}, compute, cancel)
          .ok());
  cache.EvictStale(/*current_revision=*/2);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  // Current-revision entries still hit.
  EXPECT_TRUE(
      cache.GetOrCompute({2, 0, CacheKind::kLeastModel}, compute, cancel)
          ->hit);
}

TEST(ModelCacheTest, CapacityBoundHolds) {
  // Regression: the documented max_entries bound used to be advisory —
  // the table grew without limit and EvictStale was the only shrink path.
  ModelCacheOptions options;
  options.max_entries = 4;
  MetricsRegistry registry;
  ModelCache cache(options, registry);
  CancelToken cancel;
  const auto compute = [] { return StatusOr<ModelEntry>(EntryWithNodes(1)); };
  for (ComponentId view = 0; view < 32; ++view) {
    ASSERT_TRUE(
        cache.GetOrCompute({1, view, CacheKind::kLeastModel}, compute, cancel)
            .ok());
    EXPECT_LE(cache.size(), options.max_entries)
        << "after insert #" << view;
  }
  EXPECT_EQ(cache.size(), options.max_entries);
  EXPECT_EQ(cache.stats().evictions, 32u - options.max_entries);
}

TEST(ModelCacheTest, CapacityEvictsOldestCompletedFirst) {
  ModelCacheOptions options;
  options.max_entries = 2;
  MetricsRegistry registry;
  ModelCache cache(options, registry);
  CancelToken cancel;
  const auto compute = [] { return StatusOr<ModelEntry>(EntryWithNodes(1)); };
  ASSERT_TRUE(
      cache.GetOrCompute({1, 0, CacheKind::kLeastModel}, compute, cancel)
          .ok());
  ASSERT_TRUE(
      cache.GetOrCompute({1, 1, CacheKind::kLeastModel}, compute, cancel)
          .ok());
  // Third insert evicts view 0 (oldest), keeps view 1.
  ASSERT_TRUE(
      cache.GetOrCompute({1, 2, CacheKind::kLeastModel}, compute, cancel)
          .ok());
  EXPECT_TRUE(
      cache.GetOrCompute({1, 1, CacheKind::kLeastModel}, compute, cancel)
          ->hit);
  EXPECT_FALSE(
      cache.GetOrCompute({1, 0, CacheKind::kLeastModel}, compute, cancel)
          ->hit);
}

TEST(ModelCacheTest, CapacityOneStillServesSingleFlight) {
  ModelCacheOptions options;
  options.max_entries = 1;
  MetricsRegistry registry;
  ModelCache cache(options, registry);
  CancelToken cancel;
  const auto compute = [] { return StatusOr<ModelEntry>(EntryWithNodes(5)); };
  const auto first =
      cache.GetOrCompute({1, 0, CacheKind::kLeastModel}, compute, cancel);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->entry->solver_nodes, 5u);
  const auto second =
      cache.GetOrCompute({1, 1, CacheKind::kLeastModel}, compute, cancel);
  ASSERT_TRUE(second.ok());
  EXPECT_LE(cache.size(), 1u);
  // The surviving entry still hits.
  EXPECT_TRUE(
      cache.GetOrCompute({1, 1, CacheKind::kLeastModel}, compute, cancel)
          ->hit);
}

TEST(ModelCacheTest, PreCancelledCallerNeverComputes) {
  MetricsRegistry registry;
  ModelCache cache({}, registry);
  CancelToken cancel;
  cancel.Cancel();
  int computes = 0;
  const auto result = cache.GetOrCompute(
      {1, 0, CacheKind::kLeastModel},
      [&]() -> StatusOr<ModelEntry> {
        ++computes;
        return EntryWithNodes(0);
      },
      cancel);
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(computes, 0);
  EXPECT_EQ(cache.size(), 0u);
}

}  // namespace
}  // namespace ordlog

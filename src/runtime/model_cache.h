#ifndef ORDLOG_RUNTIME_MODEL_CACHE_H_
#define ORDLOG_RUNTIME_MODEL_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "base/cancel.h"
#include "base/hash.h"
#include "base/status.h"
#include "core/interpretation.h"
#include "obs/metrics.h"

namespace ordlog {

// What a cache entry holds: the expensive artifacts of answering a query
// against one view at one KB revision.
enum class CacheKind : uint8_t {
  kLeastModel = 0,   // V∞(∅) of the view
  kStableModels = 1, // all stable models (Def. 9) of the view
};

// Cache key: one (KB revision, module view, artifact kind) triple.
struct ModelCacheKey {
  uint64_t revision = 0;  // KnowledgeBase::revision() the entry was built at
  ComponentId view = 0;
  CacheKind kind = CacheKind::kLeastModel;

  bool operator==(const ModelCacheKey&) const = default;
};

// Hash functor for ModelCacheKey (std::unordered_map support).
struct ModelCacheKeyHash {
  // Combines the three key fields into one hash value.
  size_t operator()(const ModelCacheKey& key) const {
    size_t seed = std::hash<uint64_t>()(key.revision);
    HashCombine(seed, key.view);
    HashCombine(seed, static_cast<uint8_t>(key.kind));
    return seed;
  }
};

// One computed result. Which field is meaningful depends on the key's
// CacheKind; solver_nodes carries search cost for the metrics layer.
struct ModelEntry {
  Interpretation least_model{0};
  std::vector<Interpretation> stable_models;
  size_t solver_nodes = 0;
};

// Tuning knobs for ModelCache.
struct ModelCacheOptions {
  // Bound on resident entries. Stale-revision entries are evicted first;
  // when every entry is current, the oldest *completed* entries are
  // evicted in insertion order, so the bound holds even under many
  // distinct goals at one revision. Only in-flight computations (which
  // must stay resident for single-flight coalescing) may transiently
  // exceed it.
  size_t max_entries = 256;
};

// Generation-keyed, single-flight cache for least models and stable-model
// sets.
//
//  * Generation keying: the revision is part of the key, so KB mutations
//    invalidate lazily — stale entries are simply never looked up again
//    and are swept out on insert (EvictStale).
//  * Single-flight: concurrent GetOrCompute calls for the same key
//    coalesce onto one in-flight computation; waiters block (with
//    cancellation-aware polling) until the owner publishes the entry.
//  * No partial pollution: a computation that fails — including one whose
//    owner hit its deadline or was cancelled — is removed from the table,
//    never cached; a waiting query retries and becomes the new owner, so
//    one caller's tight deadline cannot poison the cache for others.
//
// All methods are thread-safe.
class ModelCache {
 public:
  // Alias so callers can spell ModelCache::Options.
  using Options = ModelCacheOptions;

  // Monotonic lookup counters (the values of the cache's registry
  // instruments).
  struct Stats {
    uint64_t hits = 0;       // served from a completed entry
    uint64_t misses = 0;     // caller became the computing owner
    uint64_t coalesced = 0;  // waited on another caller's computation
    uint64_t evictions = 0;
  };

  // The outcome of a successful GetOrCompute.
  struct Lookup {
    std::shared_ptr<const ModelEntry> entry;
    // True when the value pre-existed or was computed by another thread
    // (i.e. this caller did not pay for the computation).
    bool hit = false;
  };

  // Computes a missing entry; run by exactly one caller per key.
  using ComputeFn = std::function<StatusOr<ModelEntry>()>;

  // An empty cache; `options` bounds the resident entry count. Lookups
  // and evictions are counted in `registry` (ordlog_cache_requests_total,
  // ordlog_cache_evictions_total), which must outlive the cache.
  ModelCache(ModelCacheOptions options, MetricsRegistry& registry);

  // Returns the cached entry for `key`, or runs `compute` (exactly once
  // across concurrent callers) and caches its result. `cancel` bounds the
  // caller's wait, not the shared computation: a waiter whose token fires
  // gives up with kCancelled/kDeadlineExceeded while the owner continues
  // for the benefit of the other waiters.
  StatusOr<Lookup> GetOrCompute(const ModelCacheKey& key,
                                const ComputeFn& compute,
                                const CancelToken& cancel);

  // Drops completed entries whose revision is older than
  // `current_revision`. Called by the engine after a snapshot refresh;
  // also invoked internally when the table outgrows max_entries.
  void EvictStale(uint64_t current_revision);

  // Incremental-mutation carry-over: re-keys every *completed* entry of
  // revision `from_revision` whose view is NOT set in `affected_views` to
  // `to_revision`, resizing its interpretations to `num_atoms` (the
  // patched ground program only ever appends atom ids). Entries still in
  // flight, affected views, and already-present target keys are skipped.
  // Returns the number of entries promoted.
  size_t Promote(uint64_t from_revision, uint64_t to_revision,
                 const DynamicBitset& affected_views, size_t num_atoms);

  // Completed entry for `key`, or null — no side effects, no
  // single-flight. The engine uses this to harvest warm-start seeds from
  // the outgoing revision during a mutation.
  std::shared_ptr<const ModelEntry> Peek(const ModelCacheKey& key) const;

  // Number of resident entries (completed or still computing).
  size_t size() const;
  // Point-in-time copy of the lookup counters.
  Stats stats() const;

 private:
  struct Slot {
    std::mutex mutex;
    std::condition_variable done;
    bool ready = false;   // value published
    bool failed = false;  // owner aborted; waiters should retry
    std::shared_ptr<const ModelEntry> value;
    // Insertion order for the capacity fallback (assigned under the
    // table mutex).
    uint64_t seq = 0;
    // Set once the owner has published; read during eviction scans
    // without the slot mutex, hence atomic. Only completed slots are
    // eligible for capacity eviction — evicting an in-flight slot would
    // break single-flight coalescing.
    std::atomic<bool> completed{false};
  };

  void EvictStaleLocked(uint64_t current_revision);
  // Insertion-order fallback: evicts the oldest completed entries until
  // at most `budget` remain (or no completed entry remains).
  void EnforceCapacityLocked(size_t budget);

  const ModelCacheOptions options_;
  mutable std::mutex mutex_;
  uint64_t next_seq_ = 0;
  std::unordered_map<ModelCacheKey, std::shared_ptr<Slot>, ModelCacheKeyHash>
      entries_;
  Counter* hits_;
  Counter* misses_;
  Counter* coalesced_;
  Counter* evictions_;
};

}  // namespace ordlog

#endif  // ORDLOG_RUNTIME_MODEL_CACHE_H_

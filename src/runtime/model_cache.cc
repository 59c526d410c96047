#include "runtime/model_cache.h"

#include <chrono>
#include <utility>

namespace ordlog {

ModelCache::ModelCache(ModelCacheOptions options, MetricsRegistry& registry)
    : options_(options),
      evictions_(&registry
                      .GetCounterFamily("ordlog_cache_evictions_total",
                                        "Model-cache entries evicted (stale "
                                        "revision or capacity).")
                      .WithLabels()) {
  CounterFamily& requests = registry.GetCounterFamily(
      "ordlog_cache_requests_total",
      "Model-cache lookups, by outcome (hit / miss / coalesced).",
      {"outcome"});
  hits_ = &requests.WithLabels("hit");
  misses_ = &requests.WithLabels("miss");
  coalesced_ = &requests.WithLabels("coalesced");
}

StatusOr<ModelCache::Lookup> ModelCache::GetOrCompute(
    const ModelCacheKey& key, const ComputeFn& compute,
    const CancelToken& cancel) {
  for (;;) {
    ORDLOG_RETURN_IF_ERROR(cancel.Check());

    std::shared_ptr<Slot> slot;
    bool owner = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = entries_.find(key);
      if (it == entries_.end()) {
        if (entries_.size() >= options_.max_entries) {
          EvictStaleLocked(key.revision);
          // Stale eviction is a no-op when every entry shares the
          // current revision; fall back to insertion-order eviction so
          // the table cannot grow without bound under many distinct
          // goals. Leave room for the entry about to be inserted.
          EnforceCapacityLocked(
              options_.max_entries == 0 ? 0 : options_.max_entries - 1);
        }
        slot = std::make_shared<Slot>();
        slot->seq = next_seq_++;
        entries_.emplace(key, slot);
        owner = true;
      } else {
        slot = it->second;
      }
    }

    if (owner) {
      misses_->Increment();
      StatusOr<ModelEntry> computed = compute();
      if (computed.ok()) {
        auto value =
            std::make_shared<const ModelEntry>(std::move(computed).value());
        {
          std::lock_guard<std::mutex> lock(slot->mutex);
          slot->value = value;
          slot->ready = true;
        }
        slot->completed.store(true, std::memory_order_release);
        slot->done.notify_all();
        {
          // Entries that finished while the table was over budget (all
          // slots in flight at insert time) become evictable now.
          std::lock_guard<std::mutex> lock(mutex_);
          EnforceCapacityLocked(options_.max_entries);
        }
        return Lookup{std::move(value), /*hit=*/false};
      }
      // Failed (deadline, cancellation, budget, ...): unpublish so the
      // failure is never served from cache, then wake waiters to retry.
      {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(key);
        if (it != entries_.end() && it->second == slot) entries_.erase(it);
      }
      {
        std::lock_guard<std::mutex> lock(slot->mutex);
        slot->failed = true;
      }
      slot->done.notify_all();
      return computed.status();
    }

    // Coalesce: wait for the owner, polling the caller's own token so a
    // waiter with a tight deadline gives up without killing the shared
    // computation.
    bool counted = false;
    std::unique_lock<std::mutex> lock(slot->mutex);
    while (!slot->ready && !slot->failed) {
      if (!counted) {
        coalesced_->Increment();
        counted = true;
      }
      slot->done.wait_for(lock, std::chrono::milliseconds(5));
      if (!slot->ready && !slot->failed) {
        ORDLOG_RETURN_IF_ERROR(cancel.Check());
      }
    }
    if (slot->ready) {
      if (!counted) hits_->Increment();
      return Lookup{slot->value, /*hit=*/true};
    }
    // Owner failed; loop around and (possibly) become the new owner.
  }
}

void ModelCache::EvictStale(uint64_t current_revision) {
  std::lock_guard<std::mutex> lock(mutex_);
  EvictStaleLocked(current_revision);
}

void ModelCache::EvictStaleLocked(uint64_t current_revision) {
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->first.revision < current_revision) {
      // Safe even while a straggler computes into the slot: the owner
      // publishes into the shared Slot (its waiters still get the value);
      // the table simply forgets the stale key.
      it = entries_.erase(it);
      evictions_->Increment();
    } else {
      ++it;
    }
  }
}

size_t ModelCache::Promote(uint64_t from_revision, uint64_t to_revision,
                           const DynamicBitset& affected_views,
                           size_t num_atoms) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Collect first: inserting while iterating the map would invalidate the
  // iterator and could re-visit the freshly promoted entries.
  std::vector<std::pair<ModelCacheKey, std::shared_ptr<Slot>>> sources;
  for (const auto& [key, slot] : entries_) {
    if (key.revision != from_revision) continue;
    if (key.view < affected_views.size() && affected_views.Test(key.view)) {
      continue;
    }
    if (!slot->completed.load(std::memory_order_acquire)) continue;
    sources.emplace_back(key, slot);
  }
  size_t promoted = 0;
  for (const auto& [key, slot] : sources) {
    ModelCacheKey target = key;
    target.revision = to_revision;
    if (entries_.count(target) != 0) continue;
    // Clone rather than alias: old-revision readers may still hold the
    // source entry, and the promoted copy needs its bitsets grown to the
    // patched program's atom universe.
    ModelEntry clone = *slot->value;
    clone.least_model.Resize(num_atoms);
    for (Interpretation& model : clone.stable_models) {
      model.Resize(num_atoms);
    }
    auto promoted_slot = std::make_shared<Slot>();
    promoted_slot->seq = next_seq_++;
    promoted_slot->value = std::make_shared<const ModelEntry>(std::move(clone));
    promoted_slot->ready = true;
    promoted_slot->completed.store(true, std::memory_order_release);
    entries_.emplace(target, std::move(promoted_slot));
    ++promoted;
  }
  return promoted;
}

std::shared_ptr<const ModelEntry> ModelCache::Peek(
    const ModelCacheKey& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  if (!it->second->completed.load(std::memory_order_acquire)) return nullptr;
  std::lock_guard<std::mutex> slot_lock(it->second->mutex);
  return it->second->value;
}

void ModelCache::EnforceCapacityLocked(size_t budget) {
  while (entries_.size() > budget) {
    auto oldest = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (!it->second->completed.load(std::memory_order_acquire)) continue;
      if (oldest == entries_.end() ||
          it->second->seq < oldest->second->seq) {
        oldest = it;
      }
    }
    // Everything resident is still computing: those slots must stay (they
    // carry waiters), so the bound is transiently exceeded.
    if (oldest == entries_.end()) return;
    entries_.erase(oldest);
    evictions_->Increment();
  }
}

size_t ModelCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

ModelCache::Stats ModelCache::stats() const {
  Stats stats;
  stats.hits = hits_->Value();
  stats.misses = misses_->Value();
  stats.coalesced = coalesced_->Value();
  stats.evictions = evictions_->Value();
  return stats;
}

}  // namespace ordlog

// OnceCache: a sharded, bounded map whose values are built exactly once —
// the cache behind the receiver's decisions and the fan-out planner's plans
// (paper Algorithm 2: pay for MaxMatch, chain search and code generation
// once per new format, then replay the cached pipeline).
//
//   * 16 shards, each a SharedMutex over a map of shared_ptr<Entry>; a
//     lookup takes only its shard's reader lock.
//   * get() builds an entry's value under its once_flag with no shard lock
//     held: a cold key blocks only its own callers, and call_once publishes
//     the value. A throwing build leaves the flag unset; the next get()
//     retries. The build may take the caller's locks, so never call into
//     the cache while holding a lock a build takes.
//   * Entries are shared_ptrs, so one already handed out survives erase()
//     and flush().
//   * One global bound, checked before an insert: a full cache is flushed
//     whole (values are recomputable, so a peer streaming fresh keys costs
//     time, not memory). Concurrent inserters may each pass the check, so
//     size() can briefly exceed the bound by the number of them.
//
// Every get() counts one hit or one build, and every flush counts, per
// instance (stats()) and in morph_cache_events_total{cache,event}.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/thread_annotations.hpp"
#include "obs/metrics.hpp"

namespace morph {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class OnceCache {
 public:
  static constexpr size_t kMaxEntries = 1024;

  struct Entry {
    Value value;

   private:
    friend class OnceCache;
    std::once_flag once;
  };
  using EntryPtr = std::shared_ptr<Entry>;

  struct Lookup {
    EntryPtr entry;
    bool built = false;  // this call ran the build
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t builds = 0;
    uint64_t flushes = 0;
  };

  /// `name` labels this cache's series: cache="<name>".
  explicit OnceCache(const std::string& name)
      : hit_metric_(event_counter(name, "hit")),
        build_metric_(event_counter(name, "build")),
        flush_metric_(event_counter(name, "flush")) {}

  /// The entry for `key`, running `build(Value&)` on it unless another
  /// call already has.
  template <typename Build>
  Lookup get(const Key& key, Build&& build) {
    Shard& shard = shard_for(key);
    Lookup out;
    {
      ReaderLock lock(shard.mutex);
      auto it = shard.entries.find(key);
      if (it != shard.entries.end()) out.entry = it->second;
    }
    if (out.entry == nullptr) {
      if (count_.load(std::memory_order_relaxed) >= kMaxEntries) flush();
      WriterLock lock(shard.mutex);
      EntryPtr& slot = shard.entries[key];
      if (slot == nullptr) {
        slot = std::make_shared<Entry>();
        count_.fetch_add(1, std::memory_order_relaxed);
      }
      out.entry = slot;
    }
    std::call_once(out.entry->once, [&] {
      out.built = true;
      count(builds_, build_metric_);
      build(out.entry->value);
    });
    if (!out.built) count(hits_, hit_metric_);
    return out;
  }

  void erase(const Key& key) { erase_if(key, nullptr); }

  /// Erase `key` only while it still maps to `entry`: a newer entry for
  /// the same key (inserted after a flush) stays.
  void erase_if_same(const Key& key, const EntryPtr& entry) { erase_if(key, entry.get()); }

  void flush() {
    for (Shard& shard : shards_) {
      WriterLock lock(shard.mutex);
      count_.fetch_sub(shard.entries.size(), std::memory_order_relaxed);
      shard.entries.clear();
    }
    count(flushes_, flush_metric_);
  }

  size_t size() const { return count_.load(std::memory_order_relaxed); }

  Stats stats() const {
    return {hits_.load(std::memory_order_relaxed), builds_.load(std::memory_order_relaxed),
            flushes_.load(std::memory_order_relaxed)};
  }

 private:
  static constexpr size_t kShards = 16;  // power of two
  struct Shard {
    SharedMutex mutex;
    std::unordered_map<Key, EntryPtr, Hash> entries MORPH_GUARDED_BY(mutex);
  };

  static obs::Counter& event_counter(const std::string& cache, const char* event) {
    return obs::metrics().counter("morph_cache_events_total{cache=\"" + cache + "\",event=\"" +
                                  event + "\"}");
  }
  static void count(std::atomic<uint64_t>& mine, obs::Counter& metric) {
    mine.fetch_add(1, std::memory_order_relaxed);
    metric.inc();
  }

  Shard& shard_for(const Key& key) {
    // Fold the high bits in, so an identity hash of well-mixed
    // fingerprints still spreads over the shards.
    const uint64_t h = Hash{}(key);
    return shards_[(h ^ (h >> 32)) & (kShards - 1)];
  }

  /// Erase `key` if present and (when `only` is set) mapped to `only`.
  void erase_if(const Key& key, const Entry* only) {
    Shard& shard = shard_for(key);
    WriterLock lock(shard.mutex);
    auto it = shard.entries.find(key);
    if (it == shard.entries.end() || (only != nullptr && it->second.get() != only)) return;
    shard.entries.erase(it);
    count_.fetch_sub(1, std::memory_order_relaxed);
  }

  std::array<Shard, kShards> shards_;
  std::atomic<size_t> count_{0};  // entries in all shards; moves under their locks
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> builds_{0};
  std::atomic<uint64_t> flushes_{0};
  obs::Counter& hit_metric_;
  obs::Counter& build_metric_;
  obs::Counter& flush_metric_;
};

}  // namespace morph

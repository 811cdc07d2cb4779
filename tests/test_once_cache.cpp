// OnceCache (common/once_cache.hpp), the build-once cache behind the
// receiver's decisions and the fan-out planner's plans: exactly-once builds
// under a stampede, entries that outlive flushes, erase_if_same, the global
// bound and counter conservation. Run under TSan by check.sh --tsan.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/once_cache.hpp"
#include "common/rng.hpp"

namespace morph {
namespace {

using IntCache = OnceCache<uint64_t, int>;

uint64_t event_count(const std::string& cache, const char* event) {
  return obs::metrics()
      .counter("morph_cache_events_total{cache=\"" + cache + "\",event=\"" + event + "\"}")
      .value();
}

TEST(OnceCache, ColdStampedeBuildsExactlyOnce) {
  IntCache cache("test_stampede");
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::atomic<int> builds{0};
  std::atomic<int> built_flags{0};
  std::vector<IntCache::EntryPtr> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      auto found = cache.get(42, [&](int& v) {
        builds.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));  // widen the window
        v = 7;
      });
      if (found.built) built_flags.fetch_add(1);
      EXPECT_EQ(found.entry->value, 7);
      seen[static_cast<size_t>(t)] = found.entry;
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(built_flags.load(), 1);
  for (const auto& e : seen) EXPECT_EQ(e.get(), seen[0].get());
  auto s = cache.stats();
  EXPECT_EQ(s.builds, 1u);
  EXPECT_EQ(s.hits, kThreads - 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(OnceCache, FlushDuringInFlightBuildKeepsBuildersEntry) {
  IntCache cache("test_inflight");
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> release_f = release.get_future().share();
  IntCache::Lookup first;
  std::thread builder([&] {
    first = cache.get(5, [&](int& v) {
      started.set_value();
      release_f.wait();
      v = 1;
    });
  });
  started.get_future().wait();
  cache.flush();  // the builder's entry leaves the map mid-build
  EXPECT_EQ(cache.size(), 0u);
  release.set_value();
  builder.join();

  ASSERT_TRUE(first.built);
  EXPECT_EQ(first.entry->value, 1);  // still valid: the builder holds it
  auto second = cache.get(5, [](int& v) { v = 2; });
  EXPECT_TRUE(second.built);  // the flushed key rebuilds
  EXPECT_NE(second.entry.get(), first.entry.get());
  EXPECT_EQ(second.entry->value, 2);
  EXPECT_EQ(first.entry->value, 1);
  EXPECT_EQ(cache.stats().flushes, 1u);
}

TEST(OnceCache, EraseIfSameKeepsNewerEntry) {
  IntCache cache("test_erase_if_same");
  auto old_entry = cache.get(9, [](int& v) { v = 1; }).entry;
  cache.flush();
  auto newer = cache.get(9, [](int& v) { v = 2; }).entry;
  cache.erase_if_same(9, old_entry);  // stale: the newer entry stays
  EXPECT_EQ(cache.size(), 1u);
  auto hit = cache.get(9, [](int&) { FAIL() << "must not rebuild"; });
  EXPECT_FALSE(hit.built);
  EXPECT_EQ(hit.entry.get(), newer.get());

  cache.erase_if_same(9, newer);
  EXPECT_EQ(cache.size(), 0u);
  cache.erase(9);  // erasing an absent key is a no-op
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_TRUE(cache.get(9, [](int& v) { v = 3; }).built);
}

TEST(OnceCache, ThrowingBuildIsRetried) {
#if defined(__SANITIZE_THREAD__)
  // TSan replaces pthread_once (under std::call_once) with a version that
  // leaves the flag "running" when the callable throws, so the retry spins.
  GTEST_SKIP() << "exception-safe call_once needs the uninstrumented pthread_once";
#endif
  IntCache cache("test_throw");
  EXPECT_THROW(cache.get(1, [](int&) { throw std::runtime_error("transient"); }),
               std::runtime_error);
  auto found = cache.get(1, [](int& v) { v = 4; });
  EXPECT_TRUE(found.built);
  EXPECT_EQ(found.entry->value, 4);
  auto s = cache.stats();
  EXPECT_EQ(s.builds, 2u);  // a build attempt counts even when it throws
  EXPECT_EQ(s.hits, 0u);
}

TEST(OnceCache, BoundFlushesBeforeInsert) {
  IntCache cache("test_bound");
  constexpr uint64_t kMax = IntCache::kMaxEntries;
  for (uint64_t k = 0; k < kMax; ++k) {
    cache.get(k, [](int& v) { v = 0; });
    ASSERT_LE(cache.size(), kMax);
  }
  EXPECT_EQ(cache.size(), kMax);
  EXPECT_EQ(cache.stats().flushes, 0u);
  // A hit on a full cache does not flush.
  EXPECT_FALSE(cache.get(0, [](int&) {}).built);
  EXPECT_EQ(cache.stats().flushes, 0u);
  // The next fresh key flushes first, then inserts.
  EXPECT_TRUE(cache.get(kMax, [](int& v) { v = 0; }).built);
  EXPECT_EQ(cache.stats().flushes, 1u);
  EXPECT_EQ(cache.size(), 1u);
  for (uint64_t k = kMax + 1; k < 3 * kMax; ++k) {
    cache.get(k, [](int& v) { v = 0; });
    ASSERT_LE(cache.size(), kMax);
  }
  EXPECT_EQ(cache.stats().flushes, 2u);
}

TEST(OnceCache, RequestsEqualHitsPlusBuildsUnderChurn) {
  const std::string name = "test_conservation";
  const uint64_t hit0 = event_count(name, "hit");
  const uint64_t build0 = event_count(name, "build");
  const uint64_t flush0 = event_count(name, "flush");
  IntCache cache(name);
  constexpr int kThreads = 6;
  constexpr int kPerThread = 3000;
  std::atomic<bool> stop{false};
  std::atomic<int> wrong{0};
  std::thread churn([&] {
    Rng rng(99);
    while (!stop.load()) {
      if (rng.next_below(2) == 0) {
        cache.flush();
      } else {
        cache.erase(rng.next_below(64));
      }
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0x5EEDu + static_cast<uint64_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        const uint64_t key = rng.next_below(64);
        auto found = cache.get(key, [key](int& v) { v = static_cast<int>(key) * 3; });
        if (found.entry->value != static_cast<int>(key) * 3) wrong.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  stop.store(true);
  churn.join();

  EXPECT_EQ(wrong.load(), 0);
  auto s = cache.stats();
  EXPECT_EQ(s.hits + s.builds, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_GE(s.builds, 64u);
  EXPECT_LE(cache.size(), 64u);
  EXPECT_EQ(event_count(name, "hit") - hit0, s.hits);
  EXPECT_EQ(event_count(name, "build") - build0, s.builds);
  EXPECT_EQ(event_count(name, "flush") - flush0, s.flushes);
}

}  // namespace
}  // namespace morph

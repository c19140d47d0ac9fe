// Property tests for the runtime::ResponseCache LRU rewrite: capacity
// is never exceeded, eviction order follows recency (the old FIFO
// eviction threw out hot entries — regression-tested here), byte-exact
// key comparison rejects synthetic hash collisions, and the hit/evict
// counters agree with an oracle std::list-based model under a seeded
// random op stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <list>
#include <utility>
#include <vector>

#include "runtime/response_cache.h"
#include "util/rng.h"

namespace meanet::runtime {
namespace {

/// A tiny frame whose bytes encode `tag` (so distinct tags are distinct
/// byte keys).
std::vector<float> frame_of(int tag, std::size_t len = 4) {
  std::vector<float> f(len, 0.0f);
  f[0] = static_cast<float>(tag);
  f[len - 1] = static_cast<float>(tag) * 0.5f;
  return f;
}

InferenceResult result_of(int tag) {
  InferenceResult r;
  r.prediction = tag;
  r.id = tag;
  return r;
}

TEST(ResponseCacheLru, HotEntrySurvivesWhereFifoEvictedIt) {
  // The FIFO regression: capacity 2, A is the hot entry (hit between
  // inserts). FIFO evicted by insertion age -> A died when C arrived;
  // LRU must evict the cold B instead.
  ResponseCache cache(2);
  const auto a = frame_of(1), b = frame_of(2), c = frame_of(3);
  cache.insert(a.data(), 4, result_of(1));
  cache.insert(b.data(), 4, result_of(2));
  ASSERT_TRUE(cache.lookup(a.data(), 4).has_value());  // A is hot now
  cache.insert(c.data(), 4, result_of(3));
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_TRUE(cache.lookup(a.data(), 4).has_value()) << "hot entry was evicted (FIFO behavior)";
  EXPECT_FALSE(cache.lookup(b.data(), 4).has_value()) << "cold entry should have been evicted";
  EXPECT_TRUE(cache.lookup(c.data(), 4).has_value());
}

TEST(ResponseCacheLru, LookupRefreshesRecency) {
  ResponseCache cache(3);
  for (int tag = 1; tag <= 3; ++tag) {
    const auto f = frame_of(tag);
    cache.insert(f.data(), 4, result_of(tag));
  }
  // Touch 1 (the oldest insert); inserting 4 must now evict 2.
  const auto f1 = frame_of(1);
  ASSERT_TRUE(cache.lookup(f1.data(), 4).has_value());
  const auto f4 = frame_of(4);
  cache.insert(f4.data(), 4, result_of(4));
  EXPECT_TRUE(cache.lookup(f1.data(), 4).has_value());
  const auto f2 = frame_of(2);
  EXPECT_FALSE(cache.lookup(f2.data(), 4).has_value());
}

TEST(ResponseCacheLru, ByteExactCompareRejectsSyntheticCollisions) {
  // Force every key onto one hash bucket: correctness must now come
  // entirely from the byte-exact compare.
  ResponseCache cache(8, [](const float*, std::int64_t) { return std::uint64_t{42}; });
  for (int tag = 0; tag < 8; ++tag) {
    const auto f = frame_of(tag);
    cache.insert(f.data(), 4, result_of(tag));
  }
  for (int tag = 0; tag < 8; ++tag) {
    const auto f = frame_of(tag);
    const auto hit = cache.lookup(f.data(), 4);
    ASSERT_TRUE(hit.has_value()) << tag;
    EXPECT_EQ(hit->prediction, tag) << "collision served the wrong entry";
  }
  // A frame that collides but differs in one byte must miss...
  auto mutated = frame_of(3);
  mutated[1] = 1e-30f;
  EXPECT_FALSE(cache.lookup(mutated.data(), 4).has_value());
  // ...and so must a colliding frame of a different length.
  const auto longer = frame_of(3, 5);
  EXPECT_FALSE(cache.lookup(longer.data(), 5).has_value());
}

TEST(ResponseCacheLru, CollidingEntriesEvictIndependently) {
  ResponseCache cache(2, [](const float*, std::int64_t) { return std::uint64_t{7}; });
  const auto a = frame_of(1), b = frame_of(2), c = frame_of(3);
  cache.insert(a.data(), 4, result_of(1));
  cache.insert(b.data(), 4, result_of(2));
  cache.insert(c.data(), 4, result_of(3));  // evicts A (LRU) from the shared bucket
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.lookup(a.data(), 4).has_value());
  EXPECT_TRUE(cache.lookup(b.data(), 4).has_value());
  EXPECT_TRUE(cache.lookup(c.data(), 4).has_value());
}

TEST(ResponseCacheLru, ReinsertRefreshesWithoutDuplicating) {
  ResponseCache cache(2);
  const auto a = frame_of(1), b = frame_of(2), c = frame_of(3);
  cache.insert(a.data(), 4, result_of(1));
  cache.insert(b.data(), 4, result_of(2));
  // Re-inserting A must not duplicate it, and must refresh its recency
  // (keeping the first stored result — concurrent workers race
  // benignly).
  cache.insert(a.data(), 4, result_of(99));
  EXPECT_EQ(cache.size(), 2u);
  cache.insert(c.data(), 4, result_of(3));
  EXPECT_FALSE(cache.lookup(b.data(), 4).has_value());
  const auto hit = cache.lookup(a.data(), 4);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->prediction, 1);
}

TEST(ResponseCacheLru, ZeroCapacityIsRejected) {
  EXPECT_THROW(ResponseCache(0), std::invalid_argument);
}

/// Oracle: the textbook std::list LRU (front = MRU), linear scans.
class OracleLru {
 public:
  explicit OracleLru(std::size_t capacity) : capacity_(capacity) {}

  std::optional<int> lookup(const std::vector<float>& key) {
    const auto it = find(key);
    if (it == entries_.end()) {
      ++misses_;
      return std::nullopt;
    }
    entries_.splice(entries_.begin(), entries_, it);
    ++hits_;
    return it->second;
  }

  void insert(const std::vector<float>& key, int value) {
    const auto it = find(key);
    if (it != entries_.end()) {
      entries_.splice(entries_.begin(), entries_, it);
      return;
    }
    entries_.emplace_front(key, value);
    if (entries_.size() > capacity_) {
      entries_.pop_back();
      ++evictions_;
    }
  }

  std::size_t size() const { return entries_.size(); }
  std::int64_t hits() const { return hits_; }
  std::int64_t misses() const { return misses_; }
  std::int64_t evictions() const { return evictions_; }

 private:
  std::list<std::pair<std::vector<float>, int>>::iterator find(const std::vector<float>& key) {
    return std::find_if(entries_.begin(), entries_.end(), [&](const auto& e) {
      return e.first.size() == key.size() &&
             std::memcmp(e.first.data(), key.data(), key.size() * sizeof(float)) == 0;
    });
  }

  const std::size_t capacity_;
  std::list<std::pair<std::vector<float>, int>> entries_;
  std::int64_t hits_ = 0, misses_ = 0, evictions_ = 0;
};

TEST(ResponseCacheLru, AgreesWithOracleUnderSeededOpStream) {
  // Small key universe over a small capacity so hits, misses, and
  // evictions all fire constantly; a narrowed hasher (8 buckets) keeps
  // the collision path hot too.
  constexpr int kUniverse = 24;
  constexpr std::size_t kCapacity = 7;
  constexpr int kOps = 4000;
  ResponseCache cache(kCapacity, [](const float* f, std::int64_t n) {
    return ResponseCache::fnv1a(f, n) % 8;
  });
  OracleLru oracle(kCapacity);
  util::Rng rng(0x50a5ULL);
  for (int op = 0; op < kOps; ++op) {
    const int tag = rng.uniform_int(0, kUniverse - 1);
    const auto key = frame_of(tag);
    if (rng.bernoulli(0.5)) {
      const auto got = cache.lookup(key.data(), 4);
      const auto want = oracle.lookup(key);
      ASSERT_EQ(got.has_value(), want.has_value()) << "op " << op << " tag " << tag;
      if (got) {
        EXPECT_EQ(got->prediction, *want) << "op " << op;
      }
    } else {
      cache.insert(key.data(), 4, result_of(tag));
      oracle.insert(key, tag);
    }
    ASSERT_LE(cache.size(), kCapacity) << "capacity exceeded at op " << op;
    ASSERT_EQ(cache.size(), oracle.size()) << "op " << op;
  }
  EXPECT_EQ(cache.hits(), oracle.hits());
  EXPECT_EQ(cache.misses(), oracle.misses());
  EXPECT_EQ(cache.evictions(), oracle.evictions());
  EXPECT_GT(cache.hits(), 0);
  EXPECT_GT(cache.evictions(), 0);
}

}  // namespace
}  // namespace meanet::runtime

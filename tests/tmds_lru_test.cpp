// TxLruMap / TxLruShard: strict LRU eviction order, the per-shard capacity
// invariant, exact statistics summing across shards, shard-selection
// geometry, and concurrent conservation under mixed load.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "backend_param.h"
#include "tm/api.h"
#include "tmds/tx_lru_map.h"

namespace tmcv::tmds {
namespace {

using tm::Backend;

class LruBackends : public test::BackendParamTest {};

INSTANTIATE_TEST_SUITE_P(AllBackends, LruBackends,
                         ::testing::Values(Backend::EagerSTM, Backend::HTM,
                                           Backend::NOrec),
                         [](const auto& info) {
                           return std::string(tm::to_string(info.param));
                         });

// ---- single shard ----

TEST_P(LruBackends, ShardBasicGetPutEraseAndStats) {
  TxLruShard<std::uint64_t, std::uint64_t> shard(8, 16);
  std::uint64_t v = 0;
  EXPECT_FALSE(shard.get(1, v));  // miss
  EXPECT_TRUE(shard.put(1, 10));  // fresh insert
  EXPECT_FALSE(shard.put(1, 11)); // overwrite
  EXPECT_TRUE(shard.get(1, v));
  EXPECT_EQ(v, 11u);
  EXPECT_TRUE(shard.erase(1));
  EXPECT_FALSE(shard.erase(1));
  const LruStats s = shard.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.size, 0u);
}

TEST_P(LruBackends, ShardEvictsInStrictLruOrder) {
  TxLruShard<std::uint64_t, std::uint64_t> shard(3, 8);
  shard.put(1, 1);
  shard.put(2, 2);
  shard.put(3, 3);
  // Recency now 3 > 2 > 1.  Touch 1 via get: 1 > 3 > 2.
  std::uint64_t v = 0;
  EXPECT_TRUE(shard.get(1, v));
  EXPECT_EQ(shard.keys_by_recency(),
            (std::vector<std::uint64_t>{1, 3, 2}));
  // Insert into the full shard: strict LRU evicts 2 (not 1 or 3).
  shard.put(4, 4);
  EXPECT_FALSE(shard.contains(2));
  EXPECT_TRUE(shard.contains(1));
  EXPECT_TRUE(shard.contains(3));
  EXPECT_TRUE(shard.contains(4));
  // Overwrite refreshes recency too: put(3), then evict -> victim is 1.
  shard.put(3, 33);
  shard.put(5, 5);
  EXPECT_FALSE(shard.contains(1));
  EXPECT_EQ(shard.stats().evictions, 2u);
}

TEST_P(LruBackends, ShardSizeNeverExceedsCapacity) {
  constexpr std::size_t kCap = 16;
  TxLruShard<std::uint64_t, std::uint64_t> shard(kCap, 16);
  for (std::uint64_t k = 0; k < 200; ++k) {
    shard.put(k, k);
    ASSERT_LE(shard.size(), kCap);
  }
  const LruStats s = shard.stats();
  EXPECT_EQ(s.size, kCap);
  EXPECT_EQ(s.evictions, 200u - kCap);
  // The survivors are exactly the kCap most recent inserts.
  for (std::uint64_t k = 200 - kCap; k < 200; ++k)
    EXPECT_TRUE(shard.contains(k));
}

TEST_P(LruBackends, ShardComposesWithAbortingTransaction) {
  TxLruShard<std::uint64_t, std::uint64_t> shard(4, 8);
  shard.put(1, 1);
  try {
    tm::atomically([&] {
      shard.put(2, 2);
      std::uint64_t v = 0;
      EXPECT_TRUE(shard.get(1, v));
      throw std::runtime_error("abort");
    });
  } catch (const std::runtime_error&) {
  }
  // Rolled back wholesale: no key 2, and even the hit counter reverted.
  EXPECT_EQ(shard.size(), 1u);
  const LruStats s = shard.stats();
  EXPECT_EQ(s.hits, 0u);
  // contains() above rolled back; survivors' stats only reflect committed
  // operations.
}

// ---- sharded map ----

TEST_P(LruBackends, MapRoutesEveryKeyToExactlyOneShard) {
  TxLruMap<std::uint64_t, std::uint64_t> map(8, 64, 64);
  EXPECT_EQ(map.shard_count(), 8u);
  for (std::uint64_t k = 0; k < 2000; ++k) {
    const std::size_t idx = map.shard_index(k);
    ASSERT_LT(idx, 8u);
    map.put(k, k);
    // The key must live in the shard the index function names.
    EXPECT_TRUE(map.shard(idx).contains(k));
  }
  // With a multiplicative hash the spread should touch every shard.
  for (std::size_t i = 0; i < map.shard_count(); ++i)
    EXPECT_GT(map.shard(i).size(), 0u);
}

TEST_P(LruBackends, MapStatsSumExactlyAcrossShards) {
  TxLruMap<std::uint64_t, std::uint64_t> map(4, 8, 16);
  constexpr std::uint64_t kOps = 500;
  std::uint64_t v = 0;
  for (std::uint64_t k = 0; k < kOps; ++k) map.put(k, k);
  std::uint64_t hits = 0, misses = 0;
  for (std::uint64_t k = 0; k < kOps; ++k)
    if (map.get(k, v)) ++hits; else ++misses;
  // Quiescent: the aggregate must equal the exact per-shard sums AND the
  // client-side tallies (hits + misses == completed gets).
  const LruStats total = map.stats();
  EXPECT_EQ(total.hits, hits);
  EXPECT_EQ(total.misses, misses);
  EXPECT_EQ(total.hits + total.misses, kOps);
  LruStats manual;
  for (std::size_t i = 0; i < map.shard_count(); ++i)
    manual += map.shard(i).stats();
  EXPECT_EQ(manual.hits, total.hits);
  EXPECT_EQ(manual.misses, total.misses);
  EXPECT_EQ(manual.evictions, total.evictions);
  EXPECT_EQ(manual.size, total.size);
  EXPECT_EQ(map.size(), total.size);
}

TEST_P(LruBackends, MapCapacityInvariantHoldsPerShardUnderOverfill) {
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kCap = 8;
  TxLruMap<std::uint64_t, std::uint64_t> map(kShards, kCap, 16);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    map.put(k, k);
    for (std::size_t i = 0; i < kShards; ++i)
      ASSERT_LE(map.shard(i).size(), kCap);
  }
  const LruStats s = map.stats();
  EXPECT_LE(s.size, kShards * kCap);
  EXPECT_EQ(s.evictions, 1000u - s.size);
}

TEST_P(LruBackends, MapSingleShardDegeneratesToOneShard) {
  TxLruMap<std::uint64_t, std::uint64_t> map(1, 4, 8);
  for (std::uint64_t k = 0; k < 10; ++k) {
    EXPECT_EQ(map.shard_index(k), 0u);
    map.put(k, k);
  }
  EXPECT_EQ(map.size(), 4u);
}

TEST_P(LruBackends, MapConcurrentMixedOpsKeepInvariants) {
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kCap = 64;
  TxLruMap<std::uint64_t, std::uint64_t> map(kShards, kCap, 64);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kOpsPer = 800;
  std::vector<std::uint64_t> local_gets(kThreads, 0);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::uint64_t v = 0;
      for (std::uint64_t i = 0; i < kOpsPer; ++i) {
        const std::uint64_t k = (i * 7 + static_cast<std::uint64_t>(t)) % 97;
        switch (i % 4) {
          case 0:
          case 1:
            (void)map.get(k, v);
            ++local_gets[static_cast<std::size_t>(t)];
            break;
          case 2:
            map.put(k, k);
            break;
          default:
            (void)map.erase(k);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  // Exactness at quiescence: hits + misses equals the gets the clients
  // actually issued -- the transactional counters drop nothing.
  std::uint64_t gets = 0;
  for (const auto g : local_gets) gets += g;
  const LruStats s = map.stats();
  EXPECT_EQ(s.hits + s.misses, gets);
  for (std::size_t i = 0; i < kShards; ++i)
    EXPECT_LE(map.shard(i).size(), kCap);
  EXPECT_EQ(map.size(), s.size);
}

}  // namespace
}  // namespace tmcv::tmds

// Transactional data structures: sequential semantics, composability with
// ambient transactions (including rollback), and concurrent conservation
// properties on every backend.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "backend_param.h"
#include "tm/api.h"
#include "tm/epoch.h"
#include "tmds/tx_hashmap.h"
#include "tmds/tx_queue.h"
#include "tmds/tx_stack.h"

namespace tmcv::tmds {
namespace {

using tm::Backend;

class TmdsBackends : public test::BackendParamTest {};

INSTANTIATE_TEST_SUITE_P(AllBackends, TmdsBackends,
                         ::testing::Values(Backend::EagerSTM, Backend::HTM,
                                           Backend::NOrec),
                         [](const auto& info) {
                           return std::string(tm::to_string(info.param));
                         });

// ---- TxStack ----

TEST_P(TmdsBackends, StackLifoOrder) {
  TxStack<int> stack;
  EXPECT_TRUE(stack.empty());
  for (int i = 1; i <= 5; ++i) stack.push(i);
  EXPECT_EQ(stack.size(), 5u);
  int v = 0;
  EXPECT_TRUE(stack.peek(v));
  EXPECT_EQ(v, 5);
  for (int i = 5; i >= 1; --i) {
    EXPECT_TRUE(stack.pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(stack.pop(v));
  EXPECT_TRUE(stack.empty());
}

TEST_P(TmdsBackends, StackComposesWithAbortingTransaction) {
  TxStack<int> stack;
  stack.push(1);
  try {
    tm::atomically([&] {
      stack.push(2);
      int v = 0;
      EXPECT_TRUE(stack.pop(v));
      EXPECT_EQ(v, 2);
      EXPECT_TRUE(stack.pop(v));
      EXPECT_EQ(v, 1);
      throw std::runtime_error("abort");
    });
  } catch (const std::runtime_error&) {
  }
  // The whole nest rolled back: the stack holds exactly {1} again.
  EXPECT_EQ(stack.size(), 1u);
  int v = 0;
  EXPECT_TRUE(stack.pop(v));
  EXPECT_EQ(v, 1);
}

TEST_P(TmdsBackends, StackConcurrentPushPopConserves) {
  TxStack<std::uint64_t> stack;
  constexpr int kThreads = 4;
  constexpr int kOps = 500;
  std::atomic<std::uint64_t> pushed_sum{0}, popped_sum{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        const std::uint64_t v = static_cast<std::uint64_t>(t) * kOps + i + 1;
        stack.push(v);
        pushed_sum.fetch_add(v);
        std::uint64_t out = 0;
        if (stack.pop(out)) popped_sum.fetch_add(out);
      }
    });
  }
  for (auto& th : threads) th.join();
  std::uint64_t rest = 0;
  std::uint64_t out = 0;
  while (stack.pop(out)) rest += out;
  EXPECT_EQ(pushed_sum.load(), popped_sum.load() + rest);
  tm::gc_collect();
}

// ---- TxQueue ----

TEST_P(TmdsBackends, QueueFifoOrder) {
  TxQueue<int> queue;
  for (int i = 1; i <= 5; ++i) queue.enqueue(i);
  int v = 0;
  EXPECT_TRUE(queue.front(v));
  EXPECT_EQ(v, 1);
  for (int i = 1; i <= 5; ++i) {
    EXPECT_TRUE(queue.dequeue(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(queue.dequeue(v));
  EXPECT_TRUE(queue.empty());
}

TEST_P(TmdsBackends, QueueAtomicTransferBetweenQueues) {
  // Composability: move an element between two queues atomically; an
  // observer transaction must never see it in both or neither.
  TxQueue<int> a, b;
  a.enqueue(42);
  std::atomic<bool> stop{false};
  std::atomic<int> anomalies{0};
  std::thread observer([&] {
    while (!stop.load()) {
      const int visible = tm::atomically([&] {
        int count = 0;
        int v = 0;
        if (a.front(v)) ++count;
        if (b.front(v)) ++count;
        return count;
      });
      if (visible != 1) anomalies.fetch_add(1);
    }
  });
  for (int i = 0; i < 500; ++i) {
    tm::atomically([&] {
      int v = 0;
      if (a.dequeue(v))
        b.enqueue(v);
      else if (b.dequeue(v))
        a.enqueue(v);
    });
  }
  stop.store(true);
  observer.join();
  EXPECT_EQ(anomalies.load(), 0);
}

TEST_P(TmdsBackends, QueueMpmcConservation) {
  TxQueue<std::uint64_t> queue;
  constexpr int kProducers = 2, kConsumers = 2, kItems = 600;
  std::atomic<std::uint64_t> consumed_sum{0};
  std::atomic<int> consumed_count{0};
  std::atomic<bool> done_producing{false};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kItems; ++i)
        queue.enqueue(static_cast<std::uint64_t>(p) * kItems + i + 1);
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      std::uint64_t v = 0;
      for (;;) {
        if (queue.dequeue(v)) {
          consumed_sum.fetch_add(v);
          consumed_count.fetch_add(1);
        } else if (done_producing.load()) {
          if (!queue.dequeue(v)) break;
          consumed_sum.fetch_add(v);
          consumed_count.fetch_add(1);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  threads[0].join();
  threads[1].join();
  done_producing.store(true);
  for (std::size_t i = 2; i < threads.size(); ++i) threads[i].join();
  EXPECT_EQ(consumed_count.load(), kProducers * kItems);
  std::uint64_t expected = 0;
  for (int p = 0; p < kProducers; ++p)
    for (int i = 0; i < kItems; ++i)
      expected += static_cast<std::uint64_t>(p) * kItems + i + 1;
  EXPECT_EQ(consumed_sum.load(), expected);
}

// ---- TxHashMap ----

TEST_P(TmdsBackends, HashMapBasicOperations) {
  TxHashMap<std::uint64_t, std::uint64_t> map(64);
  EXPECT_TRUE(map.put(1, 100));
  EXPECT_TRUE(map.put(2, 200));
  EXPECT_FALSE(map.put(1, 111));  // overwrite
  std::uint64_t v = 0;
  EXPECT_TRUE(map.get(1, v));
  EXPECT_EQ(v, 111u);
  EXPECT_TRUE(map.get(2, v));
  EXPECT_EQ(v, 200u);
  EXPECT_FALSE(map.get(3, v));
  EXPECT_EQ(map.size(), 2u);
  EXPECT_TRUE(map.erase(1));
  EXPECT_FALSE(map.erase(1));
  EXPECT_FALSE(map.contains(1));
  EXPECT_EQ(map.size(), 1u);
}

TEST_P(TmdsBackends, HashMapCollidingKeysChainCorrectly) {
  // With 2 buckets, many keys collide; chains must behave.
  TxHashMap<std::uint64_t, std::uint64_t> map(2);
  for (std::uint64_t k = 0; k < 40; ++k) EXPECT_TRUE(map.put(k, k * k));
  EXPECT_EQ(map.size(), 40u);
  for (std::uint64_t k = 0; k < 40; ++k) {
    std::uint64_t v = 0;
    ASSERT_TRUE(map.get(k, v)) << k;
    EXPECT_EQ(v, k * k);
  }
  // Erase every other key; the rest must survive.
  for (std::uint64_t k = 0; k < 40; k += 2) EXPECT_TRUE(map.erase(k));
  EXPECT_EQ(map.size(), 20u);
  for (std::uint64_t k = 1; k < 40; k += 2) EXPECT_TRUE(map.contains(k));
  for (std::uint64_t k = 0; k < 40; k += 2) EXPECT_FALSE(map.contains(k));
}

TEST_P(TmdsBackends, HashMapGetOrPutFirstWriterWins) {
  TxHashMap<std::uint64_t, std::uint64_t> map(64);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kKeys = 50;
  std::vector<std::thread> threads;
  std::vector<std::vector<std::uint64_t>> observed(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      observed[t].resize(kKeys);
      for (std::uint64_t k = 0; k < kKeys; ++k)
        observed[t][k] = map.get_or_put(k, static_cast<std::uint64_t>(t) + 1);
    });
  }
  for (auto& th : threads) th.join();
  // Every thread must have observed the SAME winner for each key.
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    for (int t = 1; t < kThreads; ++t)
      EXPECT_EQ(observed[t][k], observed[0][k]) << "key " << k;
    std::uint64_t v = 0;
    ASSERT_TRUE(map.get(k, v));
    EXPECT_EQ(v, observed[0][k]);
  }
  EXPECT_EQ(map.size(), kKeys);
}

TEST_P(TmdsBackends, HashMapComposedInventoryInvariant) {
  // Classic composition: move a unit between two map entries atomically.
  TxHashMap<std::uint64_t, std::uint64_t> map(16);
  map.put(0, 100);
  map.put(1, 100);
  constexpr int kTransfers = 400;
  std::thread mover([&] {
    for (int i = 0; i < kTransfers; ++i) {
      tm::atomically([&] {
        std::uint64_t a = 0, b = 0;
        (void)map.get(0, a);
        (void)map.get(1, b);
        if (a > 0) {
          map.put(0, a - 1);
          map.put(1, b + 1);
        }
      });
    }
  });
  int anomalies = 0;
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t total = tm::atomically([&] {
      std::uint64_t a = 0, b = 0;
      (void)map.get(0, a);
      (void)map.get(1, b);
      return a + b;
    });
    if (total != 200) ++anomalies;
  }
  mover.join();
  EXPECT_EQ(anomalies, 0);
}

// ---- TxHashMap incremental rehash ----

TEST_P(TmdsBackends, HashMapRehashPreservesContents) {
  TxHashMap<std::uint64_t, std::uint64_t> map(16);
  constexpr std::uint64_t kKeys = 200;
  for (std::uint64_t k = 0; k < kKeys; ++k) map.put(k, k * 3);
  EXPECT_FALSE(map.rehash_pending());
  ASSERT_TRUE(map.rehash(256));
  EXPECT_TRUE(map.rehash_pending());
  EXPECT_EQ(map.bucket_count(), 256u);  // active table switched immediately
  EXPECT_FALSE(map.rehash(512));        // one migration at a time
  // Mid-migration, every key must stay visible (old-table fallback).
  std::uint64_t v = 0;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(map.get(k, v)) << k;
    EXPECT_EQ(v, k * 3);
  }
  map.migrate_all();
  EXPECT_FALSE(map.rehash_pending());
  EXPECT_EQ(map.size(), kKeys);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(map.get(k, v));
    EXPECT_EQ(v, k * 3);
  }
  // Shrink back down, exercising the other direction.
  ASSERT_TRUE(map.rehash(32));
  map.migrate_all();
  EXPECT_EQ(map.size(), kKeys);
  for (std::uint64_t k = 0; k < kKeys; ++k) EXPECT_TRUE(map.contains(k));
}

TEST_P(TmdsBackends, HashMapMutationsDuringMigrationLand) {
  // Inserts/erases/overwrites issued while the cursor is mid-table must
  // resolve against whichever table currently holds the key.
  TxHashMap<std::uint64_t, std::uint64_t> map(16);
  for (std::uint64_t k = 0; k < 100; ++k) map.put(k, k);
  ASSERT_TRUE(map.rehash(128));
  EXPECT_FALSE(map.put(5, 500));   // overwrite (likely still in old table)
  EXPECT_TRUE(map.erase(6));
  EXPECT_TRUE(map.put(1000, 1));   // fresh insert goes to the active table
  EXPECT_EQ(map.get_or_put(7, 999), 7u);  // existing key wins
  map.migrate_all();
  std::uint64_t v = 0;
  EXPECT_TRUE(map.get(5, v));
  EXPECT_EQ(v, 500u);
  EXPECT_FALSE(map.contains(6));
  EXPECT_TRUE(map.contains(1000));
  EXPECT_EQ(map.size(), 100u);  // 100 - erased + inserted
}

TEST_P(TmdsBackends, HashMapConcurrentMixedOpsWithResizeInFlight) {
  // The satellite scenario: mixed get/set/delete from several threads while
  // a rehash migrates underneath them.  Correctness oracle: a per-thread
  // disjoint key range, so each thread can verify its own writes exactly.
  TxHashMap<std::uint64_t, std::uint64_t> map(16);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 300;
  std::atomic<bool> resize_done{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      const std::uint64_t base = static_cast<std::uint64_t>(t) * kPerThread;
      for (std::uint64_t i = 0; i < kPerThread; ++i)
        map.put(base + i, base + i + 1);
      std::uint64_t v = 0;
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        EXPECT_TRUE(map.get(base + i, v));
        EXPECT_EQ(v, base + i + 1);
      }
      for (std::uint64_t i = 0; i < kPerThread; i += 2)
        EXPECT_TRUE(map.erase(base + i));
    });
  }
  std::thread resizer([&] {
    // Grow, drain cooperatively alongside the workers, then shrink.
    while (!map.rehash(512)) std::this_thread::yield();
    map.migrate_all();
    while (!map.rehash(64)) std::this_thread::yield();
    map.migrate_all();
    resize_done.store(true);
  });
  for (auto& w : workers) w.join();
  resizer.join();
  EXPECT_TRUE(resize_done.load());
  map.migrate_all();
  // Survivors: exactly the odd offsets of each range, values intact.
  std::uint64_t v = 0;
  std::size_t live = 0;
  for (int t = 0; t < kThreads; ++t) {
    const std::uint64_t base = static_cast<std::uint64_t>(t) * kPerThread;
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      const bool expect_live = (i % 2) == 1;
      EXPECT_EQ(map.contains(base + i), expect_live);
      if (expect_live) {
        ++live;
        EXPECT_TRUE(map.get(base + i, v));
        EXPECT_EQ(v, base + i + 1);
      }
    }
  }
  EXPECT_EQ(map.size(), live);
}

}  // namespace
}  // namespace tmcv::tmds

// Fast-path engineering tests: read-set dedup (including orec aliasing),
// the redo log's scan-then-index lookups across rehash, and the allocation-free
// batched wakeup path (notify-all inside an aborted transaction must post
// nothing; a committed notify-all of N waiters must register zero onCommit
// handlers).
#include <gtest/gtest.h>

#include "backend_fixture.h"  // orec/HTM-specific: pin the eager default

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "backend_param.h"
#include "core/condvar.h"
#include "tm/api.h"
#include "tm/orec.h"
#include "tm/stats.h"
#include "tm/var.h"

namespace tmcv {
namespace {

using tm::Backend;
using tm::Stats;

std::uint64_t orec_index(const tm::var<std::uint64_t>& v) {
  return static_cast<std::uint64_t>(&tm::orec_for(v.word()) -
                                    &tm::orec_at(0));
}

// Repeated reads of one stripe collapse to a single read-set entry.
TEST(TmFastPath, DedupRepeatedReads) {
  tm::var<std::uint64_t> x(7);
  tm::stats_reset();
  std::uint64_t sum = 0;
  tm::atomically(Backend::EagerSTM, [&] {
    sum = 0;
    for (int i = 0; i < 100; ++i) sum += x.load();
  });
  EXPECT_EQ(sum, 700u);
  const Stats s = tm::stats_snapshot();
  EXPECT_EQ(s.read_dedup_appends, 1u);
  EXPECT_EQ(s.read_dedup_hits, 99u);
  EXPECT_DOUBLE_EQ(s.dedup_hit_rate(), 0.99);
}

// Two distinct variables striped onto the SAME orec: the filter treats them
// as one stripe (dedup keys on the orec, which is exactly the granularity
// validation runs at), and both values must still read and commit correctly.
TEST(TmFastPath, DedupUnderOrecAliasing) {
  // Pigeonhole over the orec table guarantees a collision well before
  // kOrecCount allocations; in practice a few hundred suffice (birthday).
  std::vector<std::unique_ptr<tm::var<std::uint64_t>>> vars;
  std::unordered_map<std::uint64_t, tm::var<std::uint64_t>*> by_orec;
  tm::var<std::uint64_t>* a = nullptr;
  tm::var<std::uint64_t>* b = nullptr;
  for (std::uint64_t i = 0; i < tm::kOrecCount + 1 && b == nullptr; ++i) {
    vars.push_back(std::make_unique<tm::var<std::uint64_t>>(i));
    auto [it, fresh] = by_orec.emplace(orec_index(*vars.back()), vars.back().get());
    if (!fresh) {
      a = it->second;
      b = vars.back().get();
    }
  }
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(orec_index(*a), orec_index(*b));

  tm::atomically(Backend::EagerSTM, [&] {
    a->store(111);
    b->store(222);
  });
  tm::stats_reset();
  std::uint64_t va = 0, vb = 0;
  tm::atomically(Backend::EagerSTM, [&] {
    va = vb = 0;
    for (int i = 0; i < 10; ++i) {
      va += a->load();
      vb += b->load();
    }
  });
  EXPECT_EQ(va, 1110u);
  EXPECT_EQ(vb, 2220u);
  const Stats s = tm::stats_snapshot();
  // One aliased stripe: a single append covers both variables, every other
  // read is a filter hit.
  EXPECT_EQ(s.read_dedup_appends, 1u);
  EXPECT_EQ(s.read_dedup_hits, 19u);
}

// Two stripes that collide in the dedup FILTER (same direct-mapped slot,
// different orecs) must still read correctly: a filter conflict only costs
// duplicate read-set entries, never correctness.
TEST(TmFastPath, FilterSlotCollisionIsBenign) {
  // kReadFilterSlots is 512, so any two vars whose orec indexes are equal
  // mod 512 (but unequal) share a filter slot.
  std::vector<std::unique_ptr<tm::var<std::uint64_t>>> vars;
  std::unordered_map<std::uint64_t, tm::var<std::uint64_t>*> by_slot;
  tm::var<std::uint64_t>* a = nullptr;
  tm::var<std::uint64_t>* b = nullptr;
  for (std::uint64_t i = 0; i < tm::kOrecCount + 1 && b == nullptr; ++i) {
    vars.push_back(std::make_unique<tm::var<std::uint64_t>>(0));
    const std::uint64_t idx = orec_index(*vars.back());
    auto [it, fresh] = by_slot.emplace(idx % 512, vars.back().get());
    if (!fresh && orec_index(*it->second) != idx) {
      a = it->second;
      b = vars.back().get();
    }
  }
  ASSERT_NE(a, nullptr);
  tm::atomically(Backend::EagerSTM, [&] {
    a->store(5);
    b->store(9);
  });
  std::uint64_t sum = 0;
  tm::atomically(Backend::EagerSTM, [&] {
    sum = 0;
    // Alternating reads evict each other from the shared slot every time.
    for (int i = 0; i < 50; ++i) sum += a->load() + b->load();
  });
  EXPECT_EQ(sum, 700u);
}

// Each case runs with the process default set to its param (the eager pin
// above is restored afterwards): under an eager default a NOrec request
// would run EagerSTM.
class TmFastPathBackends : public test::BackendParamTest {};

INSTANTIATE_TEST_SUITE_P(EagerAndNOrec, TmFastPathBackends,
                         ::testing::Values(Backend::EagerSTM, Backend::NOrec),
                         [](const auto& info) {
                           return std::string(tm::to_string(info.param));
                         });

// Read-after-write must stay exact while the redo log grows past the
// linear-scan threshold and its hash index grows through multiple rehashes
// (the index starts at 64 slots and rehashes at 3/4 load, so 200 distinct
// writes force several).  NOrec buffers its writes in that log; EagerSTM
// writes through memory and keeps no write index at all, so it must report
// zero rehashes.
TEST_P(TmFastPathBackends, LogIndexReadAfterWriteAcrossRehash) {
  constexpr int kVars = 200;
  std::vector<std::unique_ptr<tm::var<std::uint64_t>>> vars;
  for (int i = 0; i < kVars; ++i)
    vars.push_back(std::make_unique<tm::var<std::uint64_t>>(0));
  tm::stats_reset();
  bool ok = false;
  tm::atomically(GetParam(), [&] {
    ok = true;
    for (int i = 0; i < kVars; ++i) vars[i]->store(i * 3 + 1);
    // Read back through the redo log (NOrec) / write-through (EagerSTM):
    // every lookup must find the latest value, including entries inserted
    // before the last rehash.
    for (int i = 0; i < kVars; ++i)
      ok = ok && vars[i]->load() == static_cast<std::uint64_t>(i * 3 + 1);
    // Overwrite a prefix and re-check: the index must return the updated
    // log entries, not stale ones.
    for (int i = 0; i < 32; ++i) vars[i]->store(i);
    for (int i = 0; i < 32; ++i)
      ok = ok && vars[i]->load() == static_cast<std::uint64_t>(i);
  });
  EXPECT_TRUE(ok);
  for (int i = 0; i < 32; ++i)
    EXPECT_EQ(vars[i]->load(), static_cast<std::uint64_t>(i));
  for (int i = 32; i < kVars; ++i)
    EXPECT_EQ(vars[i]->load(), static_cast<std::uint64_t>(i * 3 + 1));
  const Stats s = tm::stats_snapshot();
  if (GetParam() == Backend::NOrec) {
    EXPECT_GE(s.log_index_rehashes, 1u);
  } else {
    EXPECT_EQ(s.log_index_rehashes, 0u);
  }
}

// NOTIFYALL inside a transaction that aborts must post no semaphore: the
// wake batch is discarded with the rollback, the queue is restored, and no
// waiter runs early (Algorithm 6's no-escaping-wakeups requirement).  A
// committed notify-all of 32 waiters must do it with ZERO deferred
// onCommit handler allocations (the wake batch replaces them) and one
// coalesced batch flush.
TEST_P(TmFastPathBackends, NotifyAllInAbortedTxnPostsNothing) {
  constexpr int kWaiters = 32;
  CondVar cv;
  std::mutex m;
  std::atomic<int> woke{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      m.lock();
      LockSync sync(m);
      cv.wait_final(sync);
      woke.fetch_add(1);
    });
  }
  while (cv.waiter_count() < kWaiters) std::this_thread::yield();

  tm::stats_reset();
  bool aborted_once = false;
  std::size_t notified = 0;
  tm::atomically([&] {
    notified = cv.notify_all();
    if (!aborted_once) {
      aborted_once = true;
      tm::retry_txn();  // explicit abort: the attempt rolls back
    }
  });
  EXPECT_TRUE(aborted_once);
  EXPECT_EQ(notified, static_cast<std::size_t>(kWaiters));

  // Both attempts queued kWaiters deferred wakes, but only the committed
  // one flushed a batch; no onCommit handler was ever allocated.
  const Stats s = tm::stats_snapshot();
  EXPECT_EQ(s.deferred_wakes, static_cast<std::uint64_t>(2 * kWaiters));
  EXPECT_EQ(s.wake_batches, 1u);
  EXPECT_EQ(s.handlers_registered, 0u);

  for (auto& t : waiters) t.join();
  EXPECT_EQ(woke.load(), kWaiters);
  EXPECT_EQ(cv.waiter_count(), 0u);
}

// The abort path alone: waiters must still be parked (queue intact, no
// posts) after a transaction that notified and then aborted for good.
TEST(TmFastPath, AbortDiscardsWakeBatchQueueIntact) {
  constexpr int kWaiters = 4;
  CondVar cv;
  std::mutex m;
  std::atomic<int> woke{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      m.lock();
      LockSync sync(m);
      cv.wait_final(sync);
      woke.fetch_add(1);
    });
  }
  while (cv.waiter_count() < kWaiters) std::this_thread::yield();

  tm::stats_reset();
  bool aborted_once = false;
  tm::atomically(Backend::EagerSTM, [&] {
    if (!aborted_once) {
      cv.notify_all();
      aborted_once = true;
      tm::retry_txn();
    }
    // Committed attempt leaves the queue alone.
  });
  // The aborted notify must not have released anyone, and the rollback must
  // have restored the full queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(woke.load(), 0);
  EXPECT_EQ(cv.waiter_count(), static_cast<std::size_t>(kWaiters));
  EXPECT_EQ(tm::stats_snapshot().wake_batches, 0u);

  cv.notify_all();
  for (auto& t : waiters) t.join();
  EXPECT_EQ(woke.load(), kWaiters);
}

}  // namespace
}  // namespace tmcv

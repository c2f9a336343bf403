// Wait-point registry: publish/clear pairing on the park paths, the
// WaitScope nesting guard, the runtime enable switch, and the stall
// table's two-ledger exactness under concurrent wakers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "core/condvar.h"
#include "sync/locks.h"
#include "sync/semaphore.h"
#include "sync/waitpoint.h"
#include "util/backoff.h"
#include "waitpoint_probe.h"

namespace tmcv {
namespace {

using test::await_parked;
using test::find_published;

std::uint64_t sum_cells(const std::uint64_t (*cells)[kStallSiteSlots]) {
  std::uint64_t sum = 0;
  for (std::uint32_t r = 0; r < kWaitReasonCount; ++r)
    for (std::uint32_t s = 0; s < kStallSiteSlots; ++s) sum += cells[r][s];
  return sum;
}

TEST(WaitPoint, ScopePublishesAndClears) {
  int dummy = 0;
  std::atomic<WaitSlot*> published{nullptr};
  std::atomic<bool> release{false};
  std::thread t([&] {
    WaitScope wp(WaitReason::kOrec, &dummy, /*site=*/3, /*detail=*/7);
    ASSERT_NE(wp.slot(), nullptr);
    published.store(wp.slot(), std::memory_order_release);
    while (!release.load(std::memory_order_acquire))
      std::this_thread::yield();
  });
  while (published.load(std::memory_order_acquire) == nullptr)
    std::this_thread::yield();
  WaitSlot* s = published.load();
  const std::uint64_t seq = s->seq.load(std::memory_order_acquire);
  EXPECT_EQ(seq & 1, 1u) << "slot must carry an odd seq while parked";
  const std::uint64_t info = s->info.load(std::memory_order_relaxed);
  EXPECT_EQ(wait_info_reason(info), WaitReason::kOrec);
  EXPECT_EQ(wait_info_site(info), 3u);
  EXPECT_EQ(wait_info_detail(info), 7u);
  EXPECT_EQ(s->target.load(std::memory_order_relaxed), &dummy);
  EXPECT_NE(s->os_tid.load(std::memory_order_relaxed), 0u);
  release.store(true, std::memory_order_release);
  t.join();
  // The scope cleared the slot on exit; the thread has not re-parked.
  EXPECT_EQ(s->seq.load(std::memory_order_acquire), 0u);
}

TEST(WaitPoint, NestedScopeIsInertAndKeepsOuterPublish) {
  int outer_target = 0, inner_target = 0;
  std::thread t([&] {
    WaitScope outer(WaitReason::kCondVar, &outer_target, /*site=*/5);
    ASSERT_NE(outer.slot(), nullptr);
    const std::uint64_t outer_seq =
        outer.slot()->seq.load(std::memory_order_acquire);
    {
      WaitScope inner(WaitReason::kSemaphore, &inner_target);
      EXPECT_EQ(inner.slot(), nullptr) << "inner scope must not claim";
      // The outer publish is untouched: same episode, same payload.
      EXPECT_EQ(outer.slot()->seq.load(std::memory_order_acquire),
                outer_seq);
      EXPECT_EQ(wait_info_reason(
                    outer.slot()->info.load(std::memory_order_relaxed)),
                WaitReason::kCondVar);
    }
    // Inner dtor must not clear the slot either.
    EXPECT_EQ(outer.slot()->seq.load(std::memory_order_acquire), outer_seq);
    EXPECT_EQ(outer.slot()->target.load(std::memory_order_relaxed),
              &outer_target);
  });
  t.join();
}

TEST(WaitPoint, DisableSwitchMakesScopesInert) {
  set_waitpoints_enabled(false);
  {
    WaitScope wp(WaitReason::kCondVar, nullptr);
    EXPECT_EQ(wp.slot(), nullptr);
  }
  set_waitpoints_enabled(true);
  {
    WaitScope wp(WaitReason::kCondVar, nullptr);
    EXPECT_NE(wp.slot(), nullptr);
  }
}

TEST(WaitPoint, CondVarWaitPublishesWhileParked) {
  CondVar cv;
  std::mutex m;
  std::thread waiter([&] {
    m.lock();
    LockSync sync(m);
    cv.wait(sync);
    m.unlock();
  });
  // The park path must publish (kCondVar, &cv) before sleeping...
  WaitSlot* s = await_parked(WaitReason::kCondVar, &cv);
  EXPECT_EQ(wait_info_reason(s->info.load(std::memory_order_relaxed)),
            WaitReason::kCondVar);
  // The slot is published after the enqueue, so this notify finds the
  // waiter queued.
  cv.notify_one();
  waiter.join();
  // ...and clear on wake: the pairing leaves nothing published.
  EXPECT_EQ(find_published(WaitReason::kCondVar, &cv), nullptr);
}

TEST(WaitPoint, SemaphoreParkPublishesWhileParked) {
  Semaphore sem;
  std::thread waiter([&] { sem.wait(); });
  WaitSlot* s = await_parked(WaitReason::kSemaphore, &sem);
  EXPECT_EQ(s->target.load(std::memory_order_relaxed), &sem);
  sem.post();
  waiter.join();
  EXPECT_EQ(find_published(WaitReason::kSemaphore, &sem), nullptr);
}

TEST(WaitPoint, ForeignSiteFoldsToUnattributed) {
  reset_stall_table();
  { WaitScope wp(WaitReason::kCondVar, nullptr, /*site=*/300); }
  static std::uint64_t cells[kWaitReasonCount][kStallSiteSlots];
  const std::uint64_t total = snapshot_stall(cells);
  EXPECT_EQ(sum_cells(cells), total);
  // Site 300 is outside the table; its ticks land in site 0.
  EXPECT_EQ(cells[static_cast<std::uint32_t>(WaitReason::kCondVar)][0],
            total);
  EXPECT_GT(total, 0u);
}

// The exactness invariant this whole table exists for: sum(cells) ==
// total for EVERY snapshot taken while four threads are folding park
// episodes in concurrently -- not just after they quiesce.
TEST(WaitPoint, StallTableExactUnderConcurrentWriters) {
  reset_stall_table();
  constexpr int kWriters = 4;
  constexpr int kEpisodes = 4000;
  std::atomic<bool> go{false};
  std::atomic<int> done{0};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      int target = 0;
      for (int i = 0; i < kEpisodes; ++i) {
        WaitScope wp(static_cast<WaitReason>(1 + (i + w) % 6), &target,
                     static_cast<std::uint16_t>(i % kStallSiteSlots));
        // A little busy-work so deltas are nonzero and episodes overlap.
        for (int spin = 0; spin < 8; ++spin) cpu_relax();
      }
      done.fetch_add(1, std::memory_order_release);
    });
  }
  static std::uint64_t cells[kWaitReasonCount][kStallSiteSlots];
  go.store(true, std::memory_order_release);
  std::uint64_t last_total = 0;
  int snapshots = 0;
  while (done.load(std::memory_order_acquire) != kWriters) {
    const std::uint64_t total = snapshot_stall(cells);
    ASSERT_EQ(sum_cells(cells), total)
        << "two-ledger invariant broke mid-traffic (snapshot "
        << snapshots << ")";
    ASSERT_GE(total, last_total) << "stall total went backwards";
    last_total = total;
    ++snapshots;
  }
  for (auto& t : writers) t.join();
  const std::uint64_t total = snapshot_stall(cells);
  EXPECT_EQ(sum_cells(cells), total);
  EXPECT_GT(total, 0u);
  EXPECT_GT(snapshots, 0);
}

}  // namespace
}  // namespace tmcv

// Wait-for graph and stuck-thread diagnosis: snapshot consistency under
// live park/wake traffic, probe digest fields, the deterministic
// lost-wakeup verdict (and its negative spaces), and the JSON exporters.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/condvar.h"
#include "obs/waitgraph.h"
#include "sync/locks.h"
#include "sync/semaphore.h"
#include "sync/waitpoint.h"
#include "tm/api.h"
#include "util/backoff.h"
#include "tm/var.h"

namespace tmcv {
namespace {

std::uint64_t entry_ticks_sum(const obs::StallSnapshot& s) {
  std::uint64_t sum = 0;
  for (const obs::StallEntry& e : s.entries) sum += e.ticks;
  return sum;
}

std::uint64_t entry_ns_sum(const obs::StallSnapshot& s) {
  std::uint64_t sum = 0;
  for (const obs::StallEntry& e : s.entries) sum += e.ns;
  return sum;
}

const obs::ThreadRow* find_waiting_row(const obs::WaitGraph& g,
                                       const void* target) {
  for (std::uint32_t i = 0; i < g.thread_count; ++i)
    if (g.rows[i].waiting && g.rows[i].target == target) return &g.rows[i];
  return nullptr;
}

// A waiter parked on `cv` until released.
struct ParkedWaiter {
  CondVar cv;
  std::mutex m;
  std::thread t;

  // Returns once the snapshot shows the waiter parked.  cv.waiter_count()
  // is no proof of that: it counts the waiter at enqueue, before the wait
  // slot is published, and a probe in that window sees no waiting thread.
  void park() {
    t = std::thread([this] {
      m.lock();
      LockSync sync(m);
      cv.wait(sync);
      m.unlock();
    });
    static obs::WaitGraph g;  // ~50 KiB; keep it off the stack
    for (;;) {
      obs::waitgraph_collect(g);
      if (find_waiting_row(g, &cv) != nullptr) return;
      std::this_thread::yield();
    }
  }

  // Only after park(): the waiter is already enqueued, so the notify
  // cannot be lost.
  void release() {
    cv.notify_one();
    t.join();
  }
};

TEST(WaitGraph, CollectSeesParkedCondvarWaiterAndItsEdge) {
  ParkedWaiter w;
  w.park();
  static obs::WaitGraph g;  // ~50 KiB; keep it off the stack
  obs::waitgraph_collect(g);
  const obs::ThreadRow* row = find_waiting_row(g, &w.cv);
  ASSERT_NE(row, nullptr) << "parked waiter missing from snapshot";
  EXPECT_EQ(row->reason, WaitReason::kCondVar);
  EXPECT_EQ(row->episode & 1, 1u);
  EXPECT_GT(row->age_ns, 0u);
  // Exactly one edge per waiting row, and this one has no live holder: a
  // condvar waiter is blocked on whoever notifies next.
  bool found_edge = false;
  for (std::uint32_t i = 0; i < g.edge_count; ++i) {
    const obs::WaitEdge& e = g.edges[i];
    ASSERT_LT(e.waiter, g.thread_count);
    if (&g.rows[e.waiter] == row) {
      found_edge = true;
      EXPECT_EQ(e.reason, WaitReason::kCondVar);
      EXPECT_EQ(e.holder, -1);
    }
  }
  EXPECT_TRUE(found_edge);
  w.release();
  obs::waitgraph_collect(g);
  EXPECT_EQ(find_waiting_row(g, &w.cv), nullptr);
}

TEST(WaitGraph, ProbeCountsWaitersAndAgesGrow) {
  obs::waitgraph_reset();
  ParkedWaiter w;
  w.park();
  const obs::WaitProbe p1 = obs::waitgraph_probe();
  EXPECT_GE(p1.threads_waiting, 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  const obs::WaitProbe p2 = obs::waitgraph_probe();
  EXPECT_GE(p2.threads_waiting, 1u);
  EXPECT_GT(p2.max_wait_age_ms, p1.max_wait_age_ms);
  w.release();
  // The finished episode folds its park time into the next interval delta.
  const obs::WaitProbe p3 = obs::waitgraph_probe();
  EXPECT_GT(p3.stall_ns, 0u);
  EXPECT_EQ(p3.stall_top_reason,
            static_cast<std::uint64_t>(WaitReason::kCondVar));
}

TEST(WaitGraph, LostWakeupSuspectIsDeterministic) {
  obs::waitgraph_reset();
  obs::set_stuck_windows(2);
  ParkedWaiter w;
  // Condition (c): the condvar must have been notified BEFORE the stuck
  // episode began -- run one healthy round first.
  {
    std::thread healthy([&] {
      w.m.lock();
      LockSync sync(w.m);
      w.cv.wait(sync);
      w.m.unlock();
    });
    while (w.cv.waiter_count() == 0) std::this_thread::yield();
    w.cv.notify_one();
    healthy.join();
  }
  w.park();  // the notify for this round is never sent
  tm::var<std::uint64_t> beat(0);
  for (int probe = 0; probe < 5; ++probe) {
    // Condition (d): healthy transactional progress elsewhere.
    tm::atomically([&] { beat.store(beat.load() + 1); });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    (void)obs::waitgraph_probe();
  }
  const obs::WaitProbe p = obs::waitgraph_probe();
  EXPECT_GT(p.stuck_age_ms, 0u);
  static obs::WaitGraph g;
  obs::waitgraph_collect(g);
  const obs::ThreadRow* row = find_waiting_row(g, &w.cv);
  ASSERT_NE(row, nullptr);
  ASSERT_GE(g.suspect_count, 1u);
  bool flagged = false;
  for (std::uint32_t i = 0; i < g.suspect_count; ++i) {
    ASSERT_LT(g.suspects[i], g.thread_count);
    if (&g.rows[g.suspects[i]] == row) flagged = true;
  }
  EXPECT_TRUE(flagged) << "orphaned waiter not flagged as suspect";
  w.release();
  (void)obs::waitgraph_probe();
  obs::waitgraph_collect(g);
  EXPECT_EQ(g.suspect_count, 0u) << "suspect survived its own wake";
}

TEST(WaitGraph, NeverNotifiedCondvarIsNotASuspect) {
  obs::waitgraph_reset();
  obs::set_stuck_windows(2);
  ParkedWaiter w;  // a phase barrier: parked, but never once notified
  w.park();
  tm::var<std::uint64_t> beat(0);
  for (int probe = 0; probe < 5; ++probe) {
    tm::atomically([&] { beat.store(beat.load() + 1); });
    (void)obs::waitgraph_probe();
  }
  static obs::WaitGraph g;
  obs::waitgraph_collect(g);
  EXPECT_EQ(g.suspect_count, 0u);
  w.release();
}

TEST(WaitGraph, SemaphoreParkIsNeverJudgedStuck) {
  obs::waitgraph_reset();
  obs::set_stuck_windows(2);
  Semaphore sem;
  std::thread waiter([&] { sem.wait(); });
  tm::var<std::uint64_t> beat(0);
  obs::WaitProbe p;
  for (int probe = 0; probe < 5; ++probe) {
    tm::atomically([&] { beat.store(beat.load() + 1); });
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    p = obs::waitgraph_probe();
  }
  EXPECT_GE(p.threads_waiting, 1u);
  EXPECT_EQ(p.stuck_age_ms, 0u);
  static obs::WaitGraph g;
  obs::waitgraph_collect(g);
  EXPECT_EQ(g.suspect_count, 0u);
  sem.post();
  waiter.join();
}

TEST(WaitGraph, StallSnapshotLedgersAgree) {
  { WaitScope wp(WaitReason::kOrec, nullptr); }
  const obs::StallSnapshot s = obs::stall_snapshot();
  EXPECT_GT(s.total_ticks, 0u);
  EXPECT_EQ(entry_ticks_sum(s), s.total_ticks);
  EXPECT_EQ(entry_ns_sum(s), s.total_ns);
}

TEST(WaitGraph, JsonExportersCarryTheSections) {
  ParkedWaiter w;
  w.park();
  const std::string threads = obs::threads_json();
  EXPECT_NE(threads.find("\"threads\""), std::string::npos);
  EXPECT_NE(threads.find("\"condvar\""), std::string::npos);
  const std::string graph = obs::waitgraph_json();
  for (const char* key :
       {"\"threads\"", "\"edges\"", "\"suspects\"", "\"stall\"",
        "\"total_ticks\"", "\"cycle_threads\""})
    EXPECT_NE(graph.find(key), std::string::npos) << key;
  w.release();
}

// The /waitgraph acceptance bar: snapshots taken while threads park and
// wake at full speed are internally consistent every single time -- one
// edge per waiting row, every index in range, no torn rows.
TEST(WaitGraph, SnapshotConsistentUnderLiveTraffic) {
  constexpr int kThreads = 4;
  std::atomic<bool> stop{false};
  std::vector<std::thread> churn;
  churn.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    churn.emplace_back([&] {
      Semaphore self;
      while (!stop.load(std::memory_order_acquire)) {
        self.post();
        self.wait();  // consumes instantly; publishes briefly under load
        WaitScope wp(WaitReason::kOrec, &self,
                     static_cast<std::uint16_t>(1));
        for (int spin = 0; spin < 32; ++spin) cpu_relax();
      }
    });
  }
  static obs::WaitGraph g;
  for (int snap = 0; snap < 200; ++snap) {
    obs::waitgraph_collect(g);
    ASSERT_LE(g.thread_count, kMaxWaitSlots);
    std::uint32_t waiting = 0;
    for (std::uint32_t i = 0; i < g.thread_count; ++i) {
      const obs::ThreadRow& r = g.rows[i];
      if (!r.waiting) {
        ASSERT_EQ(r.age_ns, 0u);
        continue;
      }
      ++waiting;
      ASSERT_EQ(r.episode & 1, 1u) << "accepted row must be a stable park";
      ASSERT_NE(r.reason, WaitReason::kNone);
    }
    ASSERT_EQ(g.edge_count, waiting) << "exactly one edge per waiting row";
    for (std::uint32_t i = 0; i < g.edge_count; ++i) {
      const obs::WaitEdge& e = g.edges[i];
      ASSERT_LT(e.waiter, g.thread_count);
      ASSERT_TRUE(g.rows[e.waiter].waiting);
      ASSERT_GE(e.holder, -1);
      ASSERT_LT(e.holder, static_cast<std::int32_t>(g.thread_count));
    }
    for (std::uint32_t i = 0; i < g.suspect_count; ++i)
      ASSERT_LT(g.suspects[i], g.thread_count);
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : churn) t.join();
}

}  // namespace
}  // namespace tmcv

// Barrier, task-queue set, pipeline, reorder buffer and work distributor
// across all three sync policies.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apps/barrier.h"
#include "apps/latch.h"
#include "apps/ordered_output.h"
#include "apps/pipeline.h"
#include "apps/sync_policy.h"
#include "apps/task_queue.h"
#include "apps/work_distributor.h"

namespace tmcv::apps {
namespace {

template <typename Policy>
class BlocksTest : public ::testing::Test {};

using Policies = ::testing::Types<PthreadPolicy, TmCvPolicy, TxnPolicy>;

class PolicyNames {
 public:
  template <typename T>
  static std::string GetName(int) {
    return T::name();
  }
};

TYPED_TEST_SUITE(BlocksTest, Policies, PolicyNames);

TYPED_TEST(BlocksTest, BarrierPhasesStayInLockstep) {
  constexpr std::size_t kThreads = 4;
  constexpr int kPhases = 50;
  CvBarrier<TypeParam> barrier(kThreads);
  std::atomic<int> phase_counts[kPhases]{};
  std::atomic<bool> out_of_step{false};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int p = 0; p < kPhases; ++p) {
        phase_counts[p].fetch_add(1);
        barrier.arrive_and_wait();
        // After the barrier, every thread must have arrived at phase p.
        if (phase_counts[p].load() != kThreads) out_of_step.store(true);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(out_of_step.load());
  EXPECT_EQ(barrier.generation(), static_cast<std::uint64_t>(kPhases));
}

TYPED_TEST(BlocksTest, BarrierReusableAcrossGenerations) {
  CvBarrier<TypeParam> barrier(2);
  for (int round = 0; round < 20; ++round) {
    std::thread other([&] { barrier.arrive_and_wait(); });
    barrier.arrive_and_wait();
    other.join();
  }
  EXPECT_EQ(barrier.generation(), 20u);
}

TYPED_TEST(BlocksTest, TaskQueueSetDrainsAllTasks) {
  constexpr std::size_t kWorkers = 3;
  constexpr std::size_t kTasksPerWorker = 40;
  TaskQueueSet<TypeParam> tq(kWorkers, 128);
  std::atomic<std::uint64_t> sum{0};
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      std::uint64_t task = 0;
      while (tq.take(w, task)) {
        sum.fetch_add(task);
        tq.complete();
      }
    });
  }
  std::uint64_t expected = 0;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    for (std::size_t i = 0; i < kTasksPerWorker; ++i) {
      const std::uint64_t task = w * 1000 + i + 1;
      ASSERT_TRUE(tq.add(w, task));
      expected += task;
    }
  }
  tq.wait_all();
  EXPECT_EQ(tq.pending(), 0u);
  tq.stop();
  for (auto& t : workers) t.join();
  EXPECT_EQ(sum.load(), expected);
}

TYPED_TEST(BlocksTest, TaskQueueSetStealsFromLoadedQueue) {
  // All tasks go to queue 0; workers 1 and 2 must steal to make progress.
  constexpr std::size_t kWorkers = 3;
  TaskQueueSet<TypeParam> tq(kWorkers, 256);
  std::atomic<int> done_by[kWorkers]{};
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      std::uint64_t task = 0;
      while (tq.take(w, task)) {
        done_by[w].fetch_add(1);
        tq.complete();
      }
    });
  }
  constexpr int kTasks = 120;
  for (int i = 0; i < kTasks; ++i) ASSERT_TRUE(tq.add(0, i));
  tq.wait_all();
  tq.stop();
  for (auto& t : workers) t.join();
  int total = 0;
  for (auto& d : done_by) total += d.load();
  EXPECT_EQ(total, kTasks);
}

TYPED_TEST(BlocksTest, PipelinePreservesEveryItem) {
  std::atomic<std::uint64_t> sink_sum{0};
  std::atomic<int> sink_count{0};
  {
    typename Pipeline<TypeParam>::Config cfg;
    cfg.stages = 4;
    cfg.workers_per_stage = 2;
    cfg.queue_capacity = 8;
    Pipeline<TypeParam> pipe(
        cfg, [](std::size_t, std::uint64_t item) { return item + 1; },
        [&](std::uint64_t item) {
          sink_sum.fetch_add(item);
          sink_count.fetch_add(1);
        });
    constexpr int kItems = 300;
    for (int i = 0; i < kItems; ++i) ASSERT_TRUE(pipe.feed(i));
    pipe.finish();
    EXPECT_EQ(sink_count.load(), kItems);
    // Each item gained +1 per stage (4 stages).
    std::uint64_t expected = 0;
    for (int i = 0; i < kItems; ++i) expected += i + 4;
    EXPECT_EQ(sink_sum.load(), expected);
  }
}

TYPED_TEST(BlocksTest, LatchReleasesAtTarget) {
  Latch<TypeParam> latch(3);
  std::atomic<bool> released{false};
  std::thread waiter([&] {
    latch.wait();
    released.store(true);
  });
  latch.report();
  latch.report();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(released.load());  // 2 of 3
  latch.report();
  waiter.join();
  EXPECT_TRUE(released.load());
  EXPECT_EQ(latch.arrived(), 3u);
}

TYPED_TEST(BlocksTest, LatchReusableAcrossRounds) {
  Latch<TypeParam> latch;
  for (int round = 0; round < 10; ++round) {
    std::vector<std::thread> reporters;
    for (int r = 0; r < 4; ++r)
      reporters.emplace_back([&] { latch.report(); });
    latch.wait_and_reset(4);
    for (auto& t : reporters) t.join();
    EXPECT_EQ(latch.arrived(), 0u);
  }
}

TYPED_TEST(BlocksTest, PipelineSerialLastStage) {
  // dedup's configuration: parallel middle stages, a single output worker.
  std::vector<std::uint64_t> sink_order;
  std::mutex sink_m;
  {
    typename Pipeline<TypeParam>::Config cfg;
    cfg.stages = 3;
    cfg.workers_per_stage = 3;
    cfg.workers_last_stage = 1;
    cfg.queue_capacity = 4;
    Pipeline<TypeParam> pipe(
        cfg, [](std::size_t, std::uint64_t item) { return item; },
        [&](std::uint64_t item) {
          std::lock_guard<std::mutex> g(sink_m);
          sink_order.push_back(item);
        });
    for (std::uint64_t i = 0; i < 100; ++i) ASSERT_TRUE(pipe.feed(i));
    pipe.finish();
  }
  // Single sink worker: all items arrive (order may interleave upstream).
  EXPECT_EQ(sink_order.size(), 100u);
  std::set<std::uint64_t> unique(sink_order.begin(), sink_order.end());
  EXPECT_EQ(unique.size(), 100u);
}

TYPED_TEST(BlocksTest, ReorderBufferFlushesInOrder) {
  ReorderBuffer<TypeParam> rb(16);
  std::vector<std::uint64_t> emitted;
  auto emit = [&](std::uint64_t seq, std::uint64_t payload) {
    emitted.push_back(seq);
    EXPECT_EQ(payload, seq * 10);
  };
  // Insert 0..7 in a scrambled order; emission must be 0..7 exactly.
  const std::uint64_t order[] = {3, 0, 1, 5, 2, 4, 7, 6};
  for (std::uint64_t seq : order) rb.insert(seq, seq * 10, emit);
  ASSERT_EQ(emitted.size(), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) EXPECT_EQ(emitted[i], i);
  EXPECT_EQ(rb.next_sequence(), 8u);
}

TYPED_TEST(BlocksTest, ReorderBufferWindowWraps) {
  // More items than the window, in order: the buffer recycles slots.
  ReorderBuffer<TypeParam> rb(4);
  std::uint64_t emitted = 0;
  for (std::uint64_t seq = 0; seq < 40; ++seq)
    rb.insert(seq, seq, [&](std::uint64_t s, std::uint64_t) {
      EXPECT_EQ(s, emitted);
      ++emitted;
    });
  EXPECT_EQ(emitted, 40u);
}

TYPED_TEST(BlocksTest, ReorderBufferHoldsGapThenFlushes) {
  ReorderBuffer<TypeParam> rb(8);
  std::vector<std::uint64_t> emitted;
  auto emit = [&](std::uint64_t seq, std::uint64_t) {
    emitted.push_back(seq);
  };
  rb.insert(1, 0, emit);
  rb.insert(2, 0, emit);
  EXPECT_TRUE(emitted.empty());  // 0 missing: nothing may flush
  rb.insert(0, 0, emit);         // gap filled: 0,1,2 flush together
  const std::vector<std::uint64_t> expected{0, 1, 2};
  EXPECT_EQ(emitted, expected);
}

TYPED_TEST(BlocksTest, WorkDistributorRoundsComplete) {
  constexpr std::size_t kSlaves = 3;
  constexpr int kRounds = 30;
  WorkDistributor<TypeParam> dist(kSlaves);
  std::atomic<std::uint64_t> work_done{0};
  std::vector<std::thread> slaves;
  for (std::size_t s = 0; s < kSlaves; ++s) {
    slaves.emplace_back([&, s] {
      std::uint64_t cmd = 0;
      while (dist.await_command(s, cmd)) {
        work_done.fetch_add(cmd);
        dist.report_done();
      }
    });
  }
  std::uint64_t expected = 0;
  for (int r = 1; r <= kRounds; ++r) {
    dist.distribute_and_wait(r);
    expected += static_cast<std::uint64_t>(r) * kSlaves;
  }
  dist.stop();
  for (auto& s : slaves) s.join();
  EXPECT_EQ(work_done.load(), expected);
}

}  // namespace
}  // namespace tmcv::apps

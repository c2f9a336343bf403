// Lost-wakeup stress for the building blocks: every run must conserve its
// items and every thread must exit.  A lost notify shows up as a hang
// (the ctest timeout).  The half-empty producer wake of BoundedQueue runs
// under all three sync policies; the transactional blocks, whose notifies
// run inside the section's transaction, run under TxnPolicy on every TM
// backend.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "apps/barrier.h"
#include "apps/bounded_queue.h"
#include "apps/latch.h"
#include "apps/sync_policy.h"
#include "apps/task_queue.h"
#include "apps/work_distributor.h"
#include "backend_param.h"
#include "core/condvar.h"

namespace tmcv::apps {
namespace {

using tm::Backend;

constexpr std::size_t kQueueCapacity = 8;
constexpr int kItemsPerProducer = 1500;

// `producers` threads push kItemsPerProducer distinct items each into a
// queue of kQueueCapacity; `consumers` threads pop until the last producer
// closes it.  Checks that every item arrives exactly once.
template <typename Policy>
void run_queue(int producers, int consumers) {
  BoundedQueue<Policy> q(kQueueCapacity);
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> count{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < consumers; ++c) {
    threads.emplace_back([&] {
      std::uint64_t v = 0;
      while (q.pop(v)) {
        sum.fetch_add(v, std::memory_order_relaxed);
        count.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::atomic<int> live{producers};
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kItemsPerProducer; ++i) {
        const auto item =
            static_cast<std::uint64_t>(p * kItemsPerProducer + i + 1);
        EXPECT_TRUE(q.push(item));
      }
      if (live.fetch_sub(1) == 1) q.close();
    });
  }
  for (auto& t : threads) t.join();
  const auto total = static_cast<std::uint64_t>(producers) * kItemsPerProducer;
  EXPECT_EQ(count.load(), total);
  EXPECT_EQ(sum.load(), total * (total + 1) / 2);
  EXPECT_EQ(q.size(), 0u);
}

// ---- the half-empty wake, under every policy ------------------------------

template <typename Policy>
class HalfEmptyWake : public ::testing::Test {};

using Policies = ::testing::Types<PthreadPolicy, TmCvPolicy, TxnPolicy>;

class PolicyNames {
 public:
  template <typename T>
  static std::string GetName(int) {
    return T::name();
  }
};

TYPED_TEST_SUITE(HalfEmptyWake, Policies, PolicyNames);

TYPED_TEST(HalfEmptyWake, ManyProducersOneConsumer) {
  run_queue<TypeParam>(6, 1);
}

TYPED_TEST(HalfEmptyWake, OneProducerManyConsumers) {
  run_queue<TypeParam>(1, 6);
}

// ---- the transactional blocks, on every backend ---------------------------

class TxnBlocks : public test::BackendParamTest {};

INSTANTIATE_TEST_SUITE_P(AllBackends, TxnBlocks,
                         ::testing::Values(Backend::EagerSTM, Backend::HTM,
                                           Backend::NOrec),
                         [](const auto& info) {
                           return std::string(tm::to_string(info.param));
                         });

TEST_P(TxnBlocks, QueueManyProducersOneConsumer) {
  run_queue<TxnPolicy>(6, 1);
}

TEST_P(TxnBlocks, QueueOneProducerManyConsumers) {
  run_queue<TxnPolicy>(1, 6);
}

// Every notify a queue names is counted exactly once, however often its
// transaction retried.  At capacity 1 every pop leaves the queue empty, so
// each push and each pop notifies once; close() adds two notify_alls.
TEST_P(TxnBlocks, QueueNotifyCountsAreExact) {
  constexpr std::uint64_t kItems = 2000;
  const CondVarStats before = condvar_stats_aggregate();
  {
    BoundedQueue<TxnPolicy> q(1);
    std::thread consumer([&] {
      std::uint64_t v = 0;
      while (q.pop(v)) {
      }
    });
    for (std::uint64_t i = 0; i < kItems; ++i) EXPECT_TRUE(q.push(i));
    q.close();
    consumer.join();
  }
  const CondVarStats after = condvar_stats_aggregate();
  EXPECT_EQ(after.notify_one_calls - before.notify_one_calls, 2 * kItems);
  EXPECT_EQ(after.notify_all_calls - before.notify_all_calls, 2u);
}

TEST_P(TxnBlocks, TaskQueueSetRounds) {
  constexpr std::size_t kWorkers = 4;
  constexpr int kRounds = 100;
  constexpr std::uint64_t kTasksPerRound = 24;
  TaskQueueSet<TxnPolicy> tq(kWorkers, 64);
  std::atomic<std::uint64_t> sum{0};
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      TaskQueueSet<TxnPolicy>::Task task = 0;
      while (tq.take(w, task)) {
        sum.fetch_add(task, std::memory_order_relaxed);
        tq.complete();
      }
    });
  }
  std::uint64_t expected = 0;
  for (int r = 0; r < kRounds; ++r) {
    for (std::uint64_t t = 1; t <= kTasksPerRound; ++t) {
      ASSERT_TRUE(tq.add(t % kWorkers, t));
      expected += t;
    }
    tq.wait_all();
    EXPECT_EQ(tq.pending(), 0u);
  }
  tq.stop();
  for (auto& w : workers) w.join();
  EXPECT_EQ(sum.load(), expected);
}

TEST_P(TxnBlocks, LatchRounds) {
  constexpr std::size_t kParties = 4;
  constexpr int kRounds = 500;
  Latch<TxnPolicy> done(kParties);
  CvBarrier<TxnPolicy> start(kParties + 1);
  std::atomic<int> reports{0};
  std::vector<std::thread> parties;
  for (std::size_t p = 0; p < kParties; ++p) {
    parties.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        start.arrive_and_wait();
        reports.fetch_add(1, std::memory_order_relaxed);
        done.report();
      }
    });
  }
  for (int r = 0; r < kRounds; ++r) {
    start.arrive_and_wait();
    done.wait_and_reset(kParties);
    EXPECT_EQ(reports.load(), static_cast<int>(kParties) * (r + 1));
  }
  for (auto& p : parties) p.join();
}

TEST_P(TxnBlocks, BarrierRounds) {
  constexpr std::size_t kThreads = 4;
  constexpr int kRounds = 1000;
  CvBarrier<TxnPolicy> barrier(kThreads);
  std::atomic<int> arrivals[kRounds]{};
  std::atomic<bool> out_of_step{false};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        arrivals[r].fetch_add(1);
        barrier.arrive_and_wait();
        if (arrivals[r].load() != static_cast<int>(kThreads))
          out_of_step.store(true);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(out_of_step.load());
  EXPECT_EQ(barrier.generation(), static_cast<std::uint64_t>(kRounds));
}

TEST_P(TxnBlocks, WorkDistributorRounds) {
  constexpr std::size_t kSlaves = 4;
  constexpr int kRounds = 500;
  WorkDistributor<TxnPolicy> wd(kSlaves);
  std::atomic<std::uint64_t> sum{0};
  std::vector<std::thread> slaves;
  for (std::size_t s = 0; s < kSlaves; ++s) {
    slaves.emplace_back([&, s] {
      WorkDistributor<TxnPolicy>::Command cmd = 0;
      while (wd.await_command(s, cmd)) {
        sum.fetch_add(cmd, std::memory_order_relaxed);
        wd.report_done();
      }
    });
  }
  std::uint64_t expected = 0;
  for (int r = 1; r <= kRounds; ++r) {
    wd.distribute_and_wait(static_cast<std::uint64_t>(r));
    expected += kSlaves * static_cast<std::uint64_t>(r);
    EXPECT_EQ(sum.load(), expected);
  }
  wd.stop();
  for (auto& s : slaves) s.join();
}

}  // namespace
}  // namespace tmcv::apps

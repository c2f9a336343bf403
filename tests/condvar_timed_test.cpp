// Timed waits (the POSIX-compatibility extension) and punctuated
// transactions (the §6 generalization the WAIT algorithm specializes).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "backend_param.h"
#include "core/condvar.h"
#include "core/legacy_cv.h"
#include "tm/api.h"
#include "tm/var.h"

namespace tmcv {
namespace {

using namespace std::chrono_literals;
using tm::Backend;

TEST(CondVarTimed, TimesOutWhenNobodyNotifies) {
  CondVar cv;
  NoSync sync;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(cv.wait_for(sync, 30ms));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, 25ms);
  // The timed-out node must have been removed: a later notify finds nobody.
  EXPECT_EQ(cv.waiter_count(), 0u);
  EXPECT_FALSE(cv.notify_one());
}

TEST(CondVarTimed, ReturnsTrueWhenNotifiedInTime) {
  CondVar cv;
  std::atomic<bool> result{false};
  std::thread waiter([&] {
    NoSync sync;
    result.store(cv.wait_for(sync, 10s));
  });
  while (cv.waiter_count() == 0) std::this_thread::yield();
  EXPECT_TRUE(cv.notify_one());
  waiter.join();
  EXPECT_TRUE(result.load());
}

TEST(CondVarTimed, TimeoutReleasesAndReacquiresLock) {
  CondVar cv;
  std::mutex m;
  std::atomic<bool> lock_was_free{false};
  std::thread waiter([&] {
    m.lock();
    LockSync sync(m);
    EXPECT_FALSE(cv.wait_for(sync, 40ms));
    // Returned with the lock re-acquired.
    EXPECT_FALSE(m.try_lock());
    m.unlock();
  });
  // While the waiter sleeps, the lock must be available to others.
  std::this_thread::sleep_for(10ms);
  if (m.try_lock()) {
    lock_was_free.store(true);
    m.unlock();
  }
  waiter.join();
  EXPECT_TRUE(lock_was_free.load());
}

TEST(CondVarTimed, RepeatedTimeoutsLeaveQueueConsistent) {
  CondVar cv;
  NoSync sync;
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(cv.wait_for(sync, 1ms));
  EXPECT_EQ(cv.waiter_count(), 0u);
  // The node is reusable for a normal wait afterwards.
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    NoSync s2;
    cv.wait_final(s2);
    woke.store(true);
  });
  while (cv.waiter_count() == 0) std::this_thread::yield();
  cv.notify_one();
  waiter.join();
  EXPECT_TRUE(woke.load());
}

TEST(CondVarTimed, NotifyRacingTimeoutNeverLosesToken) {
  // Hammer the timeout/notify race: every notify that selected a waiter
  // must be observed as a successful (true) wait, and every timeout must
  // leave the queue empty.  Token conservation is checked exactly.
  CondVar cv;
  std::atomic<int> true_waits{0};
  std::atomic<int> notified_count{0};
  constexpr int kRounds = 300;
  std::thread waiter([&] {
    NoSync sync;
    for (int i = 0; i < kRounds; ++i) {
      // Tiny timeout so both outcomes occur frequently.
      if (cv.wait_for(sync, std::chrono::microseconds(50)))
        true_waits.fetch_add(1);
    }
  });
  std::thread notifier([&] {
    for (int i = 0; i < kRounds; ++i) {
      if (cv.notify_one()) notified_count.fetch_add(1);
      std::this_thread::yield();
    }
  });
  waiter.join();
  notifier.join();
  // Every successful notify paired with exactly one true wait.
  EXPECT_EQ(true_waits.load(), notified_count.load());
  EXPECT_EQ(cv.waiter_count(), 0u);
}

TEST(LegacyCvTimed, StdStyleWaitForWithPredicate) {
  condition_variable cv;
  std::mutex m;
  bool flag = false;
  {
    std::unique_lock<std::mutex> lk(m);
    EXPECT_FALSE(cv.wait_for(lk, 20ms, [&] { return flag; }));
  }
  std::thread setter([&] {
    std::this_thread::sleep_for(10ms);
    {
      std::lock_guard<std::mutex> g(m);
      flag = true;
    }
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lk(m);
  EXPECT_TRUE(cv.wait_for(lk, 10s, [&] { return flag; }));
  lk.unlock();
  setter.join();
}

// Timed waiters woken by one notify_all issued under the held mutex: each
// wait_for returns `notified` exactly once, none times out, and the queue
// ends empty.
TEST(LegacyCvTimed, NotifyAllUnderLockReturnsNotifiedExactlyOnce) {
  constexpr int kWaiters = 3;
  condition_variable cv;
  std::mutex m;
  bool go = false;
  int notified = 0;   // guarded by m
  int timed_out = 0;  // guarded by m
  std::vector<std::thread> threads;
  threads.reserve(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    threads.emplace_back([&] {
      std::unique_lock<std::mutex> lk(m);
      while (!go) {
        if (cv.wait_for(lk, 30s))
          ++notified;
        else
          ++timed_out;
      }
    });
  }
  while (cv.raw().waiter_count() < kWaiters) std::this_thread::yield();
  {
    std::unique_lock<std::mutex> lk(m);
    go = true;
    cv.notify_all();
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(notified, kWaiters);
  EXPECT_EQ(timed_out, 0);
  EXPECT_EQ(cv.raw().waiter_count(), 0u);
  const CondVarStats s = cv.raw().stats();
  EXPECT_EQ(s.timed_waits, static_cast<std::uint64_t>(kWaiters));
  EXPECT_EQ(s.waits, static_cast<std::uint64_t>(kWaiters));
  EXPECT_EQ(s.timeouts, 0u);
}

class TimedTx : public test::BackendParamTest {};

INSTANTIATE_TEST_SUITE_P(AllBackends, TimedTx,
                         ::testing::Values(Backend::EagerSTM, Backend::LazySTM,
                                           Backend::HTM),
                         [](const auto& info) {
                           return std::string(tm::to_string(info.param));
                         });

TEST_P(TimedTx, TimedWaitInsideTransaction) {
  tx_condition_variable cv;
  tm::var<int> x(0);
  std::thread waiter([&] {
    tm::atomically([&] {
      x.store(1);
      const bool notified = cv.wait_for_tx(30ms);
      // Timed out; the continuation still runs (irrevocably) and can write.
      EXPECT_FALSE(notified);
      x.store(2);
    });
  });
  waiter.join();
  EXPECT_EQ(x.load(), 2);
  EXPECT_EQ(cv.raw().waiter_count(), 0u);
}

TEST_P(TimedTx, PunctuateRunsBetweenOutsideTransaction) {
  tm::var<int> x(0);
  bool between_ran = false;
  tm::atomically([&] {
    x.store(1);
    tm::punctuate([&] {
      EXPECT_FALSE(tm::in_txn());
      // The first half is already committed and visible.
      EXPECT_EQ(x.load_plain(), 1);
      between_ran = true;
    });
    EXPECT_TRUE(tm::in_txn());
    EXPECT_EQ(tm::descriptor().state(), tm::TxState::Serial);
    x.store(2);
  });
  EXPECT_TRUE(between_ran);
  EXPECT_EQ(x.load(), 2);
}

TEST_P(TimedTx, PunctuateOptimisticResume) {
  tm::var<int> x(0);
  tm::atomically([&] {
    x.store(1);
    tm::punctuate([] {}, /*irrevocable_resume=*/false);
    EXPECT_EQ(tm::descriptor().state(), tm::TxState::Optimistic);
    x.store(2);
  });
  EXPECT_EQ(x.load(), 2);
}

TEST_P(TimedTx, PunctuateCanBlockInBetween) {
  // The `between` section may sleep on a semaphore -- WAIT is exactly this.
  tm::var<int> x(0);
  BinarySemaphore sem;
  std::thread poster([&] {
    std::this_thread::sleep_for(5ms);
    sem.post();
  });
  tm::atomically([&] {
    x.store(1);
    tm::punctuate([&] { sem.wait(); });
    x.store(x.load() + 1);
  });
  poster.join();
  EXPECT_EQ(x.load(), 2);
}

}  // namespace
}  // namespace tmcv

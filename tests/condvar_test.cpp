// Condition-variable correctness from lock-based contexts: the
// Parsec+TMCondVar usage mode, plus the legacy facade.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/condvar.h"
#include "core/legacy_cv.h"
#include "sync/locks.h"
#include "waitpoint_probe.h"

namespace tmcv {
namespace {

TEST(CondVar, NotifyOnEmptyQueueIsLost) {
  CondVar cv;
  EXPECT_FALSE(cv.notify_one());
  EXPECT_EQ(cv.notify_all(), 0u);
  EXPECT_EQ(cv.waiter_count(), 0u);
}

TEST(CondVar, WaitThenNotifyOne) {
  CondVar cv;
  std::mutex m;
  std::atomic<bool> ready{false};
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    std::unique_lock<std::mutex> lk(m);
    LockSync sync(m);
    ready.store(true);
    cv.wait(sync);  // returns with the lock re-acquired
    woke.store(true);
    lk.release();  // we still own it; unlock manually
    m.unlock();
  });
  while (!ready.load()) std::this_thread::yield();
  while (cv.waiter_count() == 0) std::this_thread::yield();
  EXPECT_FALSE(woke.load());
  EXPECT_TRUE(cv.notify_one());
  waiter.join();
  EXPECT_TRUE(woke.load());
  EXPECT_EQ(cv.waiter_count(), 0u);
}

TEST(CondVar, ContinuationRunsUnderLock) {
  CondVar cv;
  std::mutex m;
  int shared = 0;
  std::atomic<bool> cont_ran{false};
  std::thread waiter([&] {
    m.lock();
    LockSync sync(m);
    cv.wait(sync, [&] {
      // The continuation must execute with the lock held.
      EXPECT_FALSE(m.try_lock());
      shared = 42;
      cont_ran.store(true);
    });
    // wait() with a continuation ends the sync block afterwards; the lock
    // is already released here.
  });
  while (cv.waiter_count() == 0) std::this_thread::yield();
  cv.notify_one();
  waiter.join();
  EXPECT_TRUE(cont_ran.load());
  EXPECT_EQ(shared, 42);
  EXPECT_TRUE(m.try_lock());
  m.unlock();
}

TEST(CondVar, WaitFinalDoesNotReacquire) {
  CondVar cv;
  std::mutex m;
  std::atomic<bool> done{false};
  std::thread waiter([&] {
    m.lock();
    LockSync sync(m);
    cv.wait_final(sync);
    // Lock already released; no re-acquire happened.
    EXPECT_TRUE(m.try_lock());
    m.unlock();
    done.store(true);
  });
  while (cv.waiter_count() == 0) std::this_thread::yield();
  cv.notify_one();
  waiter.join();
  EXPECT_TRUE(done.load());
}

TEST(CondVar, NotifyAllWakesEveryWaiter) {
  constexpr int kWaiters = 6;
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
  EXPECT_EQ(cv.notify_all(), static_cast<std::size_t>(kWaiters));
  for (auto& w : waiters) w.join();
  EXPECT_EQ(woke.load(), kWaiters);
}

TEST(CondVar, NotifyOneWakesExactlyOne) {
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
  EXPECT_TRUE(cv.notify_one());
  while (woke.load() < 1) std::this_thread::yield();
  // Give any erroneous extra wakeups time to surface.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(woke.load(), 1);
  EXPECT_EQ(cv.waiter_count(), static_cast<std::size_t>(kWaiters - 1));
  cv.notify_all();
  for (auto& w : waiters) w.join();
  EXPECT_EQ(woke.load(), kWaiters);
}

TEST(CondVar, FifoOrderByDefault) {
  CondVar cv;  // WakePolicy::FIFO
  std::mutex m;
  std::vector<int> wake_order;
  std::mutex order_m;
  std::vector<std::thread> waiters;
  std::atomic<int> started{0};
  for (int i = 0; i < 3; ++i) {
    waiters.emplace_back([&, i] {
      // Serialize enqueue order by waiting for our turn to call wait.
      while (started.load() != i) std::this_thread::yield();
      m.lock();
      LockSync sync(m);
      started.fetch_add(1);
      cv.wait_final(sync);
      std::lock_guard<std::mutex> g(order_m);
      wake_order.push_back(i);
    });
    while (cv.waiter_count() < static_cast<std::size_t>(i + 1))
      std::this_thread::yield();
  }
  for (int i = 0; i < 3; ++i) {
    cv.notify_one();
    for (;;) {
      {
        std::lock_guard<std::mutex> g(order_m);
        if (wake_order.size() >= static_cast<std::size_t>(i + 1)) break;
      }
      std::this_thread::yield();
    }
  }
  for (auto& w : waiters) w.join();
  const std::vector<int> expected{0, 1, 2};
  EXPECT_EQ(wake_order, expected);
}

TEST(CondVar, LifoPolicyWakesNewestFirst) {
  CondVar cv(WakePolicy::LIFO);
  std::mutex m;
  std::vector<int> wake_order;
  std::mutex order_m;
  std::vector<std::thread> waiters;
  std::atomic<int> started{0};
  for (int i = 0; i < 3; ++i) {
    waiters.emplace_back([&, i] {
      while (started.load() != i) std::this_thread::yield();
      m.lock();
      LockSync sync(m);
      started.fetch_add(1);
      cv.wait_final(sync);
      std::lock_guard<std::mutex> g(order_m);
      wake_order.push_back(i);
    });
    while (cv.waiter_count() < static_cast<std::size_t>(i + 1))
      std::this_thread::yield();
  }
  for (int i = 0; i < 3; ++i) {
    cv.notify_one();
    for (;;) {
      {
        std::lock_guard<std::mutex> g(order_m);
        if (wake_order.size() >= static_cast<std::size_t>(i + 1)) break;
      }
      std::this_thread::yield();
    }
  }
  for (auto& w : waiters) w.join();
  const std::vector<int> expected{2, 1, 0};
  EXPECT_EQ(wake_order, expected);
}

TEST(CondVar, NotifyBestSelectsHighestScore) {
  CondVar cv;
  std::mutex m;
  std::vector<std::uint64_t> wake_order;
  std::mutex order_m;
  std::vector<std::thread> waiters;
  std::atomic<int> started{0};
  const std::uint64_t tags[3] = {10, 30, 20};
  for (int i = 0; i < 3; ++i) {
    waiters.emplace_back([&, i] {
      while (started.load() != i) std::this_thread::yield();
      m.lock();
      LockSync sync(m);
      started.fetch_add(1);
      cv.wait_final(sync, tags[i]);
      std::lock_guard<std::mutex> g(order_m);
      wake_order.push_back(tags[i]);
    });
    while (cv.waiter_count() < static_cast<std::size_t>(i + 1))
      std::this_thread::yield();
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(cv.notify_best([](std::uint64_t tag) { return tag; }));
    for (;;) {
      {
        std::lock_guard<std::mutex> g(order_m);
        if (wake_order.size() >= static_cast<std::size_t>(i + 1)) break;
      }
      std::this_thread::yield();
    }
  }
  for (auto& w : waiters) w.join();
  const std::vector<std::uint64_t> expected{30, 20, 10};
  EXPECT_EQ(wake_order, expected);
}

TEST(CondVar, NotifyNWakesExactlyN) {
  constexpr int kWaiters = 5;
  CondVar cv;
  std::atomic<int> woke{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      NoSync sync;
      cv.wait_final(sync);
      woke.fetch_add(1);
    });
    while (cv.waiter_count() < static_cast<std::size_t>(i + 1))
      std::this_thread::yield();
  }
  EXPECT_EQ(cv.notify_n(2), 2u);
  while (woke.load() < 2) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(woke.load(), 2);
  EXPECT_EQ(cv.waiter_count(), 3u);
  // Requesting more than available wakes only what exists.
  EXPECT_EQ(cv.notify_n(10), 3u);
  for (auto& w : waiters) w.join();
  EXPECT_EQ(woke.load(), kWaiters);
  EXPECT_EQ(cv.notify_n(1), 0u);  // empty queue
}

// notify_n's selection table, policy x k: with W tagged waiters enqueued in
// a known order, notify_n(k) wakes exactly the first (FIFO) or the last
// (LIFO) min(k, W) of them, and notify_one then drains the rest in policy
// order.
class NotifyNSelection
    : public ::testing::TestWithParam<std::tuple<WakePolicy, std::size_t>> {};

TEST_P(NotifyNSelection, CutsPolicyEndThenNotifyOneDrainsInOrder) {
  constexpr std::size_t kW = 5;
  const auto [policy, k] = GetParam();
  CondVar cv(policy);
  std::mutex woke_m;
  std::vector<std::uint64_t> woke;
  auto woken = [&] {
    std::lock_guard<std::mutex> g(woke_m);
    return woke;
  };
  auto await_woken = [&](std::size_t n) {
    while (woken().size() < n) std::this_thread::yield();
  };
  std::vector<std::thread> waiters;
  std::vector<std::uint64_t> policy_order;  // tags in the order to wake
  for (std::size_t i = 0; i < kW; ++i) {
    const std::uint64_t tag = 100 + i;
    policy_order.push_back(tag);
    waiters.emplace_back([&, tag] {
      NoSync sync;
      cv.wait_final(sync, tag);
      std::lock_guard<std::mutex> g(woke_m);
      woke.push_back(tag);
    });
    while (cv.waiter_count() < i + 1) std::this_thread::yield();
  }
  if (policy == WakePolicy::LIFO)
    std::reverse(policy_order.begin(), policy_order.end());

  const std::size_t m = std::min(k, kW);
  EXPECT_EQ(cv.notify_n(k), m);
  await_woken(m);
  // Give any erroneous extra wakeups time to surface.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(cv.waiter_count(), kW - m);
  std::vector<std::uint64_t> batch = woken();
  std::sort(batch.begin(), batch.end());
  std::vector<std::uint64_t> expected(policy_order.begin(),
                                      policy_order.begin() + m);
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(batch, expected);

  for (std::size_t i = m; i < kW; ++i) {
    EXPECT_TRUE(cv.notify_one());
    await_woken(i + 1);
  }
  for (auto& t : waiters) t.join();
  const std::vector<std::uint64_t> all = woken();
  EXPECT_EQ(std::vector<std::uint64_t>(all.begin() + m, all.end()),
            std::vector<std::uint64_t>(policy_order.begin() + m,
                                       policy_order.end()));
  EXPECT_EQ(cv.waiter_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    CondVar, NotifyNSelection,
    ::testing::Combine(::testing::Values(WakePolicy::FIFO, WakePolicy::LIFO),
                       ::testing::Values<std::size_t>(0, 1, 2, 4, 5, 6)),
    [](const auto& info) {
      const WakePolicy policy = std::get<0>(info.param);
      return std::string(policy == WakePolicy::FIFO ? "Fifo" : "Lifo") +
             "_k" + std::to_string(std::get<1>(info.param));
    });

TEST(LegacyCv, ProducerConsumerWithPredicateLoop) {
  condition_variable cv;
  std::mutex m;
  std::vector<int> queue;
  constexpr int kItems = 2000;
  std::thread consumer([&] {
    for (int i = 0; i < kItems; ++i) {
      std::unique_lock<std::mutex> lk(m);
      cv.wait(lk, [&] { return !queue.empty(); });
      EXPECT_EQ(queue.back(), i);
      queue.pop_back();
    }
  });
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) {
      {
        std::lock_guard<std::mutex> g(m);
        queue.push_back(i);
      }
      cv.notify_one();
      // Wait for consumption so items stay in lockstep.
      for (;;) {
        std::lock_guard<std::mutex> g(m);
        if (queue.empty()) break;
      }
    }
  });
  producer.join();
  consumer.join();
  EXPECT_TRUE(queue.empty());
}

TEST(LegacyCv, WorksWithFutexLock) {
  condition_variable cv;
  FutexLock m;
  bool flag = false;
  std::thread waiter([&] {
    std::unique_lock<FutexLock> lk(m);
    cv.wait(lk, [&] { return flag; });
  });
  {
    std::unique_lock<FutexLock> lk(m);
    flag = true;
  }
  cv.notify_one();
  waiter.join();
  SUCCEED();
}

TEST(LegacyCv, NotifyAllWithPredicates) {
  condition_variable cv;
  std::mutex m;
  int stage = 0;
  std::atomic<int> done{0};
  std::vector<std::thread> threads;
  for (int want = 1; want <= 3; ++want) {
    threads.emplace_back([&, want] {
      std::unique_lock<std::mutex> lk(m);
      cv.wait(lk, [&] { return stage >= want; });
      done.fetch_add(1);
    });
  }
  for (int s = 1; s <= 3; ++s) {
    while (cv.raw().waiter_count() < static_cast<std::size_t>(4 - s))
      std::this_thread::yield();
    {
      std::lock_guard<std::mutex> g(m);
      stage = s;
    }
    cv.notify_all();
    while (done.load() < s) std::this_thread::yield();
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(done.load(), 3);
}

// notify_all issued while the notifier holds the mutex: every waiter wakes
// from one notify, and each wait returns with the mutex re-acquired, so the
// woken threads run their post-wait sections one at a time.
TEST(LegacyCv, NotifyAllUnderLockWakesEveryWaiterHoldingTheLock) {
  constexpr int kWaiters = 4;
  condition_variable cv;
  std::mutex m;
  bool go = false;
  int awake = 0;               // guarded by m
  std::atomic<int> inside{0};  // waiters past their wait right now
  std::vector<std::thread> threads;
  threads.reserve(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    threads.emplace_back([&] {
      std::unique_lock<std::mutex> lk(m);
      while (!go) cv.wait(lk);
      EXPECT_TRUE(lk.owns_lock());
      EXPECT_EQ(inside.fetch_add(1), 0) << "two waiters hold the lock";
      ++awake;
      std::this_thread::yield();  // widen the window for an overlap
      inside.fetch_sub(1);
    });
  }
  while (cv.raw().waiter_count() < kWaiters) std::this_thread::yield();
  {
    std::unique_lock<std::mutex> lk(m);
    go = true;
    cv.notify_all();
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(awake, kWaiters);
  EXPECT_EQ(cv.raw().waiter_count(), 0u);
  const CondVarStats s = cv.raw().stats();
  EXPECT_EQ(s.notify_all_calls, 1u);  // the one notify woke them all
  EXPECT_EQ(s.threads_woken, static_cast<std::uint64_t>(kWaiters));
  EXPECT_EQ(s.waits, static_cast<std::uint64_t>(kWaiters));
}

TEST(CondVar, StatsCountersTrackOperations) {
  CondVar cv;
  // Lost notifies on an empty queue.
  cv.notify_one();
  cv.notify_all();
  CondVarStats s = cv.stats();
  EXPECT_EQ(s.notify_one_calls, 1u);
  EXPECT_EQ(s.notify_all_calls, 1u);
  EXPECT_EQ(s.lost_notifies, 2u);
  EXPECT_EQ(s.threads_woken, 0u);

  // One successful wait/notify pair.
  std::thread waiter([&] {
    NoSync sync;
    cv.wait_final(sync);
  });
  while (cv.waiter_count() == 0) std::this_thread::yield();
  EXPECT_TRUE(cv.notify_one());
  waiter.join();
  s = cv.stats();
  EXPECT_EQ(s.waits, 1u);
  EXPECT_EQ(s.notify_one_calls, 2u);
  EXPECT_EQ(s.threads_woken, 1u);

  // A timed wait that times out.
  NoSync sync;
  EXPECT_FALSE(cv.wait_for(sync, std::chrono::milliseconds(5)));
  s = cv.stats();
  EXPECT_EQ(s.timed_waits, 1u);
  EXPECT_EQ(s.timeouts, 1u);
  EXPECT_EQ(s.waits, 1u);  // a timeout is not a completed wait
}

TEST(CondVar, NestedMonitorWaitReleasesAllLocks) {
  // §4.1's nested-monitor case (Wettstein): WAIT with several locks held
  // releases all of them and re-acquires outermost-first on wake.
  CondVar cv;
  std::mutex outer, inner;
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    outer.lock();
    inner.lock();
    LockSync sync;
    sync.push(LockRef::of(outer));
    sync.push(LockRef::of(inner));
    cv.wait(sync);  // both released during the sleep, both held after
    EXPECT_FALSE(outer.try_lock());
    EXPECT_FALSE(inner.try_lock());
    inner.unlock();
    outer.unlock();
    woke.store(true);
  });
  // Parked, not just enqueued: the locks are released after the enqueue.
  test::await_parked(WaitReason::kCondVar, &cv);
  // Both locks must be free while the waiter sleeps.
  EXPECT_TRUE(outer.try_lock());
  EXPECT_TRUE(inner.try_lock());
  inner.unlock();
  outer.unlock();
  cv.notify_one();
  waiter.join();
  EXPECT_TRUE(woke.load());
}

TEST(CondVar, NakedNotifyIsSafe) {
  // NOTIFY from a completely unsynchronized context must not race the
  // queue (the internal transaction protects it).
  CondVar cv;
  std::mutex m;
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    m.lock();
    LockSync sync(m);
    cv.wait_final(sync);
    woke.store(true);
  });
  while (cv.waiter_count() == 0) std::this_thread::yield();
  cv.notify_one();  // no lock, no transaction
  waiter.join();
  EXPECT_TRUE(woke.load());
}

TEST(CondVar, WaitFromUnsynchronizedContext) {
  // Permitted by the algorithm (NoSync); used by tests and esoteric callers.
  CondVar cv;
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    NoSync sync;
    cv.wait_final(sync);
    woke.store(true);
  });
  while (cv.waiter_count() == 0) std::this_thread::yield();
  cv.notify_one();
  waiter.join();
  EXPECT_TRUE(woke.load());
}

}  // namespace
}  // namespace tmcv

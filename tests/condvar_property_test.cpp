// Property-based tests of the condition-variable guarantees (§3.4):
//   * No spurious wake-ups: completed waits never exceed notifications.
//   * No lost wake-ups: every notify that selected a waiter wakes it.
//   * Exact pairing under churn, across backends and thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/condvar.h"
#include "tm/api.h"
#include "tm/var.h"
#include "util/rng.h"

namespace tmcv {
namespace {

using tm::Backend;

struct ChurnParam {
  Backend backend;
  int waiters;
  int rounds;
};

class CondVarChurn
    : public ::testing::TestWithParam<std::tuple<Backend, int>> {
 protected:
  void SetUp() override {
    saved_ = tm::default_backend();
    tm::set_default_backend(std::get<0>(GetParam()));
    ASSERT_EQ(tm::resolve_backend(std::get<0>(GetParam())),
              std::get<0>(GetParam()));
  }
  void TearDown() override { tm::set_default_backend(saved_); }

 private:
  Backend saved_{};
};

INSTANTIATE_TEST_SUITE_P(
    Sweep, CondVarChurn,
    ::testing::Combine(::testing::Values(Backend::EagerSTM, Backend::HTM,
                                         Backend::NOrec),
                       ::testing::Values(1, 2, 4, 8)),
    [](const auto& info) {
      return std::string(tm::to_string(std::get<0>(info.param))) + "_w" +
             std::to_string(std::get<1>(info.param));
    });

// Token-passing churn: a notifier hands out exactly `kTokens` wakeups; the
// waiters must consume exactly that many, one per wait, no more, no less.
TEST_P(CondVarChurn, ExactWaitNotifyPairing) {
  const int n_waiters = std::get<1>(GetParam());
  constexpr int kRoundsPerWaiter = 200;
  const int total_rounds = n_waiters * kRoundsPerWaiter;

  CondVar cv;
  tm::var<int> tokens(0);
  std::atomic<int> consumed{0};
  std::atomic<int> completed_waits{0};

  std::vector<std::thread> waiters;
  for (int w = 0; w < n_waiters; ++w) {
    waiters.emplace_back([&] {
      for (int r = 0; r < kRoundsPerWaiter; ++r) {
        // Refactored wait loop: take a token or wait.
        for (;;) {
          bool got = false;
          tm::atomically([&] {
            got = false;  // re-init: closure may retry
            if (tokens.load() > 0) {
              tokens.store(tokens.load() - 1);
              got = true;
              return;
            }
            tm::TxnSync sync;
            cv.wait_final(sync);
          });
          if (got) break;
          completed_waits.fetch_add(1);
        }
        consumed.fetch_add(1);
      }
    });
  }

  std::thread notifier([&] {
    for (int i = 0; i < total_rounds; ++i) {
      tm::atomically([&] {
        tokens.store(tokens.load() + 1);
        cv.notify_one();
      });
      if ((i & 63) == 0) std::this_thread::yield();
    }
    // Sweep stragglers: waiters that raced past a notify re-wait; wake them
    // until everyone drains the token pool.
    while (consumed.load() < total_rounds) {
      cv.notify_all();
      std::this_thread::yield();
    }
  });

  notifier.join();
  for (auto& w : waiters) w.join();
  EXPECT_EQ(consumed.load(), total_rounds);
  EXPECT_EQ(tokens.load(), 0);
}

// Spurious-wakeup freedom: with exactly K notifies for K sleeping waiters
// and no other wake source, exactly K waits complete -- no wait ever returns
// unpaired.
TEST_P(CondVarChurn, NoSpuriousWakeups) {
  const int n_waiters = std::get<1>(GetParam());
  constexpr int kIterations = 50;

  for (int iter = 0; iter < kIterations; ++iter) {
    CondVar cv;
    std::atomic<int> woke{0};
    std::vector<std::thread> waiters;
    for (int w = 0; w < n_waiters; ++w) {
      waiters.emplace_back([&] {
        NoSync sync;
        cv.wait_final(sync);
        woke.fetch_add(1);
      });
    }
    while (cv.waiter_count() < static_cast<std::size_t>(n_waiters))
      std::this_thread::yield();
    // Exactly n notifies; every one must pair.
    int selected = 0;
    for (int k = 0; k < n_waiters; ++k)
      if (cv.notify_one()) ++selected;
    EXPECT_EQ(selected, n_waiters);
    for (auto& w : waiters) w.join();
    EXPECT_EQ(woke.load(), n_waiters);
    // The n+1'th notify finds nobody.
    EXPECT_FALSE(cv.notify_one());
  }
}

// notify_all vs concurrent re-waiters: the §3.3 privatization scenario.
// Waiters continuously re-wait; notify_all storms must never lose a node,
// corrupt the queue, or double-wake.
TEST_P(CondVarChurn, NotifyAllRewaitStorm) {
  const int n_waiters = std::get<1>(GetParam());
  constexpr int kRounds = 300;

  CondVar cv;
  std::atomic<bool> stop{false};
  std::atomic<long> wakeups{0};
  std::vector<std::thread> waiters;
  for (int w = 0; w < n_waiters; ++w) {
    waiters.emplace_back([&] {
      while (!stop.load()) {
        bool waited = false;
        tm::atomically([&] {
          // Leave immediately if shutdown started; otherwise sleep.
          if (stop.load()) return;
          tm::TxnSync sync;
          cv.wait_final(sync);
          waited = true;
        });
        if (waited) wakeups.fetch_add(1);
      }
    });
  }
  long notified = 0;
  for (int r = 0; r < kRounds; ++r) {
    notified += static_cast<long>(cv.notify_all());
    if ((r & 15) == 0) std::this_thread::yield();
  }
  stop.store(true);
  // Drain: keep notifying until every waiter observes `stop` and exits.
  std::atomic<bool> joined{false};
  std::thread drainer([&] {
    while (!joined.load()) {
      notified += static_cast<long>(cv.notify_all());
      std::this_thread::yield();
    }
  });
  for (auto& w : waiters) w.join();
  joined.store(true);
  drainer.join();
  // Every wakeup was caused by a notification that dequeued that waiter.
  EXPECT_LE(wakeups.load(), notified);
  EXPECT_EQ(cv.waiter_count(), 0u);
}

// Two condition variables sharing one thread's node sequentially: the
// per-thread node is reused across CVs; pairing must stay exact.
TEST(CondVarProperty, NodeReuseAcrossCondVars) {
  CondVar cv_a, cv_b;
  std::atomic<int> phase{0};
  std::thread waiter([&] {
    NoSync sync;
    cv_a.wait_final(sync);
    phase.store(1);
    cv_b.wait_final(sync);
    phase.store(2);
  });
  while (cv_a.waiter_count() == 0) std::this_thread::yield();
  cv_a.notify_one();
  while (phase.load() < 1) std::this_thread::yield();
  while (cv_b.waiter_count() == 0) std::this_thread::yield();
  EXPECT_EQ(cv_a.waiter_count(), 0u);
  cv_b.notify_one();
  waiter.join();
  EXPECT_EQ(phase.load(), 2);
}

// Counting semantics of notify_all's return value.
TEST(CondVarProperty, NotifyAllReportsExactCount) {
  for (int n = 0; n <= 6; ++n) {
    CondVar cv;
    std::vector<std::thread> waiters;
    for (int i = 0; i < n; ++i) {
      waiters.emplace_back([&] {
        NoSync sync;
        cv.wait_final(sync);
      });
      while (cv.waiter_count() < static_cast<std::size_t>(i + 1))
        std::this_thread::yield();
    }
    EXPECT_EQ(cv.notify_all(), static_cast<std::size_t>(n));
    for (auto& w : waiters) w.join();
  }
}

}  // namespace
}  // namespace tmcv

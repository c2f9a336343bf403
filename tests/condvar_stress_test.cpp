// Stress tests for the condition variable under randomized mixed-context
// churn: many threads alternating roles (lock-waiter, txn-waiter, lock-
// notifier, txn-notifier, naked notifier) against shared condvars, across
// backends.  These runs hunt for lost wake-ups, queue corruption,
// double-posts, and privatization races (§3.3) that targeted tests miss.
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
#include "sync/sync_context.h"
#include "tm/api.h"
#include "tm/txn_sync.h"
#include "tm/var.h"
#include "util/rng.h"

namespace tmcv {
namespace {

using tm::Backend;

class CondVarStress : public test::BackendParamTest {};

INSTANTIATE_TEST_SUITE_P(AllBackends, CondVarStress,
                         ::testing::Values(Backend::EagerSTM, Backend::HTM,
                                           Backend::NOrec),
                         [](const auto& info) {
                           return std::string(tm::to_string(info.param));
                         });

// Token economy with mixed waiter/notifier contexts: strict conservation
// must hold no matter how the roles interleave.
TEST_P(CondVarStress, MixedContextTokenEconomy) {
  constexpr int kWaiters = 6;
  constexpr int kTokensPerWaiter = 150;
  const int total = kWaiters * kTokensPerWaiter;

  CondVar cv;
  std::mutex m;
  tm::var<int> tokens(0);
  std::atomic<int> consumed{0};

  std::vector<std::thread> waiters;
  for (int w = 0; w < kWaiters; ++w) {
    waiters.emplace_back([&, w] {
      const bool use_lock = (w % 2 == 0);
      for (int r = 0; r < kTokensPerWaiter; ++r) {
        if (use_lock) {
          // Lock-based consumer: classic predicate loop.
          std::unique_lock<std::mutex> lk(m);
          for (;;) {
            const bool got = tm::atomically([&] {
              if (tokens.load() > 0) {
                tokens.store(tokens.load() - 1);
                return true;
              }
              return false;
            });
            if (got) break;
            LockSync sync(m);
            cv.wait(sync);
          }
        } else {
          // Transactional consumer: refactored wait loop.
          for (;;) {
            bool got = false;
            tm::atomically([&] {
              got = false;
              if (tokens.load() > 0) {
                tokens.store(tokens.load() - 1);
                got = true;
                return;
              }
              tm::TxnSync sync;
              cv.wait_final(sync);
            });
            if (got) break;
          }
        }
        consumed.fetch_add(1);
      }
    });
  }

  // Producers in three flavors.
  std::vector<std::thread> producers;
  std::atomic<int> produced{0};
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&, p] {
      while (true) {
        const int mine = produced.fetch_add(1);
        if (mine >= total) break;
        switch (p) {
          case 0: {  // lock-held notify
            std::lock_guard<std::mutex> g(m);
            tm::atomically([&] { tokens.store(tokens.load() + 1); });
            cv.notify_one();
            break;
          }
          case 1:  // transactional notify (deferred)
            tm::atomically([&] {
              tokens.store(tokens.load() + 1);
              cv.notify_one();
            });
            break;
          default:  // naked notify
            tm::atomically([&] { tokens.store(tokens.load() + 1); });
            cv.notify_one();
            break;
        }
      }
    });
  }
  for (auto& p : producers) p.join();
  // Sweep stragglers until all tokens are consumed.
  while (consumed.load() < total) {
    cv.notify_all();
    std::this_thread::yield();
  }
  for (auto& w : waiters) w.join();
  EXPECT_EQ(consumed.load(), total);
  EXPECT_EQ(tokens.load(), 0);
  EXPECT_EQ(cv.waiter_count(), 0u);
}

// Two condvars, threads randomly hopping between them as waiters and
// notifiers: exercises node reuse across queues under contention.
TEST_P(CondVarStress, TwoCondVarsRandomHopping) {
  constexpr int kThreads = 6;
  constexpr int kOpsPerThread = 400;
  CondVar cv_a, cv_b;
  tm::var<int> credits_a(0), credits_b(0);
  std::atomic<bool> done{false};

  auto consume_or_wait = [&](CondVar& cv, tm::var<int>& credits) {
    for (;;) {
      bool got = false;
      bool bail = false;
      tm::atomically([&] {
        got = false;
        bail = false;
        if (done.load(std::memory_order_relaxed)) {
          bail = true;
          return;
        }
        if (credits.load() > 0) {
          credits.store(credits.load() - 1);
          got = true;
          return;
        }
        tm::TxnSync sync;
        cv.wait_final(sync);
      });
      if (got || bail) return;
    }
  };

  std::vector<std::thread> threads;
  std::atomic<long> net{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(static_cast<std::uint64_t>(t) * 7 + 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const auto dice = rng.next_below(4);
        CondVar& cv = (dice & 1) ? cv_a : cv_b;
        tm::var<int>& credits = (dice & 1) ? credits_a : credits_b;
        if (dice < 2) {
          // Produce a credit and notify.
          tm::atomically([&] {
            credits.store(credits.load() + 1);
            cv.notify_one();
          });
          net.fetch_add(1);
        } else {
          consume_or_wait(cv, credits);
          net.fetch_sub(1);
        }
      }
    });
  }
  // Unblock any thread starved of credits at shutdown.
  std::thread feeder([&] {
    while (!done.load()) {
      tm::atomically([&] {
        credits_a.store(credits_a.load() + 1);
        cv_a.notify_one();
      });
      tm::atomically([&] {
        credits_b.store(credits_b.load() + 1);
        cv_b.notify_one();
      });
      std::this_thread::yield();
    }
  });
  for (auto& t : threads) t.join();
  done.store(true);
  feeder.join();
  // Both queues must be empty and consistent afterwards.
  EXPECT_EQ(cv_a.waiter_count(), 0u);
  EXPECT_EQ(cv_b.waiter_count(), 0u);
  EXPECT_GE(credits_a.load(), 0);
  EXPECT_GE(credits_b.load(), 0);
}

// notify_all racing with waiters that immediately re-wait: hammers the
// privatization argument of §3.3 (plain `next` writes on privatized nodes
// vs transactional queue walks).
TEST_P(CondVarStress, PrivatizationChurn) {
  constexpr int kWaiters = 8;
  constexpr int kNotifyRounds = 800;
  CondVar cv;
  std::atomic<bool> stop{false};
  std::atomic<long> wakeups{0};
  std::vector<std::thread> waiters;
  for (int w = 0; w < kWaiters; ++w) {
    waiters.emplace_back([&] {
      NoSync sync;
      while (!stop.load()) {
        cv.wait_final(sync);  // immediately re-wait on wake
        wakeups.fetch_add(1);
      }
    });
  }
  // Let the herd park before the storm begins.
  while (cv.waiter_count() < kWaiters) std::this_thread::yield();
  long notified = 0;
  for (int r = 0; r < kNotifyRounds; ++r) {
    notified += static_cast<long>(cv.notify_all());
    if ((r & 7) == 0) std::this_thread::yield();
  }
  stop.store(true);
  std::atomic<bool> joined{false};
  std::thread drainer([&] {
    while (!joined.load()) {
      cv.notify_all();
      std::this_thread::yield();
    }
  });
  for (auto& w : waiters) w.join();
  joined.store(true);
  drainer.join();
  EXPECT_EQ(cv.waiter_count(), 0u);
  EXPECT_GT(wakeups.load(), 0);
}


// The same churn with notifiers racing each other, and with lock-based
// waiters that re-wait at once: one notifier's commit removes a node whose
// owner re-waits (WAIT line 1 nulls its `next` with a plain store) while
// another notifier's doomed attempt is still walking the queue, so that
// walk meets null before `size` nodes.  The walk must abort, not follow
// the null (before it did, this crashed about one run in three).
TEST_P(CondVarStress, PrivatizationChurnConcurrentNotifiers) {
  constexpr int kWaiters = 5;
  constexpr int kNotifiers = 2;
  constexpr auto kStorm = std::chrono::milliseconds(300);
  condition_variable cv;
  std::mutex m;
  std::atomic<bool> stop{false};
  std::atomic<int> live_waiters{kWaiters};
  std::vector<std::thread> waiters;
  for (int w = 0; w < kWaiters; ++w) {
    waiters.emplace_back([&] {
      while (!stop.load()) {
        std::unique_lock<std::mutex> lock(m);
        if (stop.load()) break;
        cv.wait(lock);
      }
      live_waiters.fetch_sub(1);
    });
  }
  std::vector<std::thread> notifiers;
  const auto end = std::chrono::steady_clock::now() + kStorm;
  for (int n = 0; n < kNotifiers; ++n) {
    notifiers.emplace_back([&] {
      while (std::chrono::steady_clock::now() < end) {
        cv.notify_all();
        cv.notify_one();
      }
    });
  }
  for (auto& t : notifiers) t.join();
  stop.store(true);
  while (live_waiters.load() > 0) {
    cv.notify_all();
    std::this_thread::yield();
  }
  for (auto& t : waiters) t.join();
  EXPECT_EQ(cv.raw().waiter_count(), 0u);
}

}  // namespace
}  // namespace tmcv

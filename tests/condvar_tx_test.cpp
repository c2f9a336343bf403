// Condition variables used from transactional contexts: the
// TMParsec+TMCondVar usage mode.  Covers CPS waits, traditional waits with
// irrevocable continuations, wait_at_commit, deferred notification
// semantics, and mixed lock/transaction interoperation.
#include <gtest/gtest.h>

#include <atomic>
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

using tm::Backend;

class CondVarTx : public test::BackendParamTest {};

INSTANTIATE_TEST_SUITE_P(AllBackends, CondVarTx,
                         ::testing::Values(Backend::EagerSTM, Backend::HTM,
                                           Backend::NOrec),
                         [](const auto& info) {
                           return std::string(tm::to_string(info.param));
                         });

TEST_P(CondVarTx, CpsWaitSplitsTransaction) {
  CondVar cv;
  tm::var<int> state(0);
  std::atomic<bool> cont_ran{false};
  std::thread waiter([&] {
    tm::atomically([&] {
      state.store(1);  // first half
      tm::TxnSync sync;
      cv.wait(sync, [&] {
        // Continuation: runs in its own transaction.
        EXPECT_TRUE(tm::in_txn());
        EXPECT_EQ(state.load(), 2);  // sees the notifier's update
        state.store(3);
        cont_ran.store(true);
      });
    });
    EXPECT_FALSE(tm::in_txn());
  });
  // The first half must become visible before any notify.
  while (state.load() != 1) std::this_thread::yield();
  while (cv.waiter_count() == 0) std::this_thread::yield();
  tm::atomically([&] {
    state.store(2);
    cv.notify_one();
  });
  waiter.join();
  EXPECT_TRUE(cont_ran.load());
  EXPECT_EQ(state.load(), 3);
}

TEST_P(CondVarTx, TraditionalWaitResumesIrrevocably) {
  CondVar cv;
  tm::var<int> state(0);
  std::thread waiter([&] {
    tm::atomically([&] {
      state.store(1);
      tm::TxnSync sync;
      cv.wait(sync);
      // Continuation: we are irrevocable now (§4.3).
      EXPECT_EQ(tm::descriptor().state(), tm::TxState::Serial);
      EXPECT_EQ(state.load(), 2);
      state.store(3);
    });
  });
  while (state.load() != 1) std::this_thread::yield();
  while (cv.waiter_count() == 0) std::this_thread::yield();
  tm::atomically([&] {
    state.store(2);
    cv.notify_one();
  });
  waiter.join();
  EXPECT_EQ(state.load(), 3);
}

TEST_P(CondVarTx, NotifyDeferredUntilNotifierCommits) {
  // §3.2: a NOTIFY inside a transaction must not wake anyone until the
  // outermost transaction commits -- no wake-ups from doomed transactions.
  CondVar cv;
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    NoSync sync;
    cv.wait_final(sync);
    woke.store(true);
  });
  while (cv.waiter_count() == 0) std::this_thread::yield();

  std::atomic<bool> inside{false};
  std::atomic<bool> release{false};
  std::thread notifier([&] {
    tm::atomically([&] {
      // Only the first attempt matters for the observation window; retries
      // are harmless because `woke` must stay false until commit anyway.
      cv.notify_one();
      inside.store(true);
      while (!release.load()) std::this_thread::yield();
    });
  });
  while (!inside.load()) std::this_thread::yield();
  // The notify has executed inside the still-open transaction: the waiting
  // thread must not have been woken yet.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(woke.load());
  release.store(true);
  notifier.join();
  waiter.join();
  EXPECT_TRUE(woke.load());
}

TEST_P(CondVarTx, AbortedNotifyWakesNobody) {
  CondVar cv;
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    NoSync sync;
    cv.wait_final(sync);
    woke.store(true);
  });
  while (cv.waiter_count() == 0) std::this_thread::yield();
  // A transaction that notifies and then aborts (user exception) must leave
  // the waiter asleep AND the queue unchanged (the dequeue rolled back).
  try {
    tm::atomically([&] {
      cv.notify_one();
      throw std::runtime_error("doomed");
    });
  } catch (const std::runtime_error&) {
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(woke.load());
  EXPECT_EQ(cv.waiter_count(), 1u);
  // A real notify still works afterwards.
  cv.notify_one();
  waiter.join();
  EXPECT_TRUE(woke.load());
}

TEST_P(CondVarTx, WaitAtCommitSleepsAfterEnclosingCommit) {
  CondVar cv;
  tm::var<int> state(0);
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    tm::atomically([&] {
      state.store(1);
      cv.wait_at_commit();
      // Control returns here, still inside the transaction; it must end
      // immediately (the sleep happens in the commit handler).
    });
    woke.store(true);
  });
  while (cv.waiter_count() == 0) std::this_thread::yield();
  // First half must have committed before the thread blocked.
  EXPECT_EQ(state.load(), 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(woke.load());
  cv.notify_one();
  waiter.join();
  EXPECT_TRUE(woke.load());
}

TEST_P(CondVarTx, WaitFinalInsideTransaction) {
  CondVar cv;
  tm::var<int> state(0);
  std::thread waiter([&] {
    tm::atomically([&] {
      state.store(1);
      tm::TxnSync sync;
      cv.wait_final(sync);  // transaction already committed; no continuation
    });
    EXPECT_FALSE(tm::in_txn());
  });
  while (cv.waiter_count() == 0) std::this_thread::yield();
  EXPECT_EQ(state.load(), 1);
  cv.notify_one();
  waiter.join();
}

TEST_P(CondVarTx, MixedLockAndTransactionContexts) {
  // One waiter under a lock, one under a transaction, notifier alternating
  // contexts: the transactional queue makes every combination safe (§3.2).
  CondVar cv;
  std::mutex m;
  std::atomic<int> woke{0};
  std::thread lock_waiter([&] {
    m.lock();
    LockSync sync(m);
    cv.wait_final(sync);
    woke.fetch_add(1);
  });
  while (cv.waiter_count() < 1) std::this_thread::yield();
  std::thread txn_waiter([&] {
    tm::atomically([&] {
      tm::TxnSync sync;
      cv.wait_final(sync);
    });
    woke.fetch_add(1);
  });
  while (cv.waiter_count() < 2) std::this_thread::yield();

  // Notify once from a transaction, once from a lock-based section.
  tm::atomically([&] { cv.notify_one(); });
  {
    std::lock_guard<std::mutex> g(m);
    cv.notify_one();
  }
  lock_waiter.join();
  txn_waiter.join();
  EXPECT_EQ(woke.load(), 2);
}

TEST_P(CondVarTx, NotifyAllFromTransactionWakesAll) {
  constexpr int kWaiters = 5;
  CondVar cv;
  std::atomic<int> woke{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      tm::atomically([&] {
        tm::TxnSync sync;
        cv.wait_final(sync);
      });
      woke.fetch_add(1);
    });
    while (cv.waiter_count() < static_cast<std::size_t>(i + 1))
      std::this_thread::yield();
  }
  std::size_t notified = 0;
  tm::atomically([&] { notified = cv.notify_all(); });
  EXPECT_EQ(notified, static_cast<std::size_t>(kWaiters));
  for (auto& w : waiters) w.join();
  EXPECT_EQ(woke.load(), kWaiters);
}

TEST_P(CondVarTx, TxConditionVariableFacade) {
  tx_condition_variable cv;
  tm::var<bool> flag(false);
  std::thread waiter([&] {
    tm::atomically([&] {
      if (!flag.load()) cv.wait_tx();
      // Irrevocable continuation: flag must be true now (single notify,
      // guarded by the predicate).
      EXPECT_TRUE(flag.load());
    });
  });
  while (cv.raw().waiter_count() == 0) std::this_thread::yield();
  tm::atomically([&] {
    flag.store(true);
    cv.notify_one();
  });
  waiter.join();
  SUCCEED();
}

TEST_P(CondVarTx, RewaitFromContinuation) {
  // §3.4 "oblivious wake-ups": a woken thread whose predicate does not hold
  // re-waits.  Exercise the recursive-wait path from a continuation.
  CondVar cv;
  tm::var<int> value(0);
  std::atomic<int> wakeups{0};
  std::thread waiter([&] {
    // Refactored wait loop (what the paper's PARSEC port does).
    for (;;) {
      bool satisfied = false;
      tm::atomically([&] {
        if (value.load() >= 2) {
          satisfied = true;
          return;
        }
        tm::TxnSync sync;
        cv.wait_final(sync);
      });
      if (satisfied) break;
      wakeups.fetch_add(1);
    }
  });
  while (cv.waiter_count() == 0) std::this_thread::yield();
  // First notify: predicate still false -> thread re-waits.
  tm::atomically([&] {
    value.store(1);
    cv.notify_one();
  });
  while (wakeups.load() < 1) std::this_thread::yield();
  while (cv.waiter_count() == 0) std::this_thread::yield();
  tm::atomically([&] {
    value.store(2);
    cv.notify_one();
  });
  waiter.join();
  EXPECT_GE(wakeups.load(), 1);
  EXPECT_EQ(value.load(), 2);
}


// A notify nested in a transaction is counted (and traced) when that
// transaction commits, once, however many attempts ran it.
TEST_P(CondVarTx, NestedNotifyCountedOncePerCommit) {
  CondVar cv;
  int attempts = 0;  // plain int: survives the abort
  tm::atomically([&] {
    cv.notify_one();
    if (attempts++ == 0) tm::retry_txn();
  });
  EXPECT_GE(attempts, 2);
  const CondVarStats s = cv.stats();
  EXPECT_EQ(s.notify_one_calls, 1u);
  EXPECT_EQ(s.lost_notifies, 1u);
  EXPECT_EQ(s.threads_woken, 0u);
}

TEST_P(CondVarTx, NestedNotifyWakesAndCountsOncePerCommit) {
  CondVar cv;
  std::thread waiter([&] {
    NoSync sync;
    cv.wait_final(sync);
  });
  while (cv.waiter_count() == 0) std::this_thread::yield();
  int attempts = 0;
  tm::atomically([&] {
    cv.notify_one();
    if (attempts++ == 0) tm::retry_txn();
  });
  waiter.join();
  EXPECT_GE(attempts, 2);
  const CondVarStats s = cv.stats();
  EXPECT_EQ(s.notify_one_calls, 1u);
  EXPECT_EQ(s.threads_woken, 1u);
  EXPECT_EQ(s.lost_notifies, 0u);
  EXPECT_EQ(s.waits, 1u);
}

// Under contention, with every transaction forced to abort once, the
// notify counters equal the number of committed notifies exactly.
TEST_P(CondVarTx, NotifyCountsMatchCommittedNotifies) {
  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 300;
  CondVar cv;
  tm::var<std::uint64_t> commits(0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kTxnsPerThread; ++i) {
        bool aborted_once = false;
        tm::atomically([&] {
          commits.store(commits.load() + 1);
          if (i % 2 == 0)
            cv.notify_one();
          else
            cv.notify_all();
          // A serial (escalated) attempt cannot roll back.
          if (!aborted_once &&
              tm::descriptor().state() == tm::TxState::Optimistic) {
            aborted_once = true;
            tm::retry_txn();
          }
        });
      }
    });
  }
  for (auto& t : threads) t.join();
  const std::uint64_t total = kThreads * kTxnsPerThread;
  EXPECT_EQ(commits.load(), total);
  const CondVarStats s = cv.stats();
  EXPECT_EQ(s.notify_one_calls, total / 2);
  EXPECT_EQ(s.notify_all_calls, total / 2);
  EXPECT_EQ(s.lost_notifies, total);  // nobody ever waits
  EXPECT_EQ(s.threads_woken, 0u);
}

}  // namespace
}  // namespace tmcv

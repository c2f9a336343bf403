// Drop-in replacements for the legacy C++/pthread condition-variable
// interfaces, built on the transaction-friendly CondVar.
//
//   tmcv::condition_variable  -- mirrors std::condition_variable usage with
//                                std::unique_lock (any Lockable), §4.1's
//                                "indistinguishable from pthread" mode.
//                                Bonus over the standard: no spurious
//                                wake-ups (§3.4), though wait(lock, pred)
//                                retains the guard loop for oblivious
//                                wake-ups under notify_all.
//
//   tmcv::tx_condition_variable -- the same interface for transactional
//                                critical sections: wait_tx() splits the
//                                enclosing transaction and resumes the
//                                caller irrevocably (§4.3); wait_cps() runs
//                                an explicit continuation.
//
// Both are thin adapters: either may be notified from locks, transactions,
// or naked contexts, because the underlying queue is transactional.
#pragma once

#include <chrono>
#include <mutex>

#include "core/condvar.h"
#include "sync/sync_context.h"
#include "tm/txn_sync.h"

namespace tmcv {

class condition_variable {
 public:
  condition_variable() noexcept = default;

  // WAIT with the lock held; returns with the lock re-acquired.
  template <typename Mutex>
  void wait(std::unique_lock<Mutex>& lock) {
    TMCV_ASSERT_MSG(lock.owns_lock(), "wait requires a held lock");
    LockSync sync(*lock.mutex());
    cv_.wait(sync);
  }

  template <typename Mutex, typename Predicate>
  void wait(std::unique_lock<Mutex>& lock, Predicate pred) {
    // The loop guards against *oblivious* wake-ups (another thread's
    // notify_all satisfying a different predicate), not spurious ones.
    while (!pred()) wait(lock);
  }

  // Timed WAIT: true if notified, false on timeout (extension; see
  // CondVar::wait_for).  Unlike std::condition_variable::wait_for there is
  // no spurious-wakeup case: false means the full duration elapsed.
  template <typename Mutex, typename Rep, typename Period>
  bool wait_for(std::unique_lock<Mutex>& lock,
                std::chrono::duration<Rep, Period> timeout) {
    TMCV_ASSERT_MSG(lock.owns_lock(), "wait_for requires a held lock");
    LockSync sync(*lock.mutex());
    return cv_.wait_for(sync, timeout);
  }

  // Timed predicate WAIT: returns pred() on exit, like the std:: interface.
  template <typename Mutex, typename Rep, typename Period,
            typename Predicate>
  bool wait_for(std::unique_lock<Mutex>& lock,
                std::chrono::duration<Rep, Period> timeout, Predicate pred) {
    // Budget the deadline across re-waits (oblivious wake-ups may deliver
    // the notify to a different predicate's thread).
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (!pred()) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return pred();
      if (!wait_for(lock, deadline - now)) return pred();
    }
    return true;
  }

  // WAIT as the final action: releases the lock and does NOT re-acquire it
  // (§4.1's optimization).  The caller must not touch shared state after.
  template <typename Mutex>
  void wait_final(std::unique_lock<Mutex>& lock) {
    TMCV_ASSERT_MSG(lock.owns_lock(), "wait_final requires a held lock");
    LockSync sync(*lock.mutex());
    cv_.wait_final(sync);
    lock.release();  // ownership already surrendered inside wait_final
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

  [[nodiscard]] CondVar& raw() noexcept { return cv_; }

 private:
  CondVar cv_;
};

class tx_condition_variable {
 public:
  tx_condition_variable() noexcept = default;

  // Traditional-style WAIT inside tm::atomically: commits the enclosing
  // transaction, sleeps, and resumes the caller irrevocably.  Code after
  // this call runs as the continuation and must not self-abort.
  void wait_tx(std::uint64_t tag = 0) {
    TMCV_ASSERT_MSG(tm::in_txn(), "wait_tx requires a transactional context");
    tm::TxnSync sync;
    cv_.wait(sync, tag);
  }

  // CPS WAIT inside tm::atomically: must be the last action of the
  // enclosing closure; `cont` runs as an independent transaction.
  template <typename Cont>
  void wait_cps(Cont&& cont, std::uint64_t tag = 0) {
    TMCV_ASSERT_MSG(tm::in_txn(), "wait_cps requires a transactional context");
    tm::TxnSync sync;
    cv_.wait(sync, std::forward<Cont>(cont), tag);
  }

  // Timed transactional WAIT: true if notified, false on timeout.  Like
  // wait_tx, the caller resumes irrevocably either way.
  template <typename Rep, typename Period>
  bool wait_for_tx(std::chrono::duration<Rep, Period> timeout,
                   std::uint64_t tag = 0) {
    TMCV_ASSERT_MSG(tm::in_txn(),
                    "wait_for_tx requires a transactional context");
    tm::TxnSync sync;
    return cv_.wait_for(sync, timeout, tag);
  }

  // WAIT as the final action of the enclosing transaction.
  void wait_final_tx(std::uint64_t tag = 0) {
    TMCV_ASSERT_MSG(tm::in_txn(),
                    "wait_final_tx requires a transactional context");
    tm::TxnSync sync;
    cv_.wait_final(sync, tag);
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

  [[nodiscard]] CondVar& raw() noexcept { return cv_; }

 private:
  CondVar cv_;
};

}  // namespace tmcv

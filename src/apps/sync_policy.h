// Synchronization policies: the three software systems of the paper's
// evaluation (§5.3), expressed as interchangeable template policies so every
// building block and PARSEC kernel compiles once per system.
//
//   PthreadPolicy -- Parsec+pthreadCondVar: mutex critical sections,
//                    std::condition_variable.  The baseline.
//   TmCvPolicy    -- Parsec+TMCondVar: mutex critical sections, but our
//                    transaction-friendly condition variables (whose queues
//                    are protected by transactions internally).
//   TxnPolicy     -- TMParsec+TMCondVar: every critical section replaced by
//                    a transaction; shared data lives in tm::var cells;
//                    waits are manually refactored (transaction split at
//                    WAIT), exactly like the paper's PARSEC port.
//
// Policy surface:
//   Region           -- what a critical section locks (mutex / nothing)
//   CondVar          -- the condition-synchronization object
//   Cell<T>          -- shared data cell, valid inside critical sections
//   Notifier         -- the notifies a critical section owes (below)
//   critical(r, fn)        -- run fn as a critical section, return its value
//   relaxed(r, fn)         -- critical section allowed to do I/O
//                             (irrevocable transaction under TxnPolicy)
//   execute_or_wait(r, cv, fn)
//                    -- the Mesa wait loop: run fn in a critical section;
//                       if it returns false, wait on cv (splitting the
//                       section) and retry until it returns true
//
// Where a notify runs.  A section body may take a `Notifier&` and name the
// condition variables whose predicate it changed, right where it changed
// them: `notify.one(cv)` / `notify.all(cv)`.  The policy, not the block,
// decides when those notifies run:
//   - the lock policies run them after the unlock, in the order named, so a
//     woken thread does not run straight into the held mutex;
//   - TxnPolicy runs them on the spot, nested in the section's transaction
//     (the paper's NOTIFY, Algorithms 5-6, §3.2): the waiter-queue update
//     commits or aborts with the section, the posts go out in the commit's
//     wake batch, and the section costs one commit, not one plus one per
//     notify.
// A body that returns false to execute_or_wait (and so waits) must not
// notify: under a lock its notify would run only after the wait.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <type_traits>
#include <utility>

#include "core/condvar.h"
#include "core/legacy_cv.h"
#include "tm/api.h"
#include "tm/txn_sync.h"
#include "tm/var.h"
#include "util/assert.h"

namespace tmcv::apps {

// Plain cell: protection comes from the enclosing mutex.
template <typename T>
class PlainCell {
 public:
  constexpr PlainCell() noexcept : value_{} {}
  explicit constexpr PlainCell(T initial) noexcept : value_(initial) {}
  [[nodiscard]] T get() const noexcept { return value_; }
  void set(T v) noexcept { value_ = v; }

 private:
  T value_;
};

// Transactional cell adapter with the same get/set spelling.
template <typename T>
class TxCell {
 public:
  constexpr TxCell() noexcept = default;
  explicit TxCell(T initial) noexcept : value_(initial) {}
  [[nodiscard]] T get() const { return value_.load(); }
  void set(T v) { value_.store(v); }

 private:
  tm::var<T> value_;
};

// The lock policies' Notifier: records the notifies a section names and
// runs them when it is destroyed.  critical/execute_or_wait declare it
// before taking the lock, so it notifies after the unlock.
template <typename CV>
class NotifyAfterUnlock {
 public:
  NotifyAfterUnlock() = default;
  NotifyAfterUnlock(const NotifyAfterUnlock&) = delete;
  NotifyAfterUnlock& operator=(const NotifyAfterUnlock&) = delete;
  ~NotifyAfterUnlock() {
    for (std::size_t i = 0; i < count_; ++i) {
      if (pending_[i].all)
        pending_[i].cv->notify_all();
      else
        pending_[i].cv->notify_one();
    }
  }

  void one(CV& cv) { add(cv, false); }
  void all(CV& cv) { add(cv, true); }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

 private:
  struct Pending {
    CV* cv;
    bool all;
  };
  // No block names more than two condition variables in one section.
  static constexpr std::size_t kMaxPending = 2;

  void add(CV& cv, bool all) {
    TMCV_ASSERT_MSG(count_ < kMaxPending, "too many notifies in one section");
    pending_[count_++] = Pending{&cv, all};
  }

  Pending pending_[kMaxPending]{};
  std::size_t count_ = 0;
};

// TxnPolicy's Notifier: notifies at once, inside the running transaction.
template <typename CV>
struct NotifyInTxn {
  void one(CV& cv) { cv.notify_one(); }
  void all(CV& cv) { cv.notify_all(); }
};

namespace detail {

// Run a section body, handing it the Notifier when it takes one.
template <typename F, typename N>
decltype(auto) run_section(F& fn, N& notify) {
  if constexpr (std::is_invocable_v<F&, N&>)
    return fn(notify);
  else
    return fn();
}

}  // namespace detail

// ---------------------------------------------------------------------------

struct PthreadPolicy {
  static constexpr const char* name() noexcept { return "pthread"; }
  static constexpr bool kTransactional = false;

  using Region = std::mutex;
  using CondVar = std::condition_variable;
  template <typename T>
  using Cell = PlainCell<T>;
  using Notifier = NotifyAfterUnlock<CondVar>;

  template <typename F>
  static auto critical(Region& m, F&& fn) {
    Notifier notify;  // declared first: notifies after the unlock
    std::lock_guard<Region> guard(m);
    return detail::run_section(fn, notify);
  }

  template <typename F>
  static auto relaxed(Region& m, F&& fn) {
    return critical(m, std::forward<F>(fn));
  }

  template <typename F>
  static void execute_or_wait(Region& m, CondVar& cv, F&& fn) {
    Notifier notify;
    std::unique_lock<Region> lock(m);
    while (!detail::run_section(fn, notify)) {
      TMCV_DEBUG_ASSERT(notify.empty());
      cv.wait(lock);
    }
  }
};

// ---------------------------------------------------------------------------

struct TmCvPolicy {
  static constexpr const char* name() noexcept { return "tmcv"; }
  static constexpr bool kTransactional = false;

  using Region = std::mutex;
  using CondVar = tmcv::condition_variable;
  template <typename T>
  using Cell = PlainCell<T>;
  using Notifier = NotifyAfterUnlock<CondVar>;

  template <typename F>
  static auto critical(Region& m, F&& fn) {
    // The Notifier is declared first, so its notifies run after both the
    // unlock and the scope.  The scope is declared before the guard so it
    // outlives the unlock: a notify that fn calls on a condvar directly
    // morphs onto this mutex's relay chain (sync/wait_morph.h), waking one
    // waiter per unlock instead of the whole herd.
    Notifier notify;
    WakeHandoffScope scope(m);
    std::lock_guard<Region> guard(m);
    return detail::run_section(fn, notify);
  }

  template <typename F>
  static auto relaxed(Region& m, F&& fn) {
    return critical(m, std::forward<F>(fn));
  }

  template <typename F>
  static void execute_or_wait(Region& m, CondVar& cv, F&& fn) {
    Notifier notify;            // see critical()
    WakeHandoffScope scope(m);  // see critical()
    std::unique_lock<Region> lock(m);
    // No spurious wakeups; the loop handles oblivious ones under
    // notify_all.
    while (!detail::run_section(fn, notify)) {
      TMCV_DEBUG_ASSERT(notify.empty());
      cv.wait(lock);
    }
  }
};

// ---------------------------------------------------------------------------

struct TxnPolicy {
  static constexpr const char* name() noexcept { return "tm"; }
  static constexpr bool kTransactional = true;

  // Transactions need no named region; the empty struct keeps signatures
  // uniform (and marks where a lock used to be).
  struct Region {};
  using CondVar = tmcv::CondVar;
  template <typename T>
  using Cell = TxCell<T>;
  using Notifier = NotifyInTxn<CondVar>;

  template <typename F>
  static auto critical(Region&, F&& fn) {
    Notifier notify;
    return tm::atomically([&] { return detail::run_section(fn, notify); });
  }

  // Relaxed transaction: irrevocable, may perform I/O; serializes against
  // all other transactions (the paper's dedup anomaly, §5.4).
  template <typename F>
  static auto relaxed(Region&, F&& fn) {
    Notifier notify;
    return tm::irrevocably([&] { return detail::run_section(fn, notify); });
  }

  // The manual refactoring of §5.3: each iteration is one transaction; a
  // false predicate enqueues and splits at the WAIT, and the retry runs a
  // fresh transaction.  Predicate check and enqueue are atomic, so no
  // notify can fall between them.
  template <typename F>
  static void execute_or_wait(Region&, CondVar& cv, F&& fn) {
    Notifier notify;
    for (;;) {
      bool satisfied = false;
      tm::atomically([&] {
        satisfied = detail::run_section(fn, notify);
        if (!satisfied) {
          tm::TxnSync sync;
          cv.wait_final(sync);
        }
      });
      if (satisfied) return;
    }
  }
};

}  // namespace tmcv::apps

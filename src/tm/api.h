// Public TM API: tm::atomically, tm::irrevocably, tm::on_commit, tm::var.
//
// Transactions are closures.  `atomically(fn)` runs `fn` speculatively and
// retries it on conflict; because a retried closure re-executes from its
// first instruction with freshly captured state, this API is naturally
// continuation-friendly: the paper's WAIT splits a transaction by committing
// early inside the closure and running the continuation as a second closure
// (see core/condvar.h).
//
// Nesting is flat (paper §4.3): a nested atomically() merges into the
// enclosing transaction and the whole flat nest commits/aborts together.
//
// Contention management (tm/cm.h): jittered exponential backoff between
// retries, escalation to the serial lock after a bounded number of attempts
// *or* a run of consecutive conflict aborts, which guarantees progress even
// on heavily oversubscribed machines.  Hardware attempts are budgeted by the
// global fallback-pressure hysteresis and give up immediately on aborts
// retrying cannot fix (capacity, syscall), emulating RTM's lock-elision
// fallback discipline.  The escalated serial attempt undo-logs its writes,
// so a transaction is all-or-nothing on every rung.
//
// Thread-safety note on statistics: stats_snapshot is safe to call while
// threads run and exit -- the registry serializes thread-exit folds against
// snapshot scans, so no thread's counters are double-counted or lost; live
// counters are read with per-field eventual consistency.  stats_reset only
// records a baseline, so it is safe while transactions run too.
#pragma once

#include <functional>
#include <type_traits>
#include <utility>

#include "tm/descriptor.h"

namespace tmcv::tm {

// Process-wide default backend for transactions that do not name one.
// set_default_backend is the only way to change it after static
// initialisation, and it switches at a quiescence point: it acquires the
// serial lock (draining every in-flight optimistic transaction), stores the
// new default and releases, then counts one Stats::backend_switches.  It
// returns at once when `b` is already the default.  Must not be called
// inside a transaction.
void set_default_backend(Backend b) noexcept;
[[nodiscard]] Backend default_backend() noexcept;

// Map a requested backend to the one that will actually run, given the
// process-wide default.  NOrec detects conflicts by value against its own
// counter and ignores orecs entirely, so NOrec and orec-family transactions
// must never overlap on shared data.  The rule: while the default is NOrec,
// EVERY optimistic transaction (including explicit atomically(Backend::X)
// requests) runs NOrec; while the default is an orec backend, an explicit
// NOrec request is coerced to EagerSTM, the orec family's software STM.
// begin_top applies this after publishing activity, which makes it
// race-free across every change of the default (set_default_backend).
[[nodiscard]] Backend resolve_backend(Backend req) noexcept;

[[nodiscard]] inline bool in_txn() noexcept { return descriptor().in_txn(); }

// Register work to run after the outermost enclosing transaction commits
// (immediately when no transaction is active).  REGISTERHANDLER of
// Algorithms 5 and 6.
inline void on_commit(std::function<void()> fn) {
  descriptor().on_commit(std::move(fn));
}

// Register compensation to run if the enclosing transaction aborts.
inline void on_abort(std::function<void()> fn) {
  descriptor().on_abort(std::move(fn));
}

// Allocation-free variants: a function pointer plus a caller-owned context,
// stored in fixed per-descriptor slots (no std::function, no heap).  The
// context must outlive the outermost enclosing transaction -- in practice a
// thread_local or a stack frame that spans the atomically() call.  The wait
// paths use these so registering the one handler a wait needs never
// allocates.
inline void on_commit_fn(TxDescriptor::HandlerFn fn, void* ctx) {
  descriptor().on_commit_fn(fn, ctx);
}

inline void on_abort_fn(TxDescriptor::HandlerFn fn, void* ctx) {
  descriptor().on_abort_fn(fn, ctx);
}

// Queue a semaphore post for the outermost enclosing commit (immediate when
// no transaction is active).  The allocation-free specialization of
// on_commit for the notify fast path: victims accumulate in a per-descriptor
// wake batch and are posted with one coalesced BinarySemaphore::post_batch
// after publication; an abort discards the batch, so no wake escapes an
// aborted transaction (Algorithms 5/6).
inline void defer_wake(BinarySemaphore* sem) {
  descriptor().defer_wake(sem);
}

// Models "a syscall aborts a hardware transaction" (§3.2).  The condvar
// implementation calls this in front of every semaphore operation; correct
// usage never trips it because WAIT commits before sleeping and NOTIFY
// defers posts via on_commit.
inline void syscall_fence() { descriptor().syscall_fence(); }

// Explicitly abort and retry the current transaction (self-abort).
[[noreturn]] inline void retry_txn() {
  descriptor().abort_restart(TxAbort::Reason::Explicit);
}

// Harris-style "retry" (Composable Memory Transactions; the alternative
// condition-synchronization mechanism the paper's §6/§7 discuss): abort
// this transaction and block until some other transaction commits writes,
// then re-execute the closure from the top.  Use inside tm::atomically:
//
//   tm::atomically([&] {
//     if (queue_empty()) tm::retry_wait();   // sleeps, then re-runs
//     consume();
//   });
//
// Wake granularity is any-writing-commit (conservative: never loses a
// wakeup, may re-check the predicate spuriously often under unrelated
// commit traffic -- the classic trade-off versus condvar-style explicit
// notification, measurable with bench/ablation_retry).
[[noreturn]] inline void retry_wait() { descriptor().retry_and_wait(); }

// Punctuated transactions (Smaragdakis et al., discussed in the paper's
// §6): commit the enclosing transaction *now*, run `between` outside any
// transaction (it may block, perform I/O, sleep on a semaphore...), then
// resume a transactional context for the remainder of the enclosing
// atomically() closure.  The WAIT algorithm is the specialization where
// `between` is SEMWAIT(sem).  The continuation resumes irrevocably by
// default; pass false only when the remainder provably cannot abort.
// The programmer owns re-checking invariants that may have been broken
// while atomicity was suspended -- exactly the monitor discipline.
template <typename F>
void punctuate(F&& between, bool irrevocable_resume = true) {
  TxDescriptor& d = descriptor();
  TMCV_ASSERT_MSG(d.in_txn(), "punctuate requires a transactional context");
  d.end_sync_block();
  between();
  d.begin_sync_block(irrevocable_resume);
}

namespace detail {

// Park until the commit signal moves past `observed` (retry_wait support).
void retry_sleep(std::uint32_t observed) noexcept;

template <typename F>
void run_optimistic(Backend backend, F&& fn) {
  TxDescriptor& d = descriptor();
  if (d.in_txn()) {
    // Flat nesting: merge into the enclosing transaction.  TxAbort from the
    // body must propagate to the outermost retry loop untouched.
    d.push_nested();
    try {
      fn();
    } catch (...) {
      // The descriptor may already be Idle (abort paths reset it); only
      // adjust depth when the transaction is still alive.
      if (d.in_txn()) d.pop_nested();
      throw;
    }
    if (d.in_txn()) d.pop_nested();  // a split WAIT may have closed the txn
    return;
  }
  // The escalation ladder: the resolved backend's attempts, then the
  // serial lock (the paper's configurations: STM then serial for Figure 1,
  // HTM then serial for Figure 2).  Resolving first collapses every ladder
  // to NOrec-then-serial under a NOrec default; a stale read is harmless,
  // since begin_top re-resolves after publishing activity, which is the
  // race-free point.
  backend = resolve_backend(backend);
  // Hardware budgets come from the global fallback-pressure hysteresis, so
  // a fallback storm shrinks everyone's budget instead of letting the whole
  // fleet lemming into the lock.
  const int budget = backend == Backend::HTM ? htm_attempt_budget()
                                             : kStmAttemptsBeforeSerial;
  // Closures that ever executed retry_wait are *waiting*, not livelocked:
  // they never escalate to the serial lock (a serial attempt stops every
  // other thread, so each wake would stall the whole process).
  bool has_retry_waited = false;
  // Hardware aborts that retrying cannot fix (capacity, syscall) skip the
  // rest of the hardware budget.
  bool hard_fail = false;
  for (int attempt = 1;; ++attempt) {
    const bool spent = attempt > budget || hard_fail;
    // Escalate: run under the serial lock.  A conflict streak at the CM
    // limit escalates before the budget is spent.
    const bool serial =
        (spent || d.cm().wants_serial()) && !has_retry_waited;
    if (serial) {
      counters::bump(d.stats().serial_fallbacks);
      // A conflict streak hitting the CM limit before the attempt budget is
      // exhausted is the adaptive (karma-style) escalation; count it apart
      // from plain budget exhaustion.
      if (!spent) counters::bump(d.stats().cm_serial_escalations);
      cm_note_serial_escalation(d.txn_site());
      if (backend == Backend::HTM) note_htm_fallback();
      // Undo-logged, so the attempt can still roll back: on a user
      // exception and on retry_wait, which gives the lock back.
      d.begin_serial(1, /*undo=*/true);
    } else {
      d.begin_top(backend);
    }
    try {
      fn();
      d.commit_top();
      if (!serial && backend == Backend::HTM) note_htm_commit();
      return;
    } catch (const TxAbort& abort) {
      if (abort.reason == TxAbort::Reason::RetryWait) {
        // Deliberate waiting, not contention: park until a commit, and do
        // not let the wait count toward escalation.
        has_retry_waited = true;
        retry_sleep(static_cast<std::uint32_t>(abort.retry_signal));
        --attempt;
      } else if (abort.reason == TxAbort::Reason::Capacity ||
                 abort.reason == TxAbort::Reason::Syscall) {
        // Only hardware attempts raise these, and they are deterministic
        // for the closure: escalate now.
        hard_fail = true;
      } else {
        d.backoff_for_retry();
      }
    } catch (...) {
      // A non-TM exception escaping the body aborts the attempt (every
      // effect undone, the escalated serial attempt's included) and
      // propagates to the caller.  Only the irrevocable continuation of a
      // split WAIT cannot roll back: it commits what ran (see irrevocably).
      // A split WAIT may also have closed the transaction already.
      if (d.can_roll_back()) {
        try {
          d.abort_restart(TxAbort::Reason::Explicit);
        } catch (const TxAbort&) {
        }
      } else if (d.state() == TxState::Serial) {
        d.commit_serial();
      }
      throw;
    }
  }
}

}  // namespace detail

// Run `fn` as an atomic transaction on the given backend, retrying on
// conflicts.  Returns fn's result (if any); on retry the closure re-executes
// from scratch.
template <typename F>
auto atomically(Backend backend, F&& fn)
    -> std::invoke_result_t<F&> {
  using R = std::invoke_result_t<F&>;
  if constexpr (std::is_void_v<R>) {
    detail::run_optimistic(backend, fn);
  } else {
    // Stage the result outside the transaction so a retry overwrites it.
    // R must be default-constructible and assignable.
    R result{};
    detail::run_optimistic(backend, [&] { result = fn(); });
    return result;
  }
}

template <typename F>
auto atomically(F&& fn) -> std::invoke_result_t<F&> {
  return atomically(default_backend(), std::forward<F>(fn));
}

// Run `fn` irrevocably: no other transaction (optimistic or serial) runs
// concurrently, and `fn` may perform I/O or other non-undoable actions.
// This is the paper's "relaxed transaction" (§5.4).  It cannot roll back,
// so an exception escaping `fn` commits what ran and then propagates
// (GCC libitm's rule for irrevocable transactions); so does one escaping
// the irrevocable continuation of a split WAIT.  Nested inside an
// atomically() that escalated to the serial lock, `fn` joins that
// undo-logged attempt and aborts with it.
template <typename F>
auto irrevocably(F&& fn) -> std::invoke_result_t<F&> {
  using R = std::invoke_result_t<F&>;
  TxDescriptor& d = descriptor();
  if (d.in_txn()) {
    TMCV_ASSERT_MSG(d.state() == TxState::Serial,
                    "cannot upgrade an active optimistic transaction to "
                    "irrevocable; declare it at the outermost atomically");
    if constexpr (std::is_void_v<R>) {
      fn();
      return;
    } else {
      return fn();
    }
  }
  d.begin_serial();
  if constexpr (std::is_void_v<R>) {
    try {
      fn();
    } catch (...) {
      if (d.state() == TxState::Serial) d.commit_serial();
      throw;
    }
    d.commit_top();
  } else {
    R result{};
    try {
      result = fn();
    } catch (...) {
      if (d.state() == TxState::Serial) d.commit_serial();
      throw;
    }
    d.commit_top();
    return result;
  }
}

}  // namespace tmcv::tm

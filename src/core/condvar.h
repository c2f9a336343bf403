// Transaction-friendly condition variables (the paper's contribution).
//
// Each condition variable is a queue, in user space, of per-thread binary
// semaphores (Algorithm 3).  The queue is protected by transactions, so WAIT
// and NOTIFY may be called from any mix of lock-based critical sections,
// transactions, and unsynchronized code without racing (§3.2).  Semaphore
// operations never execute inside an active transaction: WAIT ends the
// caller's synchronization block before sleeping, and NOTIFY defers its
// posts until the outermost enclosing transaction commits.
//
// Guarantees (§3.4):
//   * No spurious wake-ups: a WAIT returns only after a matching NOTIFY
//     dequeued this thread's node and posted its semaphore.
//   * Mesa-style deterministic wake-ups with pluggable selection: FIFO
//     (default), LIFO, or predicate-driven notify_best.
//   * Immune to lost wake-ups: enqueue and block are not atomic, but the
//     semaphore's token makes a post that lands between them stick.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "sync/semaphore.h"
#include "sync/sync_context.h"
#include "sync/wait_morph.h"
#include "tm/api.h"
#include "tm/txn_sync.h"
#include "tm/var.h"
#include "util/assert.h"
#include "util/counters.h"

namespace tmcv {

// Which waiting thread a notify_one selects (§3.4: the user-space set admits
// arbitrary policies; FIFO matches Hoare's queue, LIFO favours cache warmth
// per Scherer & Scott).
enum class WakePolicy : std::uint8_t { FIFO, LIFO };

// Per-condvar counter family (util/counters.h), bumped by any thread with
// counters::add *outside* the queue transactions: a counter inside the
// transaction would manufacture conflicts between otherwise-disjoint
// operations.  A snapshot taken while threads are active may, e.g., show a
// notify whose matching wait has not incremented yet: cross-field
// invariants (waits <= threads_woken + timeouts in flight) only hold at
// quiescence.
struct CondVarStats : counters::Family<CondVarStats> {
  std::uint64_t waits = 0;          // completed waits (all flavours)
  std::uint64_t timed_waits = 0;    // wait_for calls
  std::uint64_t timeouts = 0;       // wait_for calls that timed out
  std::uint64_t notify_one_calls = 0;
  std::uint64_t notify_all_calls = 0;
  std::uint64_t notify_best_calls = 0;
  std::uint64_t threads_woken = 0;  // waiters selected across all notifies
  std::uint64_t lost_notifies = 0;  // notifies that found an empty queue

  // Visit every counter as (name, member pointer): single source of truth
  // for counters.h and the metrics exporters.
  template <typename Fn>
  static constexpr void for_each_field(Fn&& fn) {
    fn("waits", &CondVarStats::waits);
    fn("timed_waits", &CondVarStats::timed_waits);
    fn("timeouts", &CondVarStats::timeouts);
    fn("notify_one_calls", &CondVarStats::notify_one_calls);
    fn("notify_all_calls", &CondVarStats::notify_all_calls);
    fn("notify_best_calls", &CondVarStats::notify_best_calls);
    fn("threads_woken", &CondVarStats::threads_woken);
    fn("lost_notifies", &CondVarStats::lost_notifies);
  }
};

// Fold the counters of every live condition variable plus every destroyed
// one (folded at destruction under the same mutex, so nothing is counted
// twice or lost).  Per-field consistency model as documented above.
[[nodiscard]] CondVarStats condvar_stats_aggregate();

// Safe by-address probe for the wait-for graph: if `cv` is a LIVE CondVar
// (checked against the registry under its mutex -- never dereferenced
// otherwise), copy its counters and the site label of its most recent
// notify into the out-params and return true.  A parked waiter keeps its
// condvar alive (destruction with waiters queued is an assertion failure),
// so a pointer read from an active wait slot always resolves.
[[nodiscard]] bool condvar_probe(const void* cv, CondVarStats& stats,
                                 std::uint16_t& last_notify_site);

class CondVar;

namespace detail {

// One queue node per thread (Algorithm 3).  A thread waits on at most one
// condition variable at a time (it is blocked while queued), so a single
// thread_local node suffices -- this is the insight the paper credits to
// language-level thread locals versus Birrell's per-condvar semaphores.
struct WaitNode {
  BinarySemaphore sem;
  tm::var<WaitNode*> next{nullptr};
  tm::var<std::uint64_t> tag{0};  // notify_best discriminator
  bool enqueued = false;          // owner-only sanity flag
  // Owner-only: the condvar this wait is queued on, and the enqueue instant
  // for the wait latency region (0 when observability is off).
  CondVar* cv = nullptr;
  std::uint64_t t0 = 0;
  // Notify->wake latency stamp: written by the notifier when it selects
  // this node, consumed by the owner after the semaphore wait.  A stamp
  // from an aborted selection is overwritten or cleared at the next wait.
  std::atomic<std::uint64_t> notify_ticks{0};
  // Wait-morphing membership (see sync/wait_morph.h): a notifier running
  // under a lock scope defers this waiter onto the lock's relay chain via
  // this node instead of posting sem directly.  morph.sem always points at
  // `sem` above (set at enqueue).
  MorphWaiter morph;
};

WaitNode& my_wait_node() noexcept;

}  // namespace detail

class CondVar {
 public:
  explicit CondVar(WakePolicy policy = WakePolicy::FIFO) : policy_(policy) {
    register_self();
  }

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  ~CondVar() {
    TMCV_ASSERT_MSG(head_.load_plain() == nullptr,
                    "condition variable destroyed with waiting threads");
    unregister_self();  // folds this object's counters into the aggregate
  }

  // Every wait flavour below is enqueue_and_release + park + its own tail,
  // except wait_at_commit, which enqueues and parks once its txn commits.

  // ---- WAIT, continuation-passing style (Algorithm 4) ----
  //
  // Must be the last shared-state action of the enclosing synchronized
  // block.  `sync` describes the caller's context; `cont` runs afterwards
  // under an equivalent context (a fresh transaction with its own retry
  // loop, or the re-acquired locks).  `tag` is visible to notify_best.
  template <typename Cont>
  void wait(SyncContext& sync, Cont&& cont, std::uint64_t tag = 0) {
    detail::WaitNode& node = enqueue_and_release(sync, tag);
    park(node);
    run_continuation(sync, node, std::forward<Cont>(cont));
  }

  // ---- WAIT, traditional style (§4.1, §4.3) ----
  //
  // Returns with an equivalent synchronization block re-established; the
  // caller's own code after the call is the continuation.  Under a
  // transactional context the continuation runs irrevocably (§4.3), since a
  // conflict-abort after WAIT must not re-run the first half.
  void wait(SyncContext& sync, std::uint64_t tag = 0) {
    detail::WaitNode& node = enqueue_and_release(sync, tag);
    park(node);
    reacquire_and_relay(sync, node);  // line 11: re-lock / begin cont. txn
  }

  // ---- Timed WAIT (extension; traditional style) ----
  //
  // Returns true if notified, false on timeout.  Not in the paper: POSIX
  // compatibility requires pthread_cond_timedwait, and the user-space queue
  // makes it clean to add.  The timeout/notify race is resolved against the
  // queue: on timeout the thread transactionally removes its own node; if
  // the node is already gone, a notifier selected us and its post is in
  // flight (possibly deferred to that notifier's commit), so we consume it
  // and report "notified".  Exactly one of {timeout-removal, notify-
  // dequeue} can win, so no token is ever leaked or duplicated.
  template <typename Rep, typename Period>
  bool wait_for(SyncContext& sync,
                std::chrono::duration<Rep, Period> timeout,
                std::uint64_t tag = 0) {
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(timeout)
            .count());
    detail::WaitNode& node = enqueue_and_release(sync, tag);
    counters::add(stats_.timed_waits);
    const bool notified = park(node, ns);
    // On the timeout path the morph key is never set, so the relay in here
    // is a single relaxed exchange.
    reacquire_and_relay(sync, node);
    return notified;
  }

  // ---- WAIT as the final action of a critical section (§4.1) ----
  //
  // Elides the continuation entirely: no re-acquire, no second transaction.
  // The caller must not touch shared state after the call.
  void wait_final(SyncContext& sync, std::uint64_t tag = 0) {
    detail::WaitNode& node = enqueue_and_release(sync, tag);
    park(node);
    // No re-acquire by contract, so nothing to pace against: relay at once.
    morph_consume(node.morph);
    if (sync.is_transactional()) tm::descriptor().mark_split_done();
  }

  // ---- WAIT scheduled at commit (§4.3, second empty-continuation form) ----
  //
  // For transactional callers only: enqueues now and registers the park as
  // an on-commit handler, so control returns to the enclosing
  // ENDTRANSACTION, which commits and then blocks.  The enclosing
  // transaction must end immediately after this call.
  void wait_at_commit(std::uint64_t tag = 0) {
    TMCV_ASSERT_MSG(tm::in_txn(),
                    "wait_at_commit requires a transactional context");
    // The node itself is the handler context: no std::function, no
    // allocation.  The registering thread is the one that commits, so its
    // node is still valid when the handler runs.
    tm::on_commit_fn(
        [](void* ctx) {
          auto& node = *static_cast<detail::WaitNode*>(ctx);
          node.cv->park(node);
          // No re-acquire either: relay at once, as wait_final does.
          morph_consume(node.morph);
        },
        &enqueue(tag));
  }

  // Every notify below selects its victims inside one queue transaction and
  // wakes them when the outermost enclosing transaction commits: at once
  // for lock-based or unsynchronized callers ("naked notify" is safe),
  // never if that transaction aborts.

  // ---- NOTIFYONE (Algorithm 5) ----
  //
  // Dequeues one waiter (per the wake policy).  Returns whether a waiter
  // was selected.
  bool notify_one();

  // ---- NOTIFYALL (Algorithm 6) ----
  //
  // Dequeues every waiter, oldest first.  Returns the number of threads
  // notified.
  std::size_t notify_all();

  // ---- NOTIFY-N (generalization) ----
  //
  // Dequeues up to `n` waiters (per the wake policy) and returns how many
  // were selected.  Generalizes Birrell's "NOTIFY could accidentally wake
  // more than one thread" into a deliberate batched wake (useful when k
  // units of work arrive at once and waking the whole herd would be
  // oblivious).
  std::size_t notify_n(std::size_t n);

  // ---- NOTIFYBEST (§3.4) ----
  //
  // Walks the wait set and wakes the waiter whose tag maximizes `score`
  // (ties: the earliest waiter).  Only possible because the set lives in
  // user space.  Returns whether a waiter was selected.
  template <typename Score>
  bool notify_best(Score&& score) {
    auto select = [&](Victims& out) {
      detail::WaitNode* best = nullptr;
      detail::WaitNode* best_prev = nullptr;
      auto best_score = decltype(score(std::uint64_t{})){};
      detail::WaitNode* prev = nullptr;
      for (detail::WaitNode* cur = head_.load(); cur != nullptr;
           cur = cur->next.load()) {
        const auto s = score(cur->tag.load());
        if (best == nullptr || s > best_score) {
          best = cur;
          best_prev = prev;
          best_score = s;
        }
        prev = cur;
      }
      if (best == nullptr) return;
      unlink(best_prev, best);
      out.push_back(best);
    };
    return select_and_wake(stats_.notify_best_calls, selector(select)) != 0;
  }

  // Number of threads currently queued (transactional snapshot; advisory).
  [[nodiscard]] std::size_t waiter_count() const;

  [[nodiscard]] WakePolicy policy() const noexcept { return policy_; }

  // Snapshot of the observability counters (see CondVarStats for the
  // consistency model).
  [[nodiscard]] CondVarStats stats() const noexcept {
    return counters::load(stats_);
  }

 private:
  // Aggregate-registry membership (condvar.cpp): the ctor registers, the
  // dtor folds this object's counters into the retired accumulator.
  void register_self();
  void unregister_self() noexcept;

  // Lines 1-8 of WAIT: stamp this thread's node and insert it into the
  // queue under a transaction.  Flat nesting merges this with an ambient
  // transaction; from lock-based or unsynchronized contexts it is its own
  // small transaction.
  detail::WaitNode& enqueue(std::uint64_t tag);

  // enqueue, then line 9: end the caller's synchronization block.
  detail::WaitNode& enqueue_and_release(SyncContext& sync, std::uint64_t tag);

  // Line 10: sleep until notified (or, given a timeout, until it expires),
  // then the post-wake bookkeeping.  Returns whether the wait was notified;
  // a timeout is resolved against the queue as wait_for describes.
  static constexpr std::uint64_t kNoTimeout = ~std::uint64_t{0};
  bool park(detail::WaitNode& node, std::uint64_t timeout_ns = kNoTimeout);

  // Remove `node` given its predecessor (transactional context required).
  void unlink(detail::WaitNode* prev, detail::WaitNode* node);

  // Transactionally search for `node` and remove it; false if a notifier
  // already dequeued it (timed-wait race resolution).
  bool try_remove_self(detail::WaitNode& node);

  // Re-establish the caller's synchronization block and relay any pending
  // wait-morph chain.  Lock-based contexts relay AFTER re-acquiring -- the
  // pacing that turns a notify_all herd into a lock-speed relay (at most
  // one notified waiter is runnable per unlock).  Transactional contexts
  // have no lock to contend, and a semaphore post is a syscall that must
  // not run inside an optimistic transaction, so they relay first.
  static void reacquire_and_relay(SyncContext& sync,
                                  detail::WaitNode& node) {
    if (sync.is_transactional()) {
      morph_consume(node.morph);
      sync.begin_block();
    } else {
      sync.begin_block();
      morph_consume(node.morph);
    }
  }

  template <typename Cont>
  void run_continuation(SyncContext& sync, detail::WaitNode& node,
                        Cont&& cont) {
    if (!sync.is_transactional()) {
      reacquire_and_relay(sync, node);
      cont();
      sync.end_block();
      return;
    }
    // Lines 11-13 under TM: a fresh transaction with its own retry loop,
    // so an abort re-runs only the continuation (never the first half).
    // Relay first: see reacquire_and_relay for why.
    morph_consume(node.morph);
    auto& d = tm::descriptor();
    tm::atomically(d.backend(), [&] { cont(); });
    d.mark_split_done();
  }

  // A type-erased reference to a selector: called inside the notify's
  // queue transaction, it unlinks the waiters to wake and appends them to
  // `out` in wake order.
  using Victims = std::vector<detail::WaitNode*>;
  struct Selector {
    void* fn;
    void (*call)(void* fn, Victims& out);
  };
  template <typename F>
  static Selector selector(F& fn) noexcept {
    return {&fn, [](void* f, Victims& out) { (*static_cast<F*>(f))(out); }};
  }

  // The one NOTIFY routine: runs `select` in the queue transaction, stamps
  // and wakes its victims, bumps `calls` (at the enclosing commit, when
  // nested in a transaction).  Returns the number woken.
  std::size_t select_and_wake(std::uint64_t& calls, Selector select);

  // The selector of notify_one/all/n: cut min(n, size) waiters off the
  // queue, oldest first under FIFO order, newest first under LIFO.
  void cut(Victims& out, std::size_t n, WakePolicy order);

  tm::var<detail::WaitNode*> head_{nullptr};
  tm::var<detail::WaitNode*> tail_{nullptr};
  // Queue length, maintained transactionally by enqueue/unlink/cut so
  // waiter_count() is an O(1) read and cut knows where a suffix starts.
  tm::var<std::size_t> size_{0};
  WakePolicy policy_;

  friend bool condvar_probe(const void*, CondVarStats&, std::uint16_t&);

  // Metrics (relaxed; see CondVarStats).
  std::atomic<std::uint16_t> last_notify_site_{0};
  CondVarStats stats_;
};

}  // namespace tmcv

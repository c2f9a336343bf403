#include "core/condvar.h"

#include <algorithm>
#include <deque>
#include <mutex>
#include <vector>

#include "obs/attribution.h"
#include "obs/hooks.h"
#include "sync/waitpoint.h"

namespace tmcv {

namespace detail {

WaitNode& my_wait_node() noexcept {
  thread_local WaitNode node;
  return node;
}

}  // namespace detail

namespace {

// Tracks every live CondVar and accumulates the counters of destroyed ones,
// so condvar_stats_aggregate() sees a complete, never-double-counted view.
// Function-local static: constructed before the first CondVar finishes its
// constructor, hence destroyed after the last one (including globals).
struct CvRegistry {
  std::mutex mu;
  std::vector<const CondVar*> live;
  CondVarStats retired;
};

CvRegistry& cv_registry() {
  static CvRegistry r;
  return r;
}

// Timestamp for the enqueue->wake latency region and a notify's grant
// instant; 0 when observability is compiled out or disabled at runtime.
std::uint64_t trace_ticks() noexcept {
#if TMCV_TRACE
  return obs::region_begin();
#else
  return 0;
#endif
}

// Site label for the wait's registry publish: whatever transaction label
// was in flight when the caller blocked (the enqueue hint, or the user's
// own TMCV_TXN_SITE on an ambient transaction).  0 with TMCV_TRACE=OFF.
std::uint16_t wait_site() noexcept { return tm::descriptor().txn_site(); }

// Victims of the notify in flight: collected inside the queue transaction
// (cleared at the top of the closure, so re-execution is safe).  Reused
// across calls -- no allocation in steady state.
thread_local std::vector<detail::WaitNode*> t_victims;

// One notify's bookkeeping: which counters to bump, how many it woke, its
// grant instant `t0` and its notifier's txn-site label.
struct NotifyCount {
  CondVarStats* stats;
  std::atomic<std::uint16_t>* last_site;
  std::uint64_t* calls;
  std::size_t woken;
  std::uint64_t t0;
  std::uint16_t site;
};

// `t0` was captured BEFORE the queue transaction: the trace record must
// precede every wake it causes, or the offline causal check
// (tools/trace_report.py --causal) would see wakes without tokens whenever
// a victim stamps its wait-end before the notifier regains the CPU.
void count_notify(const NotifyCount& n) noexcept {
  counters::add(*n.calls);
  // Remember who notifies this condvar (by txn-site label) so the
  // wait-for graph can point a parked waiter at its expected notifier.
  n.last_site->store(n.site, std::memory_order_relaxed);
  if (n.woken == 0)
    counters::add(n.stats->lost_notifies);
  else
    counters::add(n.stats->threads_woken, n.woken);
#if TMCV_TRACE
  obs::emit_instant_at(obs::Event::kCvNotify, n.t0,
                       static_cast<std::uint16_t>(
                           n.woken > 0xffff ? 0xffff : n.woken));
#endif
}

// A notify nested in a transaction merged its queue transaction into the
// caller's, so an abort re-runs it: counting at once would count (and
// trace) every attempt.  Its count waits for the commit instead.  Records
// keep stable addresses (a deque never moves its elements) and recycle
// through a free list; exactly one of the two handlers runs per
// transaction and returns the record, so a warmed-up thread allocates
// nothing.
struct PendingCounts {
  std::deque<NotifyCount> records;
  std::vector<NotifyCount*> free;
};
thread_local PendingCounts t_pending;

void count_at_commit(const NotifyCount& n) {
  PendingCounts& p = t_pending;
  NotifyCount* rec = nullptr;
  if (p.free.empty()) {
    rec = &p.records.emplace_back(n);
  } else {
    rec = p.free.back();
    p.free.pop_back();
    *rec = n;
  }
  tm::on_commit_fn(
      [](void* r) {
        count_notify(*static_cast<NotifyCount*>(r));
        t_pending.free.push_back(static_cast<NotifyCount*>(r));
      },
      rec);
  tm::on_abort_fn(
      [](void* r) { t_pending.free.push_back(static_cast<NotifyCount*>(r)); },
      rec);
}

}  // namespace

void CondVar::register_self() {
  CvRegistry& r = cv_registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.live.push_back(this);
}

void CondVar::unregister_self() noexcept {
  CvRegistry& r = cv_registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.retired += stats();
  r.live.erase(std::remove(r.live.begin(), r.live.end(), this),
               r.live.end());
}

CondVarStats condvar_stats_aggregate() {
  CvRegistry& r = cv_registry();
  std::lock_guard<std::mutex> lock(r.mu);
  CondVarStats s = r.retired;
  for (const CondVar* cv : r.live) s += cv->stats();
  return s;
}

bool condvar_probe(const void* cv, CondVarStats& stats,
                   std::uint16_t& last_notify_site) {
  CvRegistry& r = cv_registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const CondVar* live : r.live) {
    if (live != cv) continue;
    stats = live->stats();
    last_notify_site =
        live->last_notify_site_.load(std::memory_order_relaxed);
    return true;
  }
  return false;
}

// ---- WAIT ----

detail::WaitNode& CondVar::enqueue(std::uint64_t tag) {
  detail::WaitNode& node = detail::my_wait_node();
  TMCV_ASSERT_MSG(!node.enqueued, "thread is already waiting on a condvar");
  node.enqueued = true;
  node.cv = this;
  node.t0 = trace_ticks();
#if TMCV_TRACE
  node.notify_ticks.store(0, std::memory_order_relaxed);
#endif
  // Inside an ambient transaction, the enqueue (or the early commit that
  // follows it) can abort and re-run the whole closure including this
  // call; the rollback must clear the owner flag along with the queue
  // state.  The node pointer is the whole context, so no allocation.
  if (tm::in_txn()) {
    tm::on_abort_fn(
        [](void* ctx) {
          static_cast<detail::WaitNode*>(ctx)->enqueued = false;
        },
        &node);
  }
  // Line 1 of WAIT: unsynchronized by design -- the node is privatized
  // (unreachable from any queue) until the enqueue transaction commits.
  node.next.store_plain(nullptr);
  node.tag.store_plain(tag);
  tm::atomically([&] {
    // Attribution hint, not label: an ambient user transaction keeps its
    // own TMCV_TXN_SITE name; only standalone queue transactions show up
    // as cv.* sites.  Same for the notify and cancel paths below.
    TMCV_TXN_SITE_HINT("cv.wait.enqueue");
    // The closure may re-execute after an abort; re-assert line 1's state
    // (plain store is fine: the node is still private).
    node.next.store_plain(nullptr);
    detail::WaitNode* tail = tail_.load();
    if (tail == nullptr) {
      TMCV_DEBUG_ASSERT(head_.load() == nullptr);
      head_.store(&node);
    } else {
      tail->next.store(&node);
    }
    tail_.store(&node);
    size_.store(size_.load() + 1);
  });
  return node;
}

detail::WaitNode& CondVar::enqueue_and_release(SyncContext& sync,
                                               std::uint64_t tag) {
  detail::WaitNode& node = enqueue(tag);
  sync.end_block();     // line 9: break atomicity
  tm::syscall_fence();  // sleeping would abort a hardware txn
  return node;
}

bool CondVar::park(detail::WaitNode& node, std::uint64_t timeout_ns) {
  bool notified = true;
  {
    // Publish "parked on this condvar" (with the wait's txn-site label)
    // into the wait-point registry for the duration of the sleep only, so
    // the try_remove_self transaction below is never misreported as
    // "parked".  Under wait_at_commit the transaction has committed by
    // now, so the publish is safe and the label is still the committed
    // transaction's.
    WaitScope wp(WaitReason::kCondVar, this, wait_site());
    if (timeout_ns == kNoTimeout)
      node.sem.wait();  // line 10: block until notified
    else
      notified = node.sem.wait_for(timeout_ns);
  }
  // A notifier dequeued us concurrently with the timeout: the post is
  // committed or imminent; absorb it so the semaphore stays balanced.
  if (!notified && !try_remove_self(node)) return park(node);
  node.enqueued = false;
  if (!notified) {
    counters::add(stats_.timeouts);
    return false;
  }
  counters::add(stats_.waits);
#if TMCV_TRACE
  obs::region_end(obs::Event::kCvWait, node.t0, &obs::hist_cv_wait());
  obs::consume_notify_stamp(node.notify_ticks);
#endif
  return true;
}

void CondVar::unlink(detail::WaitNode* prev, detail::WaitNode* node) {
  detail::WaitNode* next = node->next.load();
  if (prev == nullptr)
    head_.store(next);
  else
    prev->next.store(next);
  if (tail_.load() == node) tail_.store(prev);
  size_.store(size_.load() - 1);
}

bool CondVar::try_remove_self(detail::WaitNode& node) {
  bool removed = false;
  tm::atomically([&] {
    TMCV_TXN_SITE_HINT("cv.wait.cancel");
    removed = false;
    detail::WaitNode* prev = nullptr;
    for (detail::WaitNode* cur = head_.load(); cur != nullptr;
         cur = cur->next.load()) {
      if (cur == &node) {
        unlink(prev, cur);
        removed = true;
        return;
      }
      prev = cur;
    }
  });
  return removed;
}

// ---- NOTIFY ----

bool CondVar::notify_one() {
  auto select = [this](Victims& out) { cut(out, 1, policy_); };
  return select_and_wake(stats_.notify_one_calls, selector(select)) != 0;
}

std::size_t CondVar::notify_all() {
  // Everyone goes, oldest first, whatever the policy.
  auto select = [this](Victims& out) { cut(out, SIZE_MAX, WakePolicy::FIFO); };
  return select_and_wake(stats_.notify_all_calls, selector(select));
}

std::size_t CondVar::notify_n(std::size_t n) {
  auto select = [this, n](Victims& out) { cut(out, n, policy_); };
  return select_and_wake(stats_.notify_all_calls, selector(select));
}

std::size_t CondVar::select_and_wake(std::uint64_t& calls, Selector select) {
  // The grant instant, captured BEFORE the queue transaction (see
  // count_notify for why the ordering matters).
  const std::uint64_t t0 = trace_ticks();
  const bool nested = tm::in_txn();
  Victims& victims = t_victims;
  tm::atomically([&] {
    TMCV_TXN_SITE_HINT("cv.notify");
    victims.clear();  // the closure may re-execute
    select.call(select.fn, victims);
    for (detail::WaitNode* victim : victims) {
      // Stamp inside the transaction, right before the wake: a stamp from
      // an aborted attempt is harmless (the node's next wait clears it; a
      // re-executed notify overwrites it).
#if TMCV_TRACE
      obs::stamp_notify(victim->notify_ticks);
#endif
      // Line 9 of NOTIFY: wake the thread when the outermost transaction
      // commits.  The TM wake batch posts every victim with one
      // post_batch, allocates nothing, and is discarded on abort, so no
      // wake-up escapes (§3.2).
      tm::defer_wake(&victim->sem);
    }
  });
  const NotifyCount count{&stats_, &last_notify_site_, &calls,
                          victims.size(), t0, tm::descriptor().txn_site()};
  if (nested)
    count_at_commit(count);
  else
    count_notify(count);
  return victims.size();
}

void CondVar::cut(Victims& out, std::size_t n, WakePolicy order) {
  // Accesses to next fields stay inside the transaction (§3.3): the nodes
  // are reachable only because their owners' enqueue transactions
  // committed and no intervening notify removed them, so no owner can be
  // at WAIT line 1 and no race with its plain store is possible -- in an
  // attempt that will commit.  A doomed attempt can still reach a node
  // that a concurrent notify removed and whose woken owner has re-waited:
  // WAIT line 1 nulled its `next` with a plain store no orec records, so
  // the walk meets null before `size` nodes.  Such an attempt cannot pass
  // validation; abort it rather than follow the null.
  auto node_or_abort = [](detail::WaitNode* node) {
    if (node == nullptr)
      tm::descriptor().abort_restart(tm::TxAbort::Reason::Conflict);
    return node;
  };
  const std::size_t size = size_.load();
  const std::size_t k = std::min(n, size);
  if (k == 0) return;  // empty queue: the notify is lost, by spec
  // Under LIFO the victims are the last k nodes: walk to the survivor
  // before them (index size - k - 1).  Queues are short (bounded by thread
  // count), and keeping the list singly linked preserves Algorithm 3.
  detail::WaitNode* keep = nullptr;
  detail::WaitNode* cur = head_.load();
  if (order == WakePolicy::LIFO) {
    for (std::size_t i = k; i < size; ++i) {
      keep = node_or_abort(cur);
      cur = keep->next.load();
    }
  }
  for (std::size_t i = 0; i < k; ++i) {
    out.push_back(node_or_abort(cur));
    cur = cur->next.load();
  }
  if (keep == nullptr)
    head_.store(cur);
  else
    keep->next.store(cur);
  if (cur == nullptr) tail_.store(keep);
  size_.store(size - k);
  if (order == WakePolicy::LIFO) std::reverse(out.begin(), out.end());
}

std::size_t CondVar::waiter_count() const {
  // O(1): the size field is maintained transactionally by enqueue/unlink,
  // replacing the O(n) queue walk (which also manufactured conflicts with
  // every enqueue/dequeue it overlapped).
  std::size_t count = 0;
  tm::atomically([&] { count = size_.load(); });
  return count;
}

}  // namespace tmcv

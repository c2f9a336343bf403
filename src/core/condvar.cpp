#include "core/condvar.h"

#include <algorithm>
#include <mutex>
#include <vector>

#include "obs/attribution.h"

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

#if TMCV_TRACE
// Stamp the victim inside the queue transaction, right before its deferred
// wake: a stamp from an aborted transaction is harmless (the node's next
// wait clears it; a re-executed notify overwrites it).
inline void stamp_victim(detail::WaitNode* victim) noexcept {
  obs::stamp_notify(victim->notify_ticks);
}
#else
inline void stamp_victim(detail::WaitNode*) noexcept {}
#endif

// Scratch for the multi-victim notifies: victims are collected inside the
// queue transaction (cleared at the top of the closure, so re-execution is
// safe) and dispatched after it.  Reused across calls -- no allocation in
// steady state.
thread_local std::vector<detail::WaitNode*> t_victims;
thread_local std::vector<BinarySemaphore*> t_victim_sems;

// Wake the collected victims by the cheapest route that fits the caller's
// context:
//
//   * Ambient transaction: every post joins the descriptor's wake batch, so
//     an abort discards them (§3.2) -- unchanged from the pre-morph design.
//   * Lock scope + morphing on + a herd (>1 victim): post the first victim
//     and park the rest on the lock's relay chain.  The first victim's
//     morph key is set BEFORE its post and the rest are requeued BEFORE the
//     post too: once the first waiter runs it must find the chain fully
//     formed, or a late requeue could strand a waiter (lost wakeup).
//   * Otherwise: one coalesced post_batch (publish all tokens, then wake).
void dispatch_wakes(std::vector<detail::WaitNode*>& victims) {
  if (victims.empty()) return;
  if (tm::in_txn()) {
    for (detail::WaitNode* v : victims) tm::defer_wake(&v->sem);
    return;
  }
  const void* scope = current_lock_scope();
  if (scope != nullptr && victims.size() > 1 && wait_morphing()) {
    detail::WaitNode* first = victims[0];
    // The directly-woken waiter starts the relay, so it carries the key
    // too; without it the second victim would never be posted.
    first->morph.key.store(scope, std::memory_order_relaxed);
    for (std::size_t i = 1; i < victims.size(); ++i)
      morph_requeue(scope, &victims[i]->morph);
    first->sem.post();
    return;
  }
  t_victim_sems.clear();
  t_victim_sems.reserve(victims.size());
  for (detail::WaitNode* v : victims) t_victim_sems.push_back(&v->sem);
  BinarySemaphore::post_batch(t_victim_sems.data(), t_victim_sems.size());
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

CondVar::CommitSleep& CondVar::commit_sleep_stash() noexcept {
  thread_local CommitSleep cs;
  return cs;
}

void CondVar::commit_sleep_thunk(void* ctx) noexcept {
  CommitSleep& cs = *static_cast<CommitSleep*>(ctx);
  {
    // The registering transaction has committed by the time the handler
    // runs, so publishing the park is safe (no syscall-in-txn hazard) and
    // its site label is still the committed transaction's.
    WaitScope wp(WaitReason::kCondVar, cs.cv, wait_site());
    cs.node->sem.wait();
  }
  cs.cv->finish_wait(*cs.node, cs.t0);
  // wait_at_commit never re-acquires a lock, so relay immediately (same
  // contract as wait_final).
  morph_consume(cs.node->morph);
}

void CondVar::clear_enqueued_thunk(void* ctx) noexcept {
  static_cast<detail::WaitNode*>(ctx)->enqueued = false;
}

void CondVar::enqueue_self(detail::WaitNode& node) {
  tm::atomically([&] {
    // Attribution hint, not label: an ambient user transaction keeps its
    // own TMCV_TXN_SITE name; only standalone queue transactions show up
    // as cv.* sites.  Same for the notify paths below.
    TMCV_TXN_SITE_HINT("cv.wait.enqueue");
    // The closure may re-execute after an abort; re-assert line 1's state
    // (plain store is fine: the node is still private).
    node.next.store_plain(nullptr);
    detail::WaitNode* tail = tail_.load();
    if (tail == nullptr) {
      TMCV_DEBUG_ASSERT(head_.load() == nullptr);
      head_.store(&node);
      tail_.store(&node);
    } else {
      tail->next.store(&node);
      tail_.store(&node);
    }
    size_.store(size_.load() + 1);
  });
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

bool CondVar::notify_one() {
  const std::uint64_t notify_t0 = notify_begin_ticks();
  bool notified = false;
  tm::atomically([&] {
    TMCV_TXN_SITE_HINT("cv.notify");
    notified = false;
    detail::WaitNode* sn = head_.load();
    if (sn == nullptr) return;  // empty queue: the notify is lost, by spec
    detail::WaitNode* victim = sn;
    detail::WaitNode* prev = nullptr;
    if (policy_ == WakePolicy::LIFO) {
      // Wake the most recent waiter: walk to the tail.  Queues are short
      // (bounded by thread count), so the walk is cheap; keeping the list
      // singly linked preserves Algorithm 3's structure.
      while (detail::WaitNode* nx = victim->next.load()) {
        prev = victim;
        victim = nx;
      }
    }
    unlink(prev, victim);
    // Line 9: wake the thread when the outermost transaction commits.  The
    // wake batch replaces the per-victim onCommit closure: zero handler
    // allocations, and an abort discards the batch so no wake-up escapes
    // (§3.2).
    stamp_victim(victim);
    tm::defer_wake(&victim->sem);
    notified = true;
  });
  count_notify(stats_.notify_one_calls, notified ? 1 : 0, notify_t0);
  return notified;
}

std::size_t CondVar::notify_all() {
  const std::uint64_t notify_t0 = notify_begin_ticks();
  std::vector<detail::WaitNode*>& victims = t_victims;
  tm::atomically([&] {
    TMCV_TXN_SITE_HINT("cv.notify");
    victims.clear();  // the closure may re-execute
    detail::WaitNode* sn = head_.load();
    if (sn == nullptr) return;
    head_.store(nullptr);
    tail_.store(nullptr);
    size_.store(0);
    // Accesses to next fields stay inside the transaction (§3.3): the nodes
    // are reachable only because their owners' enqueue transactions
    // committed and no intervening notify removed them, so no owner can be
    // at WAIT line 1 and no race with its plain store is possible.  Victims
    // are collected here and dispatched after the transaction, where the
    // caller's context (ambient txn / lock scope / naked) picks the route.
    while (sn != nullptr) {
      detail::WaitNode* node = sn;
      sn = sn->next.load();
      stamp_victim(node);
      victims.push_back(node);
    }
  });
  dispatch_wakes(victims);
  const std::size_t count = victims.size();
  count_notify(stats_.notify_all_calls, count, notify_t0);
  return count;
}

std::size_t CondVar::notify_n(std::size_t n) {
  const std::uint64_t notify_t0 = notify_begin_ticks();
  std::vector<detail::WaitNode*>& victims = t_victims;
  tm::atomically([&] {
    TMCV_TXN_SITE_HINT("cv.notify");
    victims.clear();  // the closure may re-execute
    if (n == 0) return;
    if (policy_ == WakePolicy::FIFO) {
      // FIFO victims are head pops: O(1) each.
      while (victims.size() < n) {
        detail::WaitNode* victim = head_.load();
        if (victim == nullptr) break;
        unlink(nullptr, victim);
        stamp_victim(victim);
        victims.push_back(victim);
      }
      return;
    }
    // LIFO: the victims are the last n nodes, i.e. a suffix of the list.
    // One traversal with a ring of the trailing n+1 pointers finds both the
    // suffix and its predecessor (the new tail), instead of restarting the
    // walk from head per victim (which was O(n^2)).  The ring grows to at
    // most min(n+1, waiters) entries and is reused across calls.
    thread_local std::vector<detail::WaitNode*> ring;
    ring.clear();
    const std::size_t cap = n + 1 == 0 ? n : n + 1;  // saturate, no wrap
    std::size_t len = 0;
    for (detail::WaitNode* cur = head_.load(); cur != nullptr;
         cur = cur->next.load()) {
      if (ring.size() < cap)
        ring.push_back(cur);
      else
        ring[len % cap] = cur;
      ++len;
    }
    if (len == 0) return;
    if (len <= n) {
      // Everyone goes: drain the whole queue, most recent first.
      for (std::size_t p = len; p > 0; --p) {
        stamp_victim(ring[p - 1]);
        victims.push_back(ring[p - 1]);
      }
      head_.store(nullptr);
      tail_.store(nullptr);
      size_.store(0);
      return;
    }
    // The ring holds positions len-n-1 .. len-1: the new tail followed by
    // the n victims.  Cut the suffix and wake it, most recent first.
    detail::WaitNode* boundary = ring[(len - n - 1) % cap];
    for (std::size_t p = len; p > len - n; --p) {
      stamp_victim(ring[(p - 1) % cap]);
      victims.push_back(ring[(p - 1) % cap]);
    }
    boundary->next.store(nullptr);
    tail_.store(boundary);
    size_.store(len - n);
  });
  dispatch_wakes(victims);
  const std::size_t count = victims.size();
  count_notify(stats_.notify_all_calls, count, notify_t0);
  return count;
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

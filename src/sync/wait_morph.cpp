#include "sync/wait_morph.h"

#include <cstdint>

#include "sync/locks.h"
#include "sync/semaphore.h"
#include "sync/wake_stats.h"
#include "sync/waitpoint.h"

namespace tmcv {

namespace {

// Deferred waiters live in a sharded global table keyed by lock identity.
// 64 shards of one cache line each: the shard lock is held for a handful of
// pointer writes, and distinct locks almost never collide.  Collisions are
// correct anyway -- each MorphWaiter carries its key, and lookups match on
// it -- they just share a TasLock.
constexpr std::size_t kShards = 64;

struct Shard {
  TasLock lock;
  MorphWaiter* head = nullptr;
  MorphWaiter* tail = nullptr;
};

Shard& shard_for(const void* key) noexcept {
  static Shard shards[kShards];
  std::uintptr_t x = reinterpret_cast<std::uintptr_t>(key);
  x ^= x >> 4;  // lock objects are aligned; fold the dead low bits first
  x *= 0x9e3779b97f4a7c15ull;
  return shards[x >> (sizeof(x) * 8 - 6)];
}

std::atomic<bool> g_wait_morphing{true};

thread_local const void* t_lock_scope = nullptr;

}  // namespace

void set_wait_morphing(bool enabled) noexcept {
  g_wait_morphing.store(enabled, std::memory_order_relaxed);
}

bool wait_morphing() noexcept {
  return g_wait_morphing.load(std::memory_order_relaxed);
}

const void* current_lock_scope() noexcept { return t_lock_scope; }

WakeHandoffScope::WakeHandoffScope(const void* id) noexcept
    : prev_(t_lock_scope) {
  t_lock_scope = id;
}

WakeHandoffScope::~WakeHandoffScope() { t_lock_scope = prev_; }

void morph_requeue(const void* key, MorphWaiter* w) noexcept {
  // The key doubles as the waiter's "I am in a chain" marker: it is set
  // before the waiter is linked, stays set across the pop in
  // morph_advance, and is cleared only by the waiter itself in
  // morph_consume after wakeup.
  w->key.store(key, std::memory_order_relaxed);
  // Mirror the relay membership into the waiter's wait slot (if it is
  // mid-publish) so the wait-for graph can draw the chain edge.
  if (w->wslot != nullptr)
    w->wslot->relay_key.store(key, std::memory_order_release);
  w->next = nullptr;
  Shard& s = shard_for(key);
  s.lock.lock();
  if (s.tail != nullptr)
    s.tail->next = w;
  else
    s.head = w;
  s.tail = w;
  s.lock.unlock();
  counters::add(detail::wake_counters().requeues);
}

bool morph_advance(const void* key) noexcept {
  Shard& s = shard_for(key);
  s.lock.lock();
  MorphWaiter* prev = nullptr;
  MorphWaiter* w = s.head;
  while (w != nullptr &&
         w->key.load(std::memory_order_relaxed) != key) {
    prev = w;
    w = w->next;
  }
  if (w != nullptr) {
    if (prev != nullptr)
      prev->next = w->next;
    else
      s.head = w->next;
    if (s.tail == w) s.tail = prev;
    w->next = nullptr;
  }
  s.lock.unlock();
  if (w == nullptr) return false;
  counters::add(detail::wake_counters().handoffs);
  // Post outside the shard lock: post may futex_wake, and nothing about the
  // list depends on it.  w's key stays set so the woken waiter relays.
  w->sem->post();
  return true;
}

std::size_t morph_pending(const void* key) noexcept {
  Shard& s = shard_for(key);
  std::size_t n = 0;
  s.lock.lock();
  for (MorphWaiter* w = s.head; w != nullptr; w = w->next)
    if (w->key.load(std::memory_order_relaxed) == key) ++n;
  s.lock.unlock();
  return n;
}

}  // namespace tmcv

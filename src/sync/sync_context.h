// The `Sync` abstraction of Algorithm 4: an abstract description of the
// synchronization context a thread holds when it calls WAIT.
//
// A SyncContext knows how to *complete* the enclosing synchronized block
// (ENDSYNCBLOCK — release every lock, or commit the active transaction) and
// how to *re-instantiate* an equivalent block for the continuation
// (BEGINSYNCBLOCK — re-acquire the locks outermost-first, or begin a new
// transaction at the saved nesting depth).
//
// Lock-based contexts live here; the transactional context is provided by
// the TM runtime (tm/txn_sync.h) so this header stays dependency-free.
#pragma once

#include <cstddef>

#include "util/assert.h"

namespace tmcv {

class SyncContext {
 public:
  virtual ~SyncContext() = default;

  // Complete the enclosing synchronized block (WAIT line 9).
  virtual void end_block() = 0;

  // Re-instantiate the synchronization for the continuation (WAIT line 11).
  virtual void begin_block() = 0;

  // True when the context is a (software or hardware) transaction.  The
  // condition variable uses this to decide whether its internal queue
  // operations can piggyback on the ambient transaction (flat nesting) or
  // must open their own.
  [[nodiscard]] virtual bool is_transactional() const noexcept = 0;
};

// Type-erased reference to any Lockable (std::mutex, std::shared_mutex...).
// Small enough to pass by value; never owns the lock.
class LockRef {
 public:
  template <typename Lockable>
  static LockRef of(Lockable& lock) noexcept {
    return LockRef(&lock,
                   [](void* l) { static_cast<Lockable*>(l)->lock(); },
                   [](void* l) { static_cast<Lockable*>(l)->unlock(); });
  }

  void lock() const { lock_fn_(obj_); }
  void unlock() const { unlock_fn_(obj_); }

  [[nodiscard]] const void* id() const noexcept { return obj_; }

 private:
  using Op = void (*)(void*);

  LockRef(void* obj, Op lock_fn, Op unlock_fn) noexcept
      : obj_(obj), lock_fn_(lock_fn), unlock_fn_(unlock_fn) {}

  void* obj_;
  Op lock_fn_;
  Op unlock_fn_;
};

// A critical section protected by one or more locks, held by the caller at
// the time of WAIT.  Locks must be listed outermost first; end_block releases
// them innermost-first and begin_block re-acquires outermost-first (§4.1,
// following Wettstein's treatment of nested monitor calls).
class LockSync final : public SyncContext {
 public:
  static constexpr std::size_t kMaxLocks = 8;

  LockSync() noexcept = default;

  explicit LockSync(LockRef lock) noexcept { push(lock); }

  template <typename Lockable>
  explicit LockSync(Lockable& lock) noexcept {
    push(LockRef::of(lock));
  }

  void push(LockRef lock) noexcept {
    TMCV_ASSERT_MSG(count_ < kMaxLocks, "too many nested locks in LockSync");
    locks_[count_++] = lock;
  }

  void end_block() override {
    for (std::size_t i = count_; i > 0; --i) locks_[i - 1]->unlock();
  }

  void begin_block() override {
    for (std::size_t i = 0; i < count_; ++i) locks_[i]->lock();
  }

  [[nodiscard]] bool is_transactional() const noexcept override {
    return false;
  }

  [[nodiscard]] std::size_t lock_count() const noexcept { return count_; }

 private:
  // Storage without default-constructibility requirements on LockRef.
  struct Slot {
    alignas(LockRef) unsigned char bytes[sizeof(LockRef)];
    LockRef* operator->() noexcept {
      return reinterpret_cast<LockRef*>(bytes);
    }
    Slot& operator=(LockRef ref) noexcept {
      new (bytes) LockRef(ref);
      return *this;
    }
  };

  Slot locks_[kMaxLocks];
  std::size_t count_ = 0;
};

// The "naked" context: WAIT from unsynchronized code.  Permitted by the
// algorithm (the internal transaction still protects the queue) but exposed
// mostly for testing; see §4 for why production code should not do this.
class NoSync final : public SyncContext {
 public:
  void end_block() override {}
  void begin_block() override {}
  [[nodiscard]] bool is_transactional() const noexcept override {
    return false;
  }
};

}  // namespace tmcv

// The serial (irrevocable) lock.
//
// Purpose (paper §3.2 / §5.4): transactions that cannot roll back — relaxed
// transactions performing I/O, continuations run irrevocably after a WAIT —
// and the retry loop's escalated attempt (every backend's fallback, which
// only undo-logs its writes) acquire this lock, drain all in-flight
// optimistic transactions, and then run with uninstrumented memory accesses.
// While it is held, no optimistic transaction may begin; this is precisely
// the "relaxed transactions cannot run in parallel with any other
// transactions" behaviour that makes dedup stop scaling in the paper.
//
// Representation: a sequence counter.  Even = free, odd = held.  Acquirers
// CAS even->odd; release stores even.  Optimistic transactions wait for an
// even value at begin.  Because acquisition also waits for quiescence of
// every active optimistic transaction, a serial section never overlaps any
// optimistic execution, so optimistic reads need no extra subscription.
#pragma once

#include <atomic>
#include <cstdint>

#include "util/cacheline.h"

namespace tmcv::tm {

class SerialLock {
 public:
  // Block until the lock is free, acquire it, then block until every other
  // thread's optimistic transaction has finished.  `self_slot` is excluded
  // from the quiescence wait.
  void acquire(std::uint64_t self_slot) noexcept;

  void release() noexcept;

  [[nodiscard]] bool held() const noexcept {
    return (seq_->load(std::memory_order_acquire) & 1ull) != 0;
  }

  // Spin (with yield) until the lock is not held.  Called by optimistic
  // transactions at begin.
  void wait_until_free() const noexcept;

  [[nodiscard]] std::uint64_t sequence() const noexcept {
    return seq_->load(std::memory_order_acquire);
  }

 private:
  CacheAligned<std::atomic<std::uint64_t>> seq_;
};

SerialLock& serial_lock() noexcept;

}  // namespace tmcv::tm

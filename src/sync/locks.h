// Mutual-exclusion locks used as the "pthread locks" side of the paper's
// evaluation and as internal building blocks.
//
// All locks satisfy the C++ Lockable concept (lock/try_lock/unlock) so they
// compose with std::lock_guard / std::unique_lock, per CP.20.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>

#include "sync/futex.h"
#include "util/backoff.h"
#include "util/cacheline.h"

namespace tmcv {

// Test-and-test-and-set spinlock with exponential backoff.  Appropriate only
// for tiny critical sections (orec stripes); application-level sections use
// FutexLock or std::mutex.
class TasLock {
 public:
  TasLock() noexcept = default;
  TasLock(const TasLock&) = delete;
  TasLock& operator=(const TasLock&) = delete;

  void lock() noexcept {
    Backoff backoff;
    for (;;) {
      if (!locked_.load(std::memory_order_relaxed) &&
          !locked_.exchange(true, std::memory_order_acquire))
        return;
      backoff.wait();
    }
  }

  [[nodiscard]] bool try_lock() noexcept {
    return !locked_.load(std::memory_order_relaxed) &&
           !locked_.exchange(true, std::memory_order_acquire);
  }

  void unlock() noexcept { locked_.store(false, std::memory_order_release); }

 private:
  alignas(kCacheLine) std::atomic<bool> locked_{false};
};

// Futex-based blocking mutex (the classic three-state algorithm:
// 0 = unlocked, 1 = locked/no waiters, 2 = locked/maybe waiters).  This is
// our stand-in for a pthread mutex with full kernel-sleep semantics.
class FutexLock {
 public:
  FutexLock() noexcept = default;
  FutexLock(const FutexLock&) = delete;
  FutexLock& operator=(const FutexLock&) = delete;

  void lock() noexcept {
    std::uint32_t zero = 0;
    if (state_.compare_exchange_strong(zero, 1, std::memory_order_acquire,
                                       std::memory_order_relaxed))
      return;
    lock_slow();
  }

  [[nodiscard]] bool try_lock() noexcept {
    std::uint32_t zero = 0;
    return state_.compare_exchange_strong(zero, 1, std::memory_order_acquire,
                                          std::memory_order_relaxed);
  }

  void unlock() noexcept {
    if (state_.exchange(0, std::memory_order_release) == 2)
      futex_wake(&state_, 1);
  }

 private:
  void lock_slow() noexcept {
    // A bounded spin before sleeping wins when the holder is running; on an
    // oversubscribed machine the bound keeps us honest.
    for (int i = 0; i < 64; ++i) {
      std::uint32_t zero = 0;
      if (state_.compare_exchange_strong(zero, 1, std::memory_order_acquire,
                                         std::memory_order_relaxed))
        return;
      cpu_relax();
    }
    // Mark "maybe waiters" and sleep.
    while (state_.exchange(2, std::memory_order_acquire) != 0)
      futex_wait(&state_, 2);
  }

  alignas(kCacheLine) std::atomic<std::uint32_t> state_{0};
};

}  // namespace tmcv

// User-space counting and binary semaphores built on futex.
//
// These are the `sem_t` stand-ins of the paper (Algorithm 3): each thread
// owns one binary semaphore; the condition variable queues references to
// them.  The fast path (uncontended post/wait) is a single atomic RMW and
// never enters the kernel; waiters sleep on a futex.
//
// Guarantee relied on by the condition-variable proofs: `wait()` returns only
// after a matching `post()` has consumed-nothing-else — i.e. the semaphore
// count is a conserved token count, so no spurious wakeups can propagate to
// the layer above.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "obs/hooks.h"
#include "sync/futex.h"
#include "sync/spin.h"
#include "sync/waitpoint.h"
#include "util/cacheline.h"

namespace tmcv {

// Counting semaphore.  value_ layout: the low 32 bits hold the count; a
// separate waiter count lets post() skip futex_wake when nobody sleeps.
class Semaphore {
 public:
  explicit Semaphore(std::uint32_t initial = 0) noexcept : count_(initial) {}

  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  // Consume one token, blocking until one is available.
  void wait() noexcept {
    // Fast path: decrement a positive count.
    std::uint32_t c = count_.load(std::memory_order_relaxed);
    while (c > 0) {
      if (count_.compare_exchange_weak(c, c - 1, std::memory_order_acquire,
                                       std::memory_order_relaxed))
        return;
    }
    // Only the blocking path is traced: uncontended waits are the common
    // case and would flood the ring with zero-length events.
#if TMCV_TRACE
    const std::uint64_t t0 = obs::region_begin();
#endif
    wait_slow();
#if TMCV_TRACE
    obs::region_end(obs::Event::kSemWait, t0, nullptr);
#endif
  }

  // Try to consume one token without blocking.
  [[nodiscard]] bool try_wait() noexcept {
    std::uint32_t c = count_.load(std::memory_order_relaxed);
    while (c > 0) {
      if (count_.compare_exchange_weak(c, c - 1, std::memory_order_acquire,
                                       std::memory_order_relaxed))
        return true;
    }
    return false;
  }

  // Consume one token within `timeout_ns` nanoseconds; false on timeout.
  [[nodiscard]] bool wait_for(std::uint64_t timeout_ns) noexcept {
    if (try_wait()) return true;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::nanoseconds(timeout_ns);
    // Nested no-op when a condvar wait already published a richer scope.
    WaitScope wp(WaitReason::kSemaphore, this);
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    for (;;) {
      if (try_wait()) {
        waiters_.fetch_sub(1, std::memory_order_seq_cst);
        return true;
      }
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) {
        waiters_.fetch_sub(1, std::memory_order_seq_cst);
        return try_wait();
      }
      const auto remaining = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(deadline -
                                                               now)
              .count());
      (void)futex_wait_for(&count_, 0, remaining);
    }
  }

  // Produce one token and wake a waiter if any.
  void post() noexcept {
    count_.fetch_add(1, std::memory_order_release);
    if (waiters_.load(std::memory_order_seq_cst) > 0)
      futex_wake(&count_, 1);
#if TMCV_TRACE
    obs::emit_instant(obs::Event::kSemPost);
#endif
  }

  // Produce `n` tokens (used by notify-all style wakeups on shared sems).
  void post(std::uint32_t n) noexcept {
    count_.fetch_add(n, std::memory_order_release);
    if (waiters_.load(std::memory_order_seq_cst) > 0)
      futex_wake(&count_, static_cast<int>(n));
  }

  [[nodiscard]] std::uint32_t value() const noexcept {
    return count_.load(std::memory_order_acquire);
  }

 private:
  void wait_slow() noexcept {
    // Spin before registering as a waiter: a token that arrives mid-spin is
    // consumed without touching waiters_ at all, so the matching post()
    // skips its futex_wake too -- the whole exchange stays in user space.
#if TMCV_TRACE
    const std::uint64_t s0 = obs::region_begin();
#endif
    const bool spun = adaptive_spin([this]() noexcept {
      return count_.load(std::memory_order_relaxed) > 0;
    });
#if TMCV_TRACE
    if (spin_budget() != 0)
      obs::region_end(obs::Event::kSemSpin, s0, &obs::hist_spin_park());
#endif
    if (spun && try_wait()) {
      counters::add(detail::wake_counters().parks_avoided);
      return;
    }
    counters::add(detail::wake_counters().parks);
    // Publish the park into the wait-point registry (outermost scope wins:
    // under a condvar wait this is a nested no-op and the condvar's richer
    // reason/site stays visible).
    WaitScope wp(WaitReason::kSemaphore, this);
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    for (;;) {
      std::uint32_t c = count_.load(std::memory_order_relaxed);
      while (c > 0) {
        if (count_.compare_exchange_weak(c, c - 1, std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
          waiters_.fetch_sub(1, std::memory_order_seq_cst);
          return;
        }
      }
      futex_wait(&count_, 0);
    }
  }

  // Separate lines: posts touch count_ always but waiters_ only on the
  // contended path; keeping them apart avoids false sharing with the
  // adjacent thread's semaphore in the per-thread node pool.
  alignas(kCacheLine) std::atomic<std::uint32_t> count_;
  alignas(kCacheLine) std::atomic<std::uint32_t> waiters_{0};
};

// Binary semaphore: a Semaphore whose count is clamped to {0, 1}.  post() on
// an already-signaled binary semaphore is idempotent, which is the behaviour
// Algorithm 2's `spin` flags need if a thread can be notified at most once
// per wait (our condvar guarantees that, but the clamp keeps the primitive
// independently safe).
class BinarySemaphore {
 public:
  explicit BinarySemaphore(bool signaled = false) noexcept
      : state_(signaled ? 1u : 0u) {}

  BinarySemaphore(const BinarySemaphore&) = delete;
  BinarySemaphore& operator=(const BinarySemaphore&) = delete;

  void wait() noexcept {
    // Fast path: consume the token.
    std::uint32_t one = 1;
    if (state_.compare_exchange_strong(one, 0, std::memory_order_acquire,
                                       std::memory_order_relaxed))
      return;
#if TMCV_TRACE
    const std::uint64_t t0 = obs::region_begin();
#endif
    wait_slow();
#if TMCV_TRACE
    obs::region_end(obs::Event::kSemWait, t0, nullptr);
#endif
  }

  [[nodiscard]] bool try_wait() noexcept {
    std::uint32_t one = 1;
    return state_.compare_exchange_strong(one, 0, std::memory_order_acquire,
                                          std::memory_order_relaxed);
  }

  // Consume the token within `timeout_ns` nanoseconds; false on timeout.
  // Used by the timed condition-variable waits: a post that raced the
  // timeout is NOT consumed here (the caller resolves the race against the
  // wait queue and calls wait() if it was in fact notified).
  [[nodiscard]] bool wait_for(std::uint64_t timeout_ns) noexcept {
    if (try_wait()) return true;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::nanoseconds(timeout_ns);
    WaitScope wp(WaitReason::kSemaphore, this);
    for (;;) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return try_wait();
      const auto remaining = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(deadline -
                                                               now)
              .count());
      (void)futex_wait_for(&state_, 0, remaining);
      if (try_wait()) return true;
    }
  }

  void post() noexcept {
    if (state_.exchange(1, std::memory_order_release) == 0)
      futex_wake(&state_, 1);
#if TMCV_TRACE
    obs::emit_instant(obs::Event::kSemPost);
#endif
  }

  // Batch-post over distinct semaphores: publish every token first, then
  // issue the futex wakes.  The TM wake batch uses this so a notify-all of
  // N waiters makes all tokens visible in one pass before any kernel work,
  // and wakes only the semaphores whose token was actually absent (a waiter
  // that raced in on its fast path costs no syscall at all).  Posting the
  // same semaphore twice in a batch is safe (post is idempotent).
  static void post_batch(BinarySemaphore* const* sems,
                         std::size_t n) noexcept {
#if TMCV_TRACE
    obs::emit_instant(obs::Event::kSemPostBatch,
                      static_cast<std::uint16_t>(n > 0xffff ? 0xffff : n));
#endif
    constexpr std::size_t kChunk = 64;
    for (std::size_t base = 0; base < n; base += kChunk) {
      const std::size_t m = n - base < kChunk ? n - base : kChunk;
      std::uint64_t need_wake = 0;
      for (std::size_t i = 0; i < m; ++i)
        if (sems[base + i]->state_.exchange(1, std::memory_order_release) ==
            0)
          need_wake |= 1ull << i;
      // Coalesce wakes that target the same futex word: a batch may list a
      // semaphore more than once (e.g. a waiter consumed its token and
      // re-waited between two exchanges above), and one futex_wake(addr, n)
      // is cheaper than n syscalls to the same address.
      for (std::size_t i = 0; i < m; ++i) {
        if (!(need_wake & (1ull << i))) continue;
        std::atomic<std::uint32_t>* addr = &sems[base + i]->state_;
        int wakes = 1;
        for (std::size_t j = i + 1; j < m; ++j) {
          if ((need_wake & (1ull << j)) && &sems[base + j]->state_ == addr) {
            need_wake &= ~(1ull << j);
            ++wakes;
          }
        }
        futex_wake(addr, wakes);
      }
    }
  }

  [[nodiscard]] bool signaled() const noexcept {
    return state_.load(std::memory_order_acquire) != 0;
  }

 private:
  void wait_slow() noexcept {
    // Adaptive spin-then-park: when the matching post() is imminent (the
    // ping-pong pattern the paper's per-thread semaphores produce under a
    // responsive notifier), a bounded spin picks up the token without the
    // FUTEX_WAIT/FUTEX_WAKE round trip.  The per-thread budget shrinks
    // toward one probe round when history says waits are long.
#if TMCV_TRACE
    const std::uint64_t s0 = obs::region_begin();
#endif
    const bool spun = adaptive_spin([this]() noexcept {
      return state_.load(std::memory_order_relaxed) != 0;
    });
#if TMCV_TRACE
    if (spin_budget() != 0)
      obs::region_end(obs::Event::kSemSpin, s0, &obs::hist_spin_park());
#endif
    if (spun && try_wait()) {
      counters::add(detail::wake_counters().parks_avoided);
      return;
    }
    counters::add(detail::wake_counters().parks);
    WaitScope wp(WaitReason::kSemaphore, this);
    for (;;) {
      std::uint32_t one = 1;
      if (state_.compare_exchange_strong(one, 0, std::memory_order_acquire,
                                         std::memory_order_relaxed))
        return;
      futex_wait(&state_, 0);
    }
  }

  alignas(kCacheLine) std::atomic<std::uint32_t> state_;
};

}  // namespace tmcv

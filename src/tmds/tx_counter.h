// Transactional striped counter.
//
// A single tm::var cell makes every add a read-modify-write of the same
// word: under concurrency it is one hot stripe and the abort rate grows
// with the thread count -- the classic STM scaling cliff.
//
// TxStripedCounter spreads the hot word across kStripes cache-line-spaced
// cells: add() picks the calling thread's home stripe (a thread_local
// token), so disjoint threads update disjoint words and commit without
// conflicting, while value() sums every stripe in ONE transaction and so
// still reads an exact, transactionally consistent total (unlike relaxed
// sharded counters, a striped read here can never observe a torn total --
// the snapshot either validates or the reader re-executes).  The trade:
// value() carries a kStripes-word read set and conflicts with every
// concurrent add, so poll totals sparingly (or from one thread).
//
// It composes: bump the counter inside any enclosing transaction and the
// increment commits or rolls back with it (exact-stats idiom of
// tmds::TxLruMap, reusable standalone).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "obs/attribution.h"
#include "tm/api.h"
#include "tm/var.h"

namespace tmcv::tmds {

// Striped exact counter.  kStripes is a power of two; each stripe is a
// cache-line-aligned tm::var so false sharing never re-couples what the
// striping decoupled.
template <std::size_t kStripes = 16>
class TxStripedCounter {
  static_assert(kStripes > 0 && (kStripes & (kStripes - 1)) == 0,
                "stripe count must be a power of two");

 public:
  TxStripedCounter() = default;

  TxStripedCounter(const TxStripedCounter&) = delete;
  TxStripedCounter& operator=(const TxStripedCounter&) = delete;

  void add(std::int64_t delta) {
    tm::var<std::int64_t>& stripe = stripes_[home_stripe()].value;
    tm::atomically([&] {
      TMCV_TXN_SITE("counter.striped_add");
      stripe.store(stripe.load() + delta);
    });
  }

  void increment() { add(1); }
  void decrement() { add(-1); }

  // Exact, transactionally consistent total (one transaction over every
  // stripe; conflicts with concurrent adds -- poll sparingly).
  [[nodiscard]] std::int64_t value() const {
    return tm::atomically([&] {
      TMCV_TXN_SITE("counter.striped_read");
      std::int64_t total = 0;
      for (std::size_t i = 0; i < kStripes; ++i)
        total += stripes_[i].value.load();
      return total;
    });
  }

  [[nodiscard]] static constexpr std::size_t stripe_count() noexcept {
    return kStripes;
  }

 private:
  struct alignas(64) Stripe {
    tm::var<std::int64_t> value{0};
  };

  // Thread-home stripe: a process-wide ticket hashed into the stripe space,
  // taken once per thread.  Threads that outnumber stripes share politely.
  [[nodiscard]] static std::size_t home_stripe() noexcept {
    static std::atomic<std::size_t> tickets{0};
    thread_local const std::size_t home =
        (tickets.fetch_add(1, std::memory_order_relaxed) *
         0x9e3779b97f4a7c15ull) &
        (kStripes - 1);
    return home;
  }

  Stripe stripes_[kStripes];
};

}  // namespace tmcv::tmds

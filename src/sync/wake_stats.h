// Process-wide counters for the block/wake path: the spin-then-park
// semaphore slow path.
//
// These live at the sync layer (not obs/) because the semaphores themselves
// maintain them: they are always-on counters like tm::Stats and
// CondVarStats, not trace hooks, so they exist in TMCV_TRACE=OFF builds and
// cost one relaxed fetch_add on paths that already pay a syscall or a spin.
// The metrics registry (obs/metrics.h) folds them into its snapshot.
#pragma once

#include <cstdint>

#include "util/cacheline.h"
#include "util/counters.h"

namespace tmcv {

// The wake-path counter family (util/counters.h).  Same consistency model
// as CondVarStats: each field of a snapshot is an exact monotonic count at
// some instant during the snapshot call; cross-field invariants hold only
// at quiescence.
struct WakeStats : counters::Family<WakeStats> {
  std::uint64_t spin_attempts = 0;  // slow-path waits that entered the spin
  std::uint64_t spin_rounds = 0;    // total backoff rounds across attempts
  std::uint64_t parks_avoided = 0;  // token arrived mid-spin: no futex_wait
  std::uint64_t parks = 0;          // waits that entered futex_wait
  // Retired counters of the deleted wait-morphing relay: constants, so
  // nothing bumps or exports them and they always read 0.  They stay only
  // because the benchmark harness still reads them for its
  // sync.requeues_per_op and sync.handoffs_per_op metrics; a later
  // benchmark change drops them together with those two metrics.
  static constexpr std::uint64_t requeues = 0;
  static constexpr std::uint64_t handoffs = 0;

  // Visit every counter as (name, member pointer): single source of truth
  // for counters.h and the metrics exporters.
  template <typename Fn>
  static constexpr void for_each_field(Fn&& fn) {
    fn("spin_attempts", &WakeStats::spin_attempts);
    fn("spin_rounds", &WakeStats::spin_rounds);
    fn("parks_avoided", &WakeStats::parks_avoided);
    fn("parks", &WakeStats::parks);
  }
};

namespace detail {

// The process-wide storage, on its own cache line; any thread bumps it with
// counters::add.  Mutations happen on slow paths only (a spin, a park),
// so a shared line is cheaper than per-thread slots
// plus a registry.
inline WakeStats& wake_counters() noexcept {
  alignas(kCacheLine) static WakeStats c;
  return c;
}

}  // namespace detail

[[nodiscard]] inline WakeStats wake_stats_snapshot() noexcept {
  return counters::load(detail::wake_counters());
}

}  // namespace tmcv

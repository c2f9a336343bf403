// Thread registry: assigns each thread a small slot id (used in orec lock
// words) and exposes the set of live descriptors for quiescence waits and
// statistics aggregation.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>

#include "tm/stats.h"

namespace tmcv::tm {

class TxDescriptor;

inline constexpr std::uint64_t kMaxThreads = 512;

class Registry {
 public:
  // Claim a slot for `desc`; aborts the process if more than kMaxThreads
  // concurrent TM threads exist.
  std::uint64_t register_thread(TxDescriptor* desc) noexcept;

  // Release the slot and fold the thread's stats into the retired
  // accumulator.  The fold and the slot clear happen atomically with
  // respect to snapshot_stats(), so a concurrent snapshot sees the thread
  // either live (slot scan) or retired (accumulator) -- never both, never
  // neither.
  void unregister_thread(std::uint64_t slot, const Stats& stats) noexcept;

  // Descriptor in a slot, or nullptr.  Safe to call concurrently with
  // registration; callers must tolerate slots appearing/disappearing.
  [[nodiscard]] TxDescriptor* descriptor(std::uint64_t slot) const noexcept {
    return slots_[slot].load(std::memory_order_acquire);
  }

  // Upper bound on slots ever used (scan limit).
  [[nodiscard]] std::uint64_t high_water() const noexcept {
    return high_water_.load(std::memory_order_acquire);
  }

  // Every live descriptor's counters (relaxed loads) plus the retired
  // accumulator, minus the baseline.  Runs under the mutex that
  // unregister_thread holds across its fold-and-clear, so the live/retired
  // migration is exact.
  [[nodiscard]] Stats snapshot_stats() const;

  // Record the current fold as the baseline; writes no descriptor.
  void reset_stats();

 private:
  std::atomic<TxDescriptor*> slots_[kMaxThreads]{};
  std::atomic<std::uint64_t> high_water_{0};

  // Guards retired_ AND the retire transition (fold + slot clear) against
  // concurrent snapshots.  Cold path only: taken at thread exit and in
  // snapshot/reset, never per transaction.
  mutable std::mutex stats_mu_;
  Stats retired_{};
  Stats baseline_{};

  [[nodiscard]] Stats fold_locked() const;
};

Registry& registry() noexcept;

}  // namespace tmcv::tm

#include "tm/registry.h"

#include "tm/descriptor.h"
#include "util/assert.h"

namespace tmcv::tm {

Registry& registry() noexcept {
  static Registry instance;
  return instance;
}

std::uint64_t Registry::register_thread(TxDescriptor* desc) noexcept {
  for (std::uint64_t slot = 0; slot < kMaxThreads; ++slot) {
    TxDescriptor* expected = nullptr;
    if (slots_[slot].compare_exchange_strong(expected, desc,
                                             std::memory_order_acq_rel)) {
      // Grow the scan bound monotonically.
      std::uint64_t hw = high_water_.load(std::memory_order_relaxed);
      while (hw < slot + 1 &&
             !high_water_.compare_exchange_weak(hw, slot + 1,
                                                std::memory_order_acq_rel)) {
      }
      return slot;
    }
  }
  TMCV_ASSERT_MSG(false, "more than kMaxThreads concurrent TM threads");
  return 0;  // unreachable
}

void Registry::unregister_thread(std::uint64_t slot,
                                 const Stats& stats) noexcept {
  // Fold this thread's counters and clear the slot as one atomic step with
  // respect to snapshot_stats().  The old design released the retired lock
  // before clearing the slot, so a snapshot running in that window counted
  // the thread twice (once from the still-populated slot, once from the
  // accumulator).
  std::lock_guard<std::mutex> lock(stats_mu_);
  retired_ += stats;
  slots_[slot].store(nullptr, std::memory_order_release);
}

Stats Registry::fold_locked() const {
  Stats total = retired_;
  const std::uint64_t n = high_water();
  for (std::uint64_t slot = 0; slot < n; ++slot) {
    if (TxDescriptor* desc = descriptor(slot))
      total += counters::load(desc->stats());
  }
  return total;
}

Stats Registry::snapshot_stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  Stats s = fold_locked();
  s -= baseline_;
  return s;
}

void Registry::reset_stats() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  baseline_ = fold_locked();
}

}  // namespace tmcv::tm

// Test helpers over the wait-point registry (sync/waitpoint.h): find the
// slot a thread published for a park, or block until some thread is
// parked on a target.
//
// A parked thread is one whose wait slot is published.  CondVar's
// waiter_count() is no proof of that: it counts a waiter at enqueue,
// before the waiter releases its locks (end_block) and publishes its slot,
// so a test that needs the waiter asleep must wait for the slot instead.
#pragma once

#include <thread>

#include "sync/waitpoint.h"

namespace tmcv::test {

// The slot currently published as (reason, target), or nullptr.  Publishes
// race the scan by design, so callers retry.
inline WaitSlot* find_published(WaitReason reason, const void* target) {
  WaitSlot* slots = detail::wait_slots();
  const std::uint32_t n = wait_slot_high_water();
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint64_t seq = slots[i].seq.load(std::memory_order_acquire);
    if ((seq & 1) == 0) continue;
    const std::uint64_t info = slots[i].info.load(std::memory_order_relaxed);
    if (wait_info_reason(info) == reason &&
        slots[i].target.load(std::memory_order_relaxed) == target)
      return &slots[i];
  }
  return nullptr;
}

// Blocks until some thread is parked on `target` for `reason`.
inline WaitSlot* await_parked(WaitReason reason, const void* target) {
  WaitSlot* s;
  while ((s = find_published(reason, target)) == nullptr)
    std::this_thread::yield();
  return s;
}

}  // namespace tmcv::test

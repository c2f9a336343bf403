// Wait-point registry implementation: slot claim/recycle, the stall table
// with its writer-counted exact snapshot, and the OS thread id stamp.
#include "sync/waitpoint.h"

#include <mutex>

#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
#elif defined(__APPLE__)
#include <pthread.h>
#endif

namespace tmcv {

namespace {

std::uint32_t os_thread_id() noexcept {
#if defined(__linux__)
  return static_cast<std::uint32_t>(::syscall(SYS_gettid));
#elif defined(__APPLE__)
  std::uint64_t tid = 0;
  pthread_threadid_np(nullptr, &tid);
  return static_cast<std::uint32_t>(tid);
#else
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t mine = next.fetch_add(1);
  return mine;
#endif
}

// The table is striped by wait-slot index: the write path of a notify-all
// herd is eight threads folding their deltas at the same instant, and a
// single shared ledger would serialize them on its cache lines.  Each
// stripe is its own writer-counted version-stamped ledger pair, so the
// per-stripe copies the snapshot sums are each exact -- summing exact
// stripes keeps `sum(cells) == total` exact end to end.
inline constexpr std::uint32_t kStallStripes = 8;

struct alignas(64) StallStripe {
  std::atomic<std::uint64_t> cells[kWaitReasonCount][kStallSiteSlots];
  std::atomic<std::uint64_t> total{0};
  // Multi-writer seqlock, packed into one word to halve the write-side
  // RMWs (the wake path pays them): low 32 bits count in-flight writers,
  // high 32 bits version completed adds.  Enter is +1; exit is
  // +(1<<32)-1, which decrements the writer count and bumps the version
  // in a single RMW.  A reader that loads writers==0 and then re-loads
  // the SAME word after its copy observed a quiescent stripe.
  std::atomic<std::uint64_t> state{0};
};
inline constexpr std::uint64_t kStripeWriterIn = 1;
inline constexpr std::uint64_t kStripeWriterOut = (1ull << 32) - 1;

struct StallTable {
  StallStripe stripes[kStallStripes];
};

struct SlotRegistry {
  WaitSlot slots[kMaxWaitSlots];
  std::mutex mu;
  std::uint32_t free_list[kMaxWaitSlots];  // indices, LIFO
  std::uint32_t free_count = 0;
  std::atomic<std::uint32_t> high_water{0};
};

SlotRegistry& slot_registry() noexcept {
  static SlotRegistry reg;
  return reg;
}

StallTable& stall_table() noexcept {
  static StallTable table;
  return table;
}

std::atomic<bool> g_waitpoints_enabled{true};

}  // namespace

const char* wait_reason_name(WaitReason r) noexcept {
  switch (r) {
    case WaitReason::kNone:
      return "none";
    case WaitReason::kCondVar:
      return "condvar";
    case WaitReason::kSemaphore:
      return "semaphore";
    case WaitReason::kOrec:
      return "orec";
    case WaitReason::kSerialQuiesce:
      return "serial_quiesce";
    case WaitReason::kSerialLock:
      return "serial_lock";
  }
  return "unknown";
}

namespace detail {

WaitSlot* wait_slots() noexcept { return slot_registry().slots; }

WaitSlot* claim_wait_slot() noexcept {
  SlotRegistry& reg = slot_registry();
  std::lock_guard<std::mutex> lk(reg.mu);
  std::uint32_t idx;
  if (reg.free_count > 0) {
    idx = reg.free_list[--reg.free_count];
  } else {
    idx = reg.high_water.load(std::memory_order_relaxed);
    if (idx >= kMaxWaitSlots) return nullptr;
    reg.high_water.store(idx + 1, std::memory_order_release);
  }
  WaitSlot& s = reg.slots[idx];
  s.seq.store(0, std::memory_order_relaxed);
  s.info.store(0, std::memory_order_relaxed);
  s.target.store(nullptr, std::memory_order_relaxed);
  s.relay_key.store(nullptr, std::memory_order_relaxed);
  s.tm_slot.store(0xffffffffu, std::memory_order_relaxed);
  s.os_tid.store(os_thread_id(), std::memory_order_release);
  return &s;
}

void release_wait_slot(WaitSlot* s) noexcept {
  SlotRegistry& reg = slot_registry();
  std::lock_guard<std::mutex> lk(reg.mu);
  s->seq.store(0, std::memory_order_relaxed);
  s->info.store(0, std::memory_order_relaxed);
  s->target.store(nullptr, std::memory_order_relaxed);
  s->relay_key.store(nullptr, std::memory_order_relaxed);
  s->tm_slot.store(0xffffffffu, std::memory_order_relaxed);
  s->os_tid.store(0, std::memory_order_release);
  reg.free_list[reg.free_count++] =
      static_cast<std::uint32_t>(s - reg.slots);
}

}  // namespace detail

std::uint32_t wait_slot_high_water() noexcept {
  return slot_registry().high_water.load(std::memory_order_acquire);
}

void waitpoint_bind_tm_slot(std::uint32_t tm_slot) noexcept {
  WaitSlot* s = my_wait_slot();
  if (s != nullptr) s->tm_slot.store(tm_slot, std::memory_order_release);
}

void waitpoint_unbind_tm_slot() noexcept {
  WaitSlot* s = my_wait_slot();
  if (s != nullptr) s->tm_slot.store(0xffffffffu, std::memory_order_release);
}

bool waitpoints_enabled() noexcept {
  return g_waitpoints_enabled.load(std::memory_order_relaxed);
}

void set_waitpoints_enabled(bool on) noexcept {
  g_waitpoints_enabled.store(on, std::memory_order_relaxed);
}

void WaitScope::accumulate_stall(std::uint64_t info,
                                 std::uint64_t delta_ticks,
                                 std::uint32_t slot_index) noexcept {
  StallStripe& t =
      stall_table().stripes[slot_index & (kStallStripes - 1)];
  const auto reason = static_cast<std::uint32_t>(wait_info_reason(info));
  std::uint32_t site = wait_info_site(info);
  if (reason >= kWaitReasonCount) return;
  if (site >= kStallSiteSlots) site = 0;  // foreign id: fold to unattributed
  t.state.fetch_add(kStripeWriterIn, std::memory_order_acq_rel);
  t.cells[reason][site].fetch_add(delta_ticks, std::memory_order_relaxed);
  t.total.fetch_add(delta_ticks, std::memory_order_relaxed);
  t.state.fetch_add(kStripeWriterOut, std::memory_order_acq_rel);
}

namespace {

// Copy one stripe's cells INTO the accumulating output and return its
// total, all from one writer-quiescent version of that stripe.
std::uint64_t snapshot_stripe(StallStripe& t,
                              std::uint64_t (*cells)[kStallSiteSlots],
                              bool add) noexcept {
  for (int attempt = 0; attempt < 1000; ++attempt) {
    const std::uint64_t s1 = t.state.load(std::memory_order_acquire);
    if ((s1 & 0xffffffffull) != 0) continue;  // an add is in flight
    std::uint64_t copy[kWaitReasonCount][kStallSiteSlots];
    for (std::uint32_t r = 0; r < kWaitReasonCount; ++r)
      for (std::uint32_t s = 0; s < kStallSiteSlots; ++s)
        copy[r][s] = t.cells[r][s].load(std::memory_order_relaxed);
    const std::uint64_t total = t.total.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (t.state.load(std::memory_order_acquire) == s1) {
      for (std::uint32_t r = 0; r < kWaitReasonCount; ++r)
        for (std::uint32_t s = 0; s < kStallSiteSlots; ++s)
          cells[r][s] = (add ? cells[r][s] : 0) + copy[r][s];
      return total;  // independently maintained, == sum(copy) at v1
    }
  }
  // Pathological churn: fold in a last read and return ITS sum, keeping
  // "cells sum to total" true from the caller's point of view.
  std::uint64_t sum = 0;
  for (std::uint32_t r = 0; r < kWaitReasonCount; ++r)
    for (std::uint32_t s = 0; s < kStallSiteSlots; ++s) {
      const std::uint64_t v = t.cells[r][s].load(std::memory_order_relaxed);
      cells[r][s] = (add ? cells[r][s] : 0) + v;
      sum += v;
    }
  return sum;
}

}  // namespace

std::uint64_t snapshot_stall(
    std::uint64_t (*cells)[kStallSiteSlots]) noexcept {
  StallTable& t = stall_table();
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < kStallStripes; ++i)
    total += snapshot_stripe(t.stripes[i], cells, /*add=*/i != 0);
  return total;
}

void reset_stall_table() noexcept {
  for (std::uint32_t i = 0; i < kStallStripes; ++i) {
    StallStripe& t = stall_table().stripes[i];
    t.state.fetch_add(kStripeWriterIn, std::memory_order_acq_rel);
    for (std::uint32_t r = 0; r < kWaitReasonCount; ++r)
      for (std::uint32_t s = 0; s < kStallSiteSlots; ++s)
        t.cells[r][s].store(0, std::memory_order_relaxed);
    t.total.store(0, std::memory_order_relaxed);
    t.state.fetch_add(kStripeWriterOut, std::memory_order_acq_rel);
  }
}

}  // namespace tmcv

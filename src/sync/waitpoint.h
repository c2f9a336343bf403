// Wait-point registry: one fixed cacheline-aligned slot per thread that
// every blocking path publishes into before parking and clears on wake, so
// "what is thread 7 waiting on, and for how long?" is answerable live
// instead of only statistically (park counts, latency histograms).
//
// Layering: like wake_stats.h this is sync-layer and ALWAYS ON -- plain
// atomics, no obs/ includes, no allocation, so the TMCV_TRACE=OFF build
// keeps its zero-obs-symbol guarantee and the publish cost stays cheap
// enough (a handful of plain stores around a path that already pays a
// futex syscall) to leave enabled in production.  The obs layer
// (obs/waitgraph.h) reads these slots to build the wait-for graph, the
// stall-attribution table exporters, and the stuck-thread heuristic.
//
// Publish protocol: each slot is a single-writer seqlock.  The owning
// thread stores the payload fields (target, packed reason/site/detail)
// relaxed, then release-stores `seq = (start_ticks << 1) | 1`.  On wake it
// release-stores `seq = 0` and folds the measured ticks into the global
// stall table.  A snapshotter accepts a slot iff it reads the same odd seq
// before and after the payload -- so a torn read is impossible and every
// accepted entry carries an exact TSC start.  The odd seq value doubles as
// a per-park episode id (TSC starts are unique per thread park).
//
// Stall-table exactness: the (reason x site) cells and the grand total are
// fed from the same measured delta inside a writer-counted version-stamped
// section, and snapshot_stall() retries until it observes a quiescent
// version -- so `sum(cells) == total` holds exactly for every accepted
// snapshot, not just at quiescence (house style: exact or absent).  The
// table is striped by wait-slot index so concurrent wakers (a notify-all
// herd) never contend on a cache line; each stripe carries its own ledger
// pair and the snapshot sums per-stripe-exact copies, which preserves the
// invariant.
#pragma once

#include <atomic>
#include <cstdint>

#include "util/timing.h"

namespace tmcv {

// Why a thread is off-CPU.  Order is part of the export ABI (stall-table
// rows and the time-series top-reason field index into it); append only.
enum class WaitReason : std::uint8_t {
  kNone = 0,        // slot idle
  kCondVar,         // parked in CondVar::wait / wait_for / wait_at_commit
  kSemaphore,       // raw semaphore park outside any condvar wait
  kOrec,            // wait for a locked orec stripe (no producer today;
                    // kept for the export ABI)
  kSerialQuiesce,   // serial-mode entry draining an active transaction
  kSerialLock,      // waiting for the serial lock itself to be released
};
inline constexpr std::uint32_t kWaitReasonCount = 6;

[[nodiscard]] const char* wait_reason_name(WaitReason r) noexcept;

// Fixed capacity, mirroring tm::kMaxThreads: slots are claimed on first
// park (or at TM registration) and recycled through a free list at thread
// exit, so long-running servers never exhaust them.
inline constexpr std::uint32_t kMaxWaitSlots = 512;

// Site dimension of the stall table: matches obs::kMaxSites so an interned
// site id indexes directly.  Site 0 is "unattributed" (always true with
// TMCV_TRACE=OFF, where txn_site() is compiled to 0).
inline constexpr std::uint32_t kStallSiteSlots = 256;

// reason(8) | site(16) | detail(32), packed so one relaxed store publishes
// all three.  `detail` is reason-specific: serial quiesce -> the registry
// slot being drained; condvar -> the waiter's own txn site is already in
// `site` and detail is unused.
[[nodiscard]] constexpr std::uint64_t pack_wait_info(
    WaitReason reason, std::uint16_t site, std::uint32_t detail) noexcept {
  return (static_cast<std::uint64_t>(reason) << 48) |
         (static_cast<std::uint64_t>(site) << 32) |
         static_cast<std::uint64_t>(detail);
}
[[nodiscard]] constexpr WaitReason wait_info_reason(std::uint64_t w) noexcept {
  return static_cast<WaitReason>((w >> 48) & 0xff);
}
[[nodiscard]] constexpr std::uint16_t wait_info_site(std::uint64_t w) noexcept {
  return static_cast<std::uint16_t>((w >> 32) & 0xffff);
}
[[nodiscard]] constexpr std::uint32_t wait_info_detail(
    std::uint64_t w) noexcept {
  return static_cast<std::uint32_t>(w);
}

struct alignas(64) WaitSlot {
  // (start_ticks << 1) | 1 while parked, 0 while running.  The seqlock
  // word AND the wait-start timestamp AND the episode id, all in one.
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::uint64_t> info{0};  // pack_wait_info while parked
  std::atomic<const void*> target{nullptr};  // reason-specific identity
  std::atomic<std::uint32_t> os_tid{0};      // stamped once at claim
  std::atomic<std::uint32_t> tm_slot{0xffffffffu};  // registry slot, if TM
};
static_assert(sizeof(WaitSlot) == 64, "one cache line per thread");

namespace detail {

// The process-global slot array (index < wait_slot_high_water() are the
// slots ever claimed).  Exposed for the obs-layer snapshotter.
[[nodiscard]] WaitSlot* wait_slots() noexcept;

// Claim/release back a slot (mutex + free list; claim stamps os_tid).
// Returns nullptr only if kMaxWaitSlots threads are simultaneously live.
[[nodiscard]] WaitSlot* claim_wait_slot() noexcept;
void release_wait_slot(WaitSlot* s) noexcept;

struct WaitSlotOwner {
  WaitSlot* slot = nullptr;
  ~WaitSlotOwner() {
    if (slot != nullptr) release_wait_slot(slot);
  }
};

// Nesting depth: a condvar wait parks through a semaphore whose own slow
// path would otherwise overwrite the richer outer publish; only the
// outermost WaitScope on a thread owns the slot.
inline thread_local int t_wait_depth = 0;

}  // namespace detail

// This thread's slot, claimed on first use and recycled at thread exit.
[[nodiscard]] inline WaitSlot* my_wait_slot() noexcept {
  thread_local detail::WaitSlotOwner owner;
  if (owner.slot == nullptr) owner.slot = detail::claim_wait_slot();
  return owner.slot;
}

// One past the highest slot index ever claimed (snapshot scan bound).
[[nodiscard]] std::uint32_t wait_slot_high_water() noexcept;

// Stamp the TM registry slot into this thread's wait slot (called by the
// TM registry at thread registration) so waitgraph edges can resolve an
// orec owner's registry slot to an OS thread id.  Unbind at unregister.
void waitpoint_bind_tm_slot(std::uint32_t tm_slot) noexcept;
void waitpoint_unbind_tm_slot() noexcept;

// Runtime kill switch.  Default ON -- it exists so the herd benchmark can
// A/B the publish cost in one process; it is not a production knob.
[[nodiscard]] bool waitpoints_enabled() noexcept;
void set_waitpoints_enabled(bool on) noexcept;

// ---------------------------------------------------------------------------
// Stall attribution: off-CPU park time by (reason x site), in TSC ticks.
// ---------------------------------------------------------------------------

// Copy the (reason x site) cells and return the grand total, all from one
// writer-quiescent version.  The total is maintained independently of the
// cells (both are fed the same delta per park), so `sum(cells) == return`
// is a real two-ledger invariant, asserted in tests, trace_report
// --validate, and CI.  `cells` must be a
// [kWaitReasonCount][kStallSiteSlots] array.  Allocation-free.
[[nodiscard]] std::uint64_t snapshot_stall(
    std::uint64_t (*cells)[kStallSiteSlots]) noexcept;

// Reset the stall table (benchmark A/B hygiene; tests).
void reset_stall_table() noexcept;

// ---------------------------------------------------------------------------
// WaitScope: the publish/clear RAII every park path wraps itself in.
// ---------------------------------------------------------------------------

class WaitScope {
 public:
  WaitScope(WaitReason reason, const void* target, std::uint16_t site = 0,
            std::uint32_t detail = 0) noexcept {
    // Outermost scope on this thread wins; nested scopes are inert so the
    // condvar's publish is not clobbered by its semaphore's.
    if (detail::t_wait_depth++ != 0 || !waitpoints_enabled()) return;
    slot_ = my_wait_slot();
    if (slot_ == nullptr) return;  // all kMaxWaitSlots live: degrade silently
    info_ = pack_wait_info(reason, site, detail);
    start_ = TscClock::now();
    slot_->target.store(target, std::memory_order_relaxed);
    slot_->info.store(info_, std::memory_order_relaxed);
    slot_->seq.store((start_ << 1) | 1ull, std::memory_order_release);
  }

  ~WaitScope() noexcept {
    --detail::t_wait_depth;
    if (slot_ == nullptr) return;
    const std::uint64_t delta = TscClock::now() - start_;
    slot_->seq.store(0, std::memory_order_release);
    accumulate_stall(
        info_, delta,
        static_cast<std::uint32_t>(slot_ - detail::wait_slots()));
  }

  // The slot being published through this scope (nullptr when inert).
  [[nodiscard]] WaitSlot* slot() const noexcept { return slot_; }

  WaitScope(const WaitScope&) = delete;
  WaitScope& operator=(const WaitScope&) = delete;

 private:
  static void accumulate_stall(std::uint64_t info, std::uint64_t delta_ticks,
                               std::uint32_t slot_index) noexcept;

  WaitSlot* slot_ = nullptr;
  std::uint64_t info_ = 0;
  std::uint64_t start_ = 0;
};

}  // namespace tmcv

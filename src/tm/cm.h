// Contention management: the policy layer between an abort and the next
// attempt.
//
// Three cooperating mechanisms (all per-descriptor unless noted):
//
//   * Jittered exponential backoff between optimistic retries (one tuned
//     policy -- tmcv::Backoff -- shared with every other spin site).
//   * Conflict-streak escalation (karma/greedy-lite): after K *consecutive*
//     conflict aborts with no intervening commit, the transaction takes the
//     serial-irrevocable lock instead of burning its whole retry budget.
//     Only genuine conflicts feed the streak -- Explicit and RetryWait
//     aborts are user-directed, Capacity/Syscall are handled by the HTM
//     hard-fail triage -- so waiting or self-aborting closures never
//     escalate spuriously.
//   * HTM serial-fallback hysteresis (process-wide): when hardware attempts
//     keep falling back, every thread's hardware budget shrinks (8 -> 4 ->
//     2 -> 1) so the herd stops burning doomed attempts in front of an
//     already-held serial lock (the "lemming effect"); sustained hardware
//     commits restore it.
//
// This header also owns TxAbort (the abort token thrown to the retry loop)
// and the attempt budgets, so the descriptor, the retry loop and the policy
// knobs agree on one vocabulary without an include cycle.
#pragma once

#include <cstdint>

#include "util/backoff.h"
#include "util/rng.h"

namespace tmcv::tm {

// Thrown (after rollback) to unwind to the retry loop.  User code must not
// swallow it; tm::atomically rethrows anything else after aborting.
struct TxAbort {
  enum class Reason : std::uint8_t {
    Conflict,
    Capacity,
    Syscall,
    Explicit,
    RetryWait,  // Harris-style retry: sleep until some commit, then re-run
  };
  Reason reason = Reason::Conflict;
  // For RetryWait: the commit-signal value observed before aborting (the
  // retry loop sleeps until the signal moves past it).
  std::uint64_t retry_signal = 0;
};

// Retry budgets before escalating to the serial lock.
inline constexpr int kStmAttemptsBeforeSerial = 64;
inline constexpr int kHtmAttemptsBeforeSerial = 8;
// Bounded polite-wait rounds on a locked orec during commit-time acquisition
// before declaring a conflict.
inline constexpr std::uint32_t kOrecWaitRounds = 8;

// ---- policy knobs (process-wide; set between phases, read on abort paths) --

// Consecutive conflict aborts before a descriptor escalates to the serial
// lock (clamped to >= 1).  Default 32 -- half the STM attempt budget: low
// enough to cut doomed retry storms short, high enough that the (globally
// quiescing, so expensive) serial drain stays rare on oversubscribed boxes.
void cm_set_conflict_streak_limit(std::uint32_t k) noexcept;
[[nodiscard]] std::uint32_t cm_conflict_streak_limit() noexcept;

// Attribution hook: a transaction labeled `site` (obs/attribution.h; 0 =
// unattributed) escalated to the serial lock.  Recorded alongside the
// abort-reason breakdown so TUNING's cm_set_conflict_streak_limit guidance
// can point at which call sites escalate.  Compiles to nothing with
// TMCV_TRACE=0; always callable (api.h calls it unconditionally).
void cm_note_serial_escalation(std::uint16_t site) noexcept;

// ---- HTM serial-fallback hysteresis (anti-lemming) ----

// Current hardware attempt budget: kHtmAttemptsBeforeSerial shifted down by
// the global fallback pressure (floor 1).
[[nodiscard]] int htm_attempt_budget() noexcept;

// A hardware path gave up (fell back to software or the serial lock).
void note_htm_fallback() noexcept;

// A hardware transaction committed; sustained success decays the pressure.
void note_htm_commit() noexcept;

// Drop all fallback pressure (called from tm::stats_reset so benchmark
// phases and tests start from the full hardware budget).
void cm_reset_htm_hysteresis() noexcept;

// Per-descriptor adaptive state.  Not thread-safe; owned by one descriptor.
class ContentionManager {
 public:
  // Record an abort that unwound to the retry loop.
  void note_abort(TxAbort::Reason reason) noexcept {
    if (reason == TxAbort::Reason::Conflict) ++conflict_streak_;
  }

  // Any successful commit ends the streak and re-arms the backoff.
  void note_commit() noexcept {
    conflict_streak_ = 0;
    backoff_.reset();
  }

  [[nodiscard]] std::uint32_t conflict_streak() const noexcept {
    return conflict_streak_;
  }

  // Karma/greedy-lite: a long conflict streak means optimistic retry is
  // losing; take the serial lock and make guaranteed progress.
  [[nodiscard]] bool wants_serial() const noexcept {
    return conflict_streak_ >= cm_conflict_streak_limit();
  }

  // Jittered exponential backoff between retries; returns the spin count
  // (0 when it escalated to sched_yield).
  std::uint32_t backoff_before_retry() noexcept { return backoff_.wait(); }

  // Uniform draw in [0, bound): jitter source for the polite orec wait.
  [[nodiscard]] std::uint32_t jitter(std::uint32_t bound) noexcept {
    return static_cast<std::uint32_t>(rng_.next() % bound);
  }

 private:
  Backoff backoff_;  // self-seeded; escalates to sched_yield
  // Self-seeded like Backoff: distinct descriptors must draw distinct
  // jitter streams or the polite wait re-probes in lockstep.
  SplitMix64 rng_{static_cast<std::uint64_t>(
                      reinterpret_cast<std::uintptr_t>(this)) ^
                  0x9e3779b97f4a7c15ULL};
  std::uint32_t conflict_streak_ = 0;
};

}  // namespace tmcv::tm

// Adaptive spin-then-park policy for the semaphore slow path.
//
// Parking a thread costs two syscalls (FUTEX_WAIT + FUTEX_WAKE) plus the
// scheduler round trip; when the matching post() lands within a few hundred
// nanoseconds, a short spin is strictly cheaper.  When the wait is long --
// the common case for a condition-variable sleep -- spinning only burns CPU
// that the poster could have used.  So each thread keeps an exponentially-
// weighted history of whether its recent spins succeeded (token arrived
// mid-spin) and scales its budget accordingly, in the style of glibc's
// adaptive mutexes and WebKit/parking_lot's spin heuristics.
//
// Knobs:
//   set_spin_budget(n)  -- process-wide cap on Backoff rounds per wait
//                          (0 disables spinning entirely).
//   TMCV_NO_SPIN        -- env var; when set (to anything but "0"), forces
//                          the budget to 0 at startup.  Escape hatch for
//                          oversubscribed or power-sensitive deployments.
//
// Startup default: 16 rounds on multi-core, 0 when the process is confined
// to a single logical CPU (effective_cpus() == 1) -- a spinner there can
// only delay the poster it is waiting for, which is the documented PR-4
// single-core pingpong regression.  set_spin_budget() and TMCV_NO_SPIN
// both override the detection.
#pragma once

#include <atomic>
#include <cstdint>

#include "sync/wake_stats.h"
#include "util/backoff.h"

namespace tmcv {

// Process-wide maximum number of Backoff rounds a single wait may spin.
// Individual threads spin less when their history says parking is likely.
void set_spin_budget(unsigned rounds) noexcept;
[[nodiscard]] unsigned spin_budget() noexcept;

// The startup default for a given topology: 0 when `no_spin` (TMCV_NO_SPIN)
// is set or the process is confined to one CPU, 16 otherwise.  Exposed as a
// pure function so the single-core detection is unit-testable without
// faking the process affinity mask.
[[nodiscard]] unsigned default_spin_budget(unsigned cpus,
                                           bool no_spin) noexcept;

namespace detail {

// Per-thread spin success predictor.
//
// `ewma` is a fixed-point probability in [0, 256): roughly 256 * P(the next
// spin will obtain the token without parking).  Each outcome folds in as
//
//   ewma = ewma - ewma/8 + (success ? 32 : 0)
//
// i.e. a decay factor of 7/8 with a full-success impulse of 32, giving a
// fixed point of 256 on a success streak and 0 on a failure streak.  The
// effective budget is the global cap scaled by ewma/256, floored at one
// round so a thread stuck in park-always mode keeps probing and can recover
// when the workload turns ping-pongy.
struct SpinControl {
  std::uint32_t ewma = 128;  // start undecided: half the global budget

  [[nodiscard]] unsigned effective_rounds(unsigned max_rounds) const noexcept {
    if (max_rounds == 0) return 0;
    const unsigned scaled = max_rounds * ewma / 256;
    return scaled == 0 ? 1u : scaled;
  }

  void record(bool success) noexcept {
    ewma = ewma - ewma / 8 + (success ? 32u : 0u);
  }
};

[[nodiscard]] SpinControl& my_spin_control() noexcept;

}  // namespace detail

// Spin until `ready()` returns true or the thread's adaptive budget runs
// out.  Returns true when ready() became true (the caller may skip the
// park), false when the budget expired (the caller should futex_wait).
// Updates the calling thread's predictor and the process-wide WakeStats.
//
// `ready` must be safe to call repeatedly and must not block; it is the
// cheap "did my token arrive?" probe, e.g. a relaxed load of the semaphore
// word.  The Backoff escalates to sched_yield() after a few rounds, so the
// spin makes progress even on a single hardware thread.
template <typename ReadyFn>
[[nodiscard]] bool adaptive_spin(ReadyFn&& ready) noexcept {
  const unsigned max_rounds = spin_budget();
  if (max_rounds == 0) return false;

  detail::SpinControl& ctl = detail::my_spin_control();
  const unsigned rounds = ctl.effective_rounds(max_rounds);

  WakeStats& wake = detail::wake_counters();
  counters::add(wake.spin_attempts);

  Backoff backoff;
  bool got_token = false;
  unsigned spent = 0;
  for (; spent < rounds; ++spent) {
    if (ready()) {
      got_token = true;
      break;
    }
    backoff.wait();
  }

  counters::add(wake.spin_rounds, spent);
  ctl.record(got_token);
  return got_token;
}

}  // namespace tmcv

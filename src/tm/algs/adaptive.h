// Adaptive backend selection: a quiescence-point switch plus a small
// controller that watches the live signals (abort/commit ratio, active
// thread count, and -- in traced builds -- conflict-pair spread from the
// attribution layer) and moves the process default between EagerSTM,
// LazySTM and NOrec with hysteresis.  See docs/BACKENDS.md for the state
// machine and the knob table.
#pragma once

#include <cstdint>

#include "tm/descriptor.h"

namespace tmcv::tm {

// Switch the process-wide default backend at a quiescence point: acquires
// the serial lock (draining every in-flight optimistic transaction),
// stores the new default, releases.  Transactions beginning after the
// drain observe the new default via begin_top's resolution; combined with
// the NOrec family override (resolve_backend) this guarantees NOrec
// and orec-family transactions never overlap.  Returns true if the default
// actually changed.  Must not be called inside a transaction.
bool set_backend(Backend b);

// Start/stop the adaptive controller thread.  While enabled, the
// controller samples the global stats every window and calls set_backend
// when the policy's choice disagrees with the current default for enough
// consecutive windows.  Disabling joins the thread and leaves whatever
// default is current in place.
void set_backend_auto(bool enable);
[[nodiscard]] bool backend_auto_enabled() noexcept;

// Controller tuning (exposed for tests and benchmarks; defaults match the
// knob table in docs/BACKENDS.md).
struct AdaptiveKnobs {
  std::uint32_t window_ms = 50;      // sampling cadence
  std::uint32_t agree_windows = 3;   // consecutive agreeing windows to switch
  std::uint32_t dwell_windows = 4;   // min windows between switches
  std::uint64_t min_ops = 200;       // windows below this are idle: no vote
  double low_abort_ratio = 0.05;     // NOrec eligibility ceiling
  double high_abort_ratio = 0.30;    // LazySTM (contention) floor
  std::uint64_t norec_max_threads = 8;  // NOrec eligibility thread ceiling
};
void set_adaptive_knobs(const AdaptiveKnobs& knobs) noexcept;
[[nodiscard]] AdaptiveKnobs adaptive_knobs() noexcept;

}  // namespace tmcv::tm

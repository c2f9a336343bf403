#include "tm/algs/adaptive.h"

#include <chrono>
#include <mutex>
#include <thread>

#include "obs/attribution.h"
#include "sync/waitpoint.h"
#include "tm/api.h"
#include "tm/registry.h"
#include "tm/serial.h"
#include "util/assert.h"

namespace tmcv::tm {

bool set_backend(Backend b) {
  TxDescriptor& d = descriptor();
  TMCV_ASSERT_MSG(!d.in_txn(), "cannot switch backends inside a transaction");
  if (default_backend() == b) return false;
  // Piggyback on the serial lock's global stop: acquisition drains every
  // in-flight optimistic transaction, so when the new default is published
  // no transaction begun under the old resolution is still running, and
  // every later begin_top re-resolves against the new default.  The lock is
  // held across the store only (no user code), so the stall is one drain.
  serial_lock().acquire(d.slot());
  set_default_backend(b);
  serial_lock().release();
  counters::bump(d.stats().backend_switches);
  return true;
}

namespace {

// ---- adaptive controller ----

std::mutex g_ctl_mu;           // guards start/stop transitions and knobs
std::thread g_ctl_thread;
std::atomic<bool> g_ctl_run{false};
AdaptiveKnobs g_knobs;

// Per-slot (commits + aborts) totals from the previous window, used to
// count ACTIVE threads: a registry slot votes only if its counters moved,
// so parked workers, the main thread, and this controller don't inflate
// the thread-count signal that gates NOrec.
struct WindowState {
  std::uint64_t prev_ops[kMaxThreads] = {};
  Stats prev{};
#if TMCV_TRACE
  std::size_t prev_pairs = 0;
#endif
};

// One sampling window: returns the backend the policy wants right now, or
// the current default when the window was too idle to judge.
Backend policy_step(WindowState& w, const AdaptiveKnobs& k,
                    std::uint64_t self_slot) {
  const Backend cur = default_backend();
  const Stats snap = stats_snapshot();
  const std::uint64_t d_commits = snap.commits - w.prev.commits;
  const std::uint64_t d_aborts = snap.aborts - w.prev.aborts;
  w.prev = snap;

  Registry& reg = registry();
  const std::uint64_t n = reg.high_water();
  std::uint64_t active = 0;
  for (std::uint64_t slot = 0; slot < n && slot < kMaxThreads; ++slot) {
    std::uint64_t ops = w.prev_ops[slot];
    if (TxDescriptor* d = reg.descriptor(slot))
      ops = counters::load(d->stats().commits) +
            counters::load(d->stats().aborts);
    if (slot != self_slot && ops != w.prev_ops[slot]) ++active;
    w.prev_ops[slot] = ops;
  }

  if (d_commits + d_aborts < k.min_ops) return cur;  // idle: no vote

  double ratio = static_cast<double>(d_aborts) /
                 static_cast<double>(d_commits == 0 ? 1 : d_commits);
#if TMCV_TRACE
  // Conflict-pair spread (traced builds only): many NEW distinct warring
  // site pairs in one window means contention is diffuse -- encounter-time
  // locking thrashes across the whole footprint -- so treat the measured
  // ratio as hotter than it reads.  The stripe-heat table feeds the same
  // snapshot; spread is the cheaper aggregate of the two.
  if (obs::attribution_enabled()) {
    std::size_t pairs = 0;
    obs::detail::conflict_pair_table().for_each(
        [&](std::uint64_t, std::uint64_t) { ++pairs; });
    const std::size_t fresh = pairs > w.prev_pairs ? pairs - w.prev_pairs : 0;
    w.prev_pairs = pairs;
    const double f = fresh > 8 ? 8.0 : static_cast<double>(fresh);
    ratio *= 1.0 + f / 16.0;
  }
#endif

  if (ratio >= k.high_abort_ratio) return Backend::LazySTM;
  if (active <= k.norec_max_threads && ratio < k.low_abort_ratio)
    return Backend::NOrec;
  return Backend::EagerSTM;
}

void controller_main() {
  WindowState w;
  w.prev = stats_snapshot();
  const std::uint64_t self_slot = descriptor().slot();
  Backend want = default_backend();
  std::uint32_t agree = 0;
  std::uint32_t since_switch = ~0u >> 1;  // allow an immediate first switch
  while (g_ctl_run.load(std::memory_order_acquire)) {
    AdaptiveKnobs k;
    {
      std::lock_guard<std::mutex> lock(g_ctl_mu);
      k = g_knobs;
    }
    {
      // The controller is intentionally idle between policy windows; the
      // publish keeps /threads honest (a sleeping controller is not a
      // stuck worker) and attributes its off-CPU time to adaptive_sleep.
      WaitScope wp(WaitReason::kAdaptiveSleep, nullptr, 0, k.window_ms);
      std::this_thread::sleep_for(std::chrono::milliseconds(k.window_ms));
    }
    const Backend cur = default_backend();
    const Backend next = policy_step(w, k, self_slot);
    if (next == cur) {
      agree = 0;
      want = cur;
    } else if (next == want) {
      ++agree;
    } else {
      want = next;
      agree = 1;
    }
    ++since_switch;
    // Hysteresis: the policy must disagree with the current default for
    // agree_windows consecutive windows AND the last switch must be at
    // least dwell_windows old, so one noisy window never flaps the fleet.
    if (agree >= k.agree_windows && since_switch >= k.dwell_windows) {
      if (set_backend(want)) since_switch = 0;
      agree = 0;
    }
  }
}

}  // namespace

void set_backend_auto(bool enable) {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(g_ctl_mu);
    const bool running = g_ctl_run.load(std::memory_order_acquire);
    if (enable == running) return;
    if (enable) {
      g_ctl_run.store(true, std::memory_order_release);
      g_ctl_thread = std::thread(controller_main);
      return;
    }
    g_ctl_run.store(false, std::memory_order_release);
    to_join = std::move(g_ctl_thread);
  }
  // Join outside the mutex: the controller may be inside set_backend (which
  // can wait on quiescence) when asked to stop.
  if (to_join.joinable()) to_join.join();
}

bool backend_auto_enabled() noexcept {
  return g_ctl_run.load(std::memory_order_acquire);
}

void set_adaptive_knobs(const AdaptiveKnobs& knobs) noexcept {
  std::lock_guard<std::mutex> lock(g_ctl_mu);
  g_knobs = knobs;
}

AdaptiveKnobs adaptive_knobs() noexcept {
  std::lock_guard<std::mutex> lock(g_ctl_mu);
  return g_knobs;
}

}  // namespace tmcv::tm

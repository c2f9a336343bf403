// Continuous time-series recorder: the "what happened over the last N
// minutes" half of the observability layer.
//
// PR 2/PR 5 made the registry scrapeable at an instant; contention
// pathologies (abort storms after a workload shift, wake-latency creep, LRU
// eviction storms) are only visible as *trends*, so this recorder keeps a
// fixed-memory ring of per-interval delta samples: every `interval_ms` a
// sampler thread diffs the headline counters against the previous tick and
// appends one POD `TsSample`.  Depth x interval is the retained window
// (default 240 x 1 s = 4 minutes in ~70 KiB, all preallocated).
//
// Memory discipline: everything the sampler touches is preallocated at
// start() -- the ring, the previous-tick counter baselines (three full
// histogram snapshots included), and a reusable app-counter scratch vector.
// After the first tick, taking a sample performs NO heap allocation
// (asserted by tests/obs_timeseries_test.cpp with a counting allocator), so
// the recorder can run forever in a production process without churn.  The
// full attribution fold is deliberately NOT sampled per tick (it allocates
// and its cumulative tables are always available); the flight recorder
// (obs/flight.h) captures it on demand.
//
// Consistency: samples inherit the registry's eventual-consistency contract
// -- each counter delta is exact over *some* interval bracketing the tick,
// which is precisely what rate estimation wants.
//
// The recorder is exposed at `/history` (human table) and `/history.json`
// on the telemetry endpoint, consumed by the SLO watchdog (obs/watchdog.h)
// and by `tools/tmcv_top.py`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tmcv::obs {

// One per-interval delta sample.  POD: lives in the preallocated ring.
struct TsSample {
  std::uint64_t t_ms = 0;        // ms since recorder start, at sample time
  std::uint32_t interval_ms = 0; // actual elapsed ms this sample covers
  std::uint64_t seq = 0;         // 0-based tick number (monotonic)

  // TM runtime (tm::Stats deltas).
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t aborts_conflict = 0;
  std::uint64_t aborts_capacity = 0;
  std::uint64_t serial_fallbacks = 0;
  std::uint64_t cm_serial_escalations = 0;

  // Condition variables (CondVarStats deltas).
  std::uint64_t cv_waits = 0;
  std::uint64_t notifies = 0;       // notify_one + notify_all + notify_best
  std::uint64_t threads_woken = 0;
  std::uint64_t lost_notifies = 0;

  // Wake path (WakeStats deltas).
  std::uint64_t parks = 0;
  std::uint64_t parks_avoided = 0;

  // Capture health.
  std::uint64_t trace_dropped = 0;

  // KV application counters (0 when no KV server is registered).
  std::uint64_t kv_gets = 0;
  std::uint64_t kv_sets = 0;
  std::uint64_t kv_hits = 0;
  std::uint64_t kv_misses = 0;
  std::uint64_t kv_evictions = 0;

  // Interval-window latency percentiles in ns (0 unless the timing layer
  // ran during the interval).
  std::uint64_t notify_wake_p99_ns = 0;
  std::uint64_t txn_commit_p99_ns = 0;
  std::uint64_t cv_wait_p99_ns = 0;

  // Wait-point probe (obs/waitgraph.h): park time accumulated during this
  // interval, the WaitReason index that dominated it (0 = none), and the
  // stuck-thread signals the watchdog's stuck_thread / wait_cycle rules
  // judge.  All zero until the first tick after a park.
  std::uint64_t stall_ns = 0;
  std::uint64_t stall_top_reason = 0;
  std::uint64_t max_wait_age_ms = 0;
  std::uint64_t stuck_age_ms = 0;
  std::uint64_t wait_cycles = 0;
  std::uint64_t threads_waiting = 0;

  // Derived rates (per second over the actual interval; 0 on a 0-ms tick).
  [[nodiscard]] double commits_per_sec() const noexcept {
    return interval_ms ? static_cast<double>(commits) * 1e3 / interval_ms
                       : 0.0;
  }
  [[nodiscard]] double aborts_per_sec() const noexcept {
    return interval_ms ? static_cast<double>(aborts) * 1e3 / interval_ms
                       : 0.0;
  }
  // Aborts per commit in this interval (the abort-storm signal).
  [[nodiscard]] double abort_commit_ratio() const noexcept {
    return commits ? static_cast<double>(aborts) /
                         static_cast<double>(commits)
                   : (aborts ? static_cast<double>(aborts) : 0.0);
  }
  [[nodiscard]] double kv_hit_rate() const noexcept {
    const std::uint64_t lookups = kv_hits + kv_misses;
    return lookups ? static_cast<double>(kv_hits) /
                         static_cast<double>(lookups)
                   : 0.0;
  }
  // Fraction of slow-path waits that had to futex-park (spin-budget health).
  [[nodiscard]] double park_ratio() const noexcept {
    const std::uint64_t slow = parks + parks_avoided;
    return slow ? static_cast<double>(parks) / static_cast<double>(slow)
                : 0.0;
  }
};

// Observer invoked after every appended sample (on the sampler thread, or
// on the caller of sample_now()).  The watchdog registers itself here so
// rule evaluation rides the recorder cadence without a second timer.
using TsObserverFn = void (*)(const TsSample& sample, void* ctx);

struct TimeSeriesOptions {
  std::uint32_t interval_ms = 1000;  // sampler cadence (clamped to >= 10)
  std::uint32_t depth = 240;         // retained samples (clamped to >= 2)
  bool sampler_thread = true;        // false: caller drives sample_now()
};

class TimeSeriesRecorder {
 public:
  TimeSeriesRecorder();
  ~TimeSeriesRecorder();  // stops if running

  TimeSeriesRecorder(const TimeSeriesRecorder&) = delete;
  TimeSeriesRecorder& operator=(const TimeSeriesRecorder&) = delete;

  // Preallocate the ring, capture the tick-0 baselines, and (unless
  // opts.sampler_thread is false) spawn the sampler.  Restarting an already
  // running recorder fails (EALREADY); a stopped one restarts fresh.
  bool start(const TimeSeriesOptions& opts = {});

  // Join the sampler and stop appending.  The retained window stays
  // readable until the next start().  Idempotent.
  void stop();

  [[nodiscard]] bool running() const noexcept;
  [[nodiscard]] std::uint32_t interval_ms() const noexcept;
  [[nodiscard]] std::uint32_t depth() const noexcept;
  [[nodiscard]] std::uint64_t samples_taken() const noexcept;

  // Take one sample now (the sampler thread's body; also the deterministic
  // driver for tests and benches).  No-op unless start() succeeded.
  void sample_now();

  // Copy the retained window, oldest first, into `out` (cleared first).
  void history(std::vector<TsSample>& out) const;

  // Exporters: {"meta": {...}, "samples": [...]} with derived rates, and a
  // fixed-width table for `curl /history`.
  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] std::string to_text() const;

  // At most one observer; nullptr unregisters.  Set while stopped (or from
  // the observer itself) to avoid racing the sampler.
  void set_observer(TsObserverFn fn, void* ctx) noexcept;

 private:
  struct Impl;
  Impl* impl_;  // manual pimpl: the recorder itself must not churn
};

// The process-wide recorder instance every surface (telemetry routes,
// watchdog, flight recorder, benches) shares.
[[nodiscard]] TimeSeriesRecorder& timeseries();

}  // namespace tmcv::obs

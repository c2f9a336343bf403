// SLO/anomaly watchdog: turns the time-series recorder's samples into
// firing/cleared alerts.
//
// Each rule is a threshold over one derived signal of a TsSample (abort
// storm, serial-escalation rate, notify->wake p99 breach, KV eviction
// storm, stuck thread, wait cycle).  The watchdog registers itself as the recorder's
// observer, so rules are evaluated once per sampling tick -- no second
// timer, no extra scrape.  A rule FIRES after `consecutive` breaching
// samples (debounce: one noisy interval is not an incident) and CLEARS on
// the first non-breaching sample with enough activity to judge.
//
// Firing transitions can trigger the flight recorder (obs/flight.h): set a
// dump path and the first clear->fire edge freezes trace + history +
// attribution into a post-mortem JSON, rate-limited to one dump per
// firing episode.
//
// Surfaces: `/alerts` (JSON) on the telemetry endpoint, and
// `tmcv_alerts_firing{rule=...}` / `tmcv_alerts_fired_total{rule=...}`
// gauges appended to `/metrics`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/timeseries.h"

namespace tmcv::obs {

enum class RuleKind : std::uint8_t {
  kAbortStorm = 0,      // aborts/commits ratio over threshold
  kSerialEscalation,    // cm_serial_escalations per second over threshold
  kLatencyP99,          // notify->wake window p99 (ns) over threshold
  kEvictionStorm,       // kv_evictions/kv_sets over threshold
  kStuckThread,         // oldest stuck waiter age (ms) over threshold
  kWaitCycle,           // threads in waiter->holder cycles over threshold
  kRuleKindCount,
};

[[nodiscard]] constexpr const char* rule_kind_name(RuleKind k) noexcept {
  switch (k) {
    case RuleKind::kAbortStorm:
      return "abort_storm";
    case RuleKind::kSerialEscalation:
      return "serial_escalation";
    case RuleKind::kLatencyP99:
      return "latency_p99";
    case RuleKind::kEvictionStorm:
      return "eviction_storm";
    case RuleKind::kStuckThread:
      return "stuck_thread";
    case RuleKind::kWaitCycle:
      return "wait_cycle";
    case RuleKind::kRuleKindCount:
      break;
  }
  return "?";
}

struct WatchdogRule {
  RuleKind kind = RuleKind::kAbortStorm;
  double threshold = 0.0;       // breach when signal > threshold
  std::uint64_t min_activity = 0;  // skip samples below this denominator
                                   // (idle intervals neither fire nor clear)
  std::uint32_t consecutive = 2;   // breaching samples needed to fire
};

// Per-rule alert state, readable at any time.
struct AlertState {
  WatchdogRule rule;
  bool firing = false;
  std::uint32_t breach_streak = 0;  // consecutive breaches so far
  std::uint64_t fired_count = 0;    // clear->fire transitions since start
  std::uint64_t last_change_ms = 0; // sample t_ms of the last transition
  double last_value = 0.0;          // signal value at the last judged sample
};

// The rule set the KV server and benches enable by default.  Thresholds
// documented in docs/OBSERVABILITY.md §8 and docs/TUNING.md.
[[nodiscard]] std::vector<WatchdogRule> default_rules();

class Watchdog {
 public:
  Watchdog();
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  // Install the rule set and subscribe to the recorder's ticks.  The
  // recorder itself must be started separately (they are independent
  // layers: history without alerts is valid).  `dump_path`, when
  // non-empty, enables a flight dump on each clear->fire edge, writing to
  // dump_path (one dump per episode).  Restart replaces rules and resets
  // all alert state.
  void start(std::vector<WatchdogRule> rules, std::string dump_path = "");

  // Unsubscribe and stop evaluating.  Alert state stays readable.
  void stop();

  [[nodiscard]] bool running() const;

  // Evaluate one sample against every rule (the observer body; public so
  // tests can drive synthetic samples deterministically).
  void evaluate(const TsSample& s);

  // Snapshot of every rule's state.
  [[nodiscard]] std::vector<AlertState> alerts() const;

  // True when any rule is currently firing.
  [[nodiscard]] bool any_firing() const;

  // Exporters: the `/alerts` JSON document and the Prometheus gauge block
  // appended to `/metrics`.
  [[nodiscard]] std::string alerts_json() const;
  [[nodiscard]] std::string prometheus() const;

 private:
  struct Impl;
  Impl* impl_;
};

// Process-wide instance shared by telemetry routes, benches, and the KV
// server.
[[nodiscard]] Watchdog& watchdog();

}  // namespace tmcv::obs

#include "obs/watchdog.h"

#include <cstdio>
#include <mutex>
#include <sstream>
#include <utility>

#include "obs/flight.h"

namespace tmcv::obs {

std::vector<WatchdogRule> default_rules() {
  return {
      // Half the attempts aborting for two consecutive intervals is a
      // storm by any workload's standard; min_activity filters idle ticks
      // (a single retried transaction is not an incident).
      {RuleKind::kAbortStorm, /*threshold=*/0.5, /*min_activity=*/100,
       /*consecutive=*/2},
      // Escalations are meant to be rare safety valves: sustained tens per
      // second means the conflict-streak limit is doing the scheduling.
      {RuleKind::kSerialEscalation, /*threshold=*/10.0, /*min_activity=*/1,
       /*consecutive=*/2},
      // notify->wake p99 above 1 ms means wakeups have fallen off the
      // fast path entirely (parking + scheduling latency dominates).
      // Signal is 0 when the timing layer is off -> never fires.
      {RuleKind::kLatencyP99, /*threshold=*/1e6, /*min_activity=*/16,
       /*consecutive=*/2},
      // Evictions tracking sets 1:2 means the working set blew the cache
      // capacity -- hit rate is about to follow.
      {RuleKind::kEvictionStorm, /*threshold=*/0.5, /*min_activity=*/100,
       /*consecutive=*/2},
      // A waiter the waitgraph probe judged stuck (lost-wakeup suspect, or
      // an orec/serial drain that outlived its windows) aging past 3 s.
      // The signal is already heavily gated by the suspect heuristic, so
      // two confirming samples suffice; activity is always 1 (a stuck
      // thread is an incident precisely when the rest of the process is
      // making progress).
      {RuleKind::kStuckThread, /*threshold=*/3000.0, /*min_activity=*/1,
       /*consecutive=*/2},
      // Any thread in a waiter->holder cycle is a deadlock in the making:
      // one confirmed sample fires.
      {RuleKind::kWaitCycle, /*threshold=*/0.5, /*min_activity=*/1,
       /*consecutive=*/1},
  };
}

namespace {

// The (signal, denominator) a rule judges on one sample.  The denominator
// gates on min_activity so idle intervals are skipped entirely.
struct Signal {
  double value = 0.0;
  std::uint64_t activity = 0;
};

Signal signal_of(RuleKind k, const TsSample& s) {
  switch (k) {
    case RuleKind::kAbortStorm:
      return {s.abort_commit_ratio(), s.commits + s.aborts};
    case RuleKind::kSerialEscalation:
      return {s.interval_ms ? static_cast<double>(s.cm_serial_escalations) *
                                  1e3 / s.interval_ms
                            : 0.0,
              s.commits + s.aborts};
    case RuleKind::kLatencyP99:
      return {static_cast<double>(s.notify_wake_p99_ns), s.threads_woken};
    case RuleKind::kEvictionStorm:
      return {s.kv_sets ? static_cast<double>(s.kv_evictions) /
                              static_cast<double>(s.kv_sets)
                        : 0.0,
              s.kv_sets};
    case RuleKind::kStuckThread:
      return {static_cast<double>(s.stuck_age_ms), 1};
    case RuleKind::kWaitCycle:
      return {static_cast<double>(s.wait_cycles), 1};
    case RuleKind::kRuleKindCount:
      break;
  }
  return {};
}

void observer_tramp(const TsSample& s, void* ctx) {
  static_cast<Watchdog*>(ctx)->evaluate(s);
}

}  // namespace

struct Watchdog::Impl {
  mutable std::mutex mu;
  bool started = false;
  std::vector<AlertState> states;
  std::string dump_path;
};

Watchdog::Watchdog() : impl_(new Impl) {}

Watchdog::~Watchdog() {
  stop();
  delete impl_;
}

void Watchdog::start(std::vector<WatchdogRule> rules, std::string dump_path) {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->states.clear();
    impl_->states.reserve(rules.size());
    for (const WatchdogRule& r : rules) {
      AlertState st;
      st.rule = r;
      if (st.rule.consecutive == 0) st.rule.consecutive = 1;
      impl_->states.push_back(st);
    }
    impl_->dump_path = std::move(dump_path);
    impl_->started = true;
  }
  timeseries().set_observer(&observer_tramp, this);
}

void Watchdog::stop() {
  bool was_started = false;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    was_started = impl_->started;
    impl_->started = false;
  }
  if (was_started) timeseries().set_observer(nullptr, nullptr);
}

bool Watchdog::running() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->started;
}

void Watchdog::evaluate(const TsSample& s) {
  bool want_dump = false;
  std::string path;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (!impl_->started) return;
    for (AlertState& st : impl_->states) {
      const Signal sig = signal_of(st.rule.kind, s);
      if (sig.activity < st.rule.min_activity) continue;  // idle: no verdict
      st.last_value = sig.value;
      if (sig.value > st.rule.threshold) {
        if (++st.breach_streak >= st.rule.consecutive && !st.firing) {
          st.firing = true;
          ++st.fired_count;
          st.last_change_ms = s.t_ms;
          if (!impl_->dump_path.empty()) {
            want_dump = true;  // one dump per episode: only on the edge
            path = impl_->dump_path;
          }
        }
      } else {
        st.breach_streak = 0;
        if (st.firing) {
          st.firing = false;
          st.last_change_ms = s.t_ms;
        }
      }
    }
  }
  // Outside mu: the dump reads telemetry state (history, alerts) back.
  if (want_dump)
    flight_dump(path, FlightDumpOptions{/*reason=*/"watchdog"});
}

std::vector<AlertState> Watchdog::alerts() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->states;
}

bool Watchdog::any_firing() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (const AlertState& st : impl_->states)
    if (st.firing) return true;
  return false;
}

std::string Watchdog::alerts_json() const {
  std::vector<AlertState> states = alerts();
  bool run;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    run = impl_->started;
  }
  std::ostringstream os;
  os << "{\n  \"watchdog_running\": " << (run ? "true" : "false")
     << ",\n  \"alerts\": [";
  char buf[64];
  bool first = true;
  for (const AlertState& st : states) {
    std::snprintf(buf, sizeof buf, "%.6g", st.rule.threshold);
    os << (first ? "" : ",") << "\n    {\"rule\": \""
       << rule_kind_name(st.rule.kind) << "\", \"firing\": "
       << (st.firing ? "true" : "false") << ", \"threshold\": " << buf;
    std::snprintf(buf, sizeof buf, "%.6g", st.last_value);
    os << ", \"last_value\": " << buf
       << ", \"breach_streak\": " << st.breach_streak
       << ", \"fired_count\": " << st.fired_count
       << ", \"min_activity\": " << st.rule.min_activity
       << ", \"consecutive\": " << st.rule.consecutive
       << ", \"last_change_ms\": " << st.last_change_ms << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "]\n}\n";
  return os.str();
}

std::string Watchdog::prometheus() const {
  const std::vector<AlertState> states = alerts();
  std::ostringstream os;
  os << "# HELP tmcv_alerts_firing Watchdog alert state (1 firing, 0 "
        "clear).\n# TYPE tmcv_alerts_firing gauge\n";
  for (const AlertState& st : states)
    os << "tmcv_alerts_firing{rule=\"" << rule_kind_name(st.rule.kind)
       << "\"} " << (st.firing ? 1 : 0) << "\n";
  os << "# HELP tmcv_alerts_fired_total Watchdog clear->fire transitions "
        "since start.\n# TYPE tmcv_alerts_fired_total counter\n";
  for (const AlertState& st : states)
    os << "tmcv_alerts_fired_total{rule=\"" << rule_kind_name(st.rule.kind)
       << "\"} " << st.fired_count << "\n";
  return os.str();
}

Watchdog& watchdog() {
  static Watchdog w;
  return w;
}

}  // namespace tmcv::obs

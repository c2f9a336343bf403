// Watchdog + flight-recorder tests: rule shape, fire/clear hysteresis with
// synthetic samples, per-rule signal wiring, idle-interval gating, the
// JSON/Prometheus exporters, recorder->watchdog observer integration, and
// the flight dump (edge-triggered on firing, valid post-mortem JSON, C API).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/c_api.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "tm/api.h"
#include "tm/var.h"

namespace obs = tmcv::obs;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// A sample that breaches (or clears) the abort-storm rule with plenty of
// activity to be judged.
obs::TsSample storm_sample(std::uint64_t t_ms, bool breaching) {
  obs::TsSample s;
  s.t_ms = t_ms;
  s.interval_ms = 1000;
  s.commits = 1000;
  s.aborts = breaching ? 900 : 10;
  return s;
}

obs::WatchdogRule abort_storm_rule() {
  return {obs::RuleKind::kAbortStorm, /*threshold=*/0.5, /*min_activity=*/100,
          /*consecutive=*/2};
}

TEST(ObsWatchdogTest, DefaultRulesCoverEverySignal) {
  const std::vector<obs::WatchdogRule> rules = obs::default_rules();
  ASSERT_EQ(rules.size(),
            static_cast<std::size_t>(obs::RuleKind::kRuleKindCount));
  bool seen[static_cast<int>(obs::RuleKind::kRuleKindCount)] = {};
  for (const obs::WatchdogRule& r : rules) {
    EXPECT_GT(r.threshold, 0.0);
    EXPECT_GE(r.consecutive, 1u);
    seen[static_cast<int>(r.kind)] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
  EXPECT_STREQ(obs::rule_kind_name(obs::RuleKind::kAbortStorm),
               "abort_storm");
  EXPECT_STREQ(obs::rule_kind_name(obs::RuleKind::kEvictionStorm),
               "eviction_storm");
}

TEST(ObsWatchdogTest, FiresAfterConsecutiveBreachesAndClears) {
  obs::Watchdog wd;
  wd.start({abort_storm_rule()});
  ASSERT_TRUE(wd.running());

  // One breaching sample is debounced, not an incident.
  wd.evaluate(storm_sample(1000, true));
  std::vector<obs::AlertState> st = wd.alerts();
  ASSERT_EQ(st.size(), 1u);
  EXPECT_FALSE(st[0].firing);
  EXPECT_EQ(st[0].breach_streak, 1u);
  EXPECT_FALSE(wd.any_firing());

  // Second consecutive breach fires.
  wd.evaluate(storm_sample(2000, true));
  st = wd.alerts();
  EXPECT_TRUE(st[0].firing);
  EXPECT_EQ(st[0].fired_count, 1u);
  EXPECT_EQ(st[0].last_change_ms, 2000u);
  EXPECT_TRUE(wd.any_firing());
  EXPECT_GT(st[0].last_value, 0.5);

  // Staying breached keeps firing but does not re-count the episode.
  wd.evaluate(storm_sample(3000, true));
  st = wd.alerts();
  EXPECT_TRUE(st[0].firing);
  EXPECT_EQ(st[0].fired_count, 1u);

  // The first healthy sample clears and resets the streak.
  wd.evaluate(storm_sample(4000, false));
  st = wd.alerts();
  EXPECT_FALSE(st[0].firing);
  EXPECT_EQ(st[0].breach_streak, 0u);
  EXPECT_EQ(st[0].last_change_ms, 4000u);

  // A new episode increments fired_count again.
  wd.evaluate(storm_sample(5000, true));
  wd.evaluate(storm_sample(6000, true));
  EXPECT_EQ(wd.alerts()[0].fired_count, 2u);

  wd.stop();
  EXPECT_FALSE(wd.running());
  // State stays readable after stop, but evaluation is off.
  wd.evaluate(storm_sample(7000, false));
  EXPECT_TRUE(wd.alerts()[0].firing);
}

TEST(ObsWatchdogTest, IdleIntervalsGiveNoVerdict) {
  obs::Watchdog wd;
  wd.start({abort_storm_rule()});
  wd.evaluate(storm_sample(1000, true));
  wd.evaluate(storm_sample(2000, true));
  ASSERT_TRUE(wd.any_firing());

  // An idle tick (activity below min_activity) must NOT clear the alert:
  // "the workload stopped" is not "the storm ended".
  obs::TsSample idle;
  idle.t_ms = 3000;
  idle.interval_ms = 1000;
  idle.commits = 3;  // 3 < min_activity=100
  wd.evaluate(idle);
  EXPECT_TRUE(wd.any_firing());
  wd.stop();
}

TEST(ObsWatchdogTest, EveryRuleKindReadsItsSignal) {
  // One rule per kind, thresholds low enough that the crafted sample
  // breaches all four at once; consecutive=1 so a single sample fires.
  std::vector<obs::WatchdogRule> rules = {
      {obs::RuleKind::kAbortStorm, 0.5, 1, 1},
      {obs::RuleKind::kSerialEscalation, 10.0, 1, 1},
      {obs::RuleKind::kLatencyP99, 1e6, 1, 1},
      {obs::RuleKind::kEvictionStorm, 0.5, 1, 1},
  };
  obs::Watchdog wd;
  wd.start(rules);

  obs::TsSample s;
  s.t_ms = 1000;
  s.interval_ms = 1000;
  s.commits = 100;
  s.aborts = 90;                  // ratio 0.9 > 0.5
  s.cm_serial_escalations = 50;   // 50/s > 10/s
  s.notify_wake_p99_ns = 2000000; // 2 ms > 1 ms
  s.threads_woken = 10;
  s.kv_sets = 100;
  s.kv_evictions = 80;            // 0.8 > 0.5
  wd.evaluate(s);

  for (const obs::AlertState& st : wd.alerts())
    EXPECT_TRUE(st.firing) << obs::rule_kind_name(st.rule.kind);

  // A healthy sample clears all four.
  obs::TsSample ok;
  ok.t_ms = 2000;
  ok.interval_ms = 1000;
  ok.commits = 1000;
  ok.aborts = 1;
  ok.threads_woken = 10;
  ok.kv_sets = 100;
  wd.evaluate(ok);
  for (const obs::AlertState& st : wd.alerts())
    EXPECT_FALSE(st.firing) << obs::rule_kind_name(st.rule.kind);
  wd.stop();
}

TEST(ObsWatchdogTest, JsonAndPrometheusExporters) {
  obs::Watchdog wd;
  wd.start({abort_storm_rule()});
  wd.evaluate(storm_sample(1000, true));
  wd.evaluate(storm_sample(2000, true));

  const std::string json = wd.alerts_json();
  for (const char* needle :
       {"\"watchdog_running\": true", "\"rule\": \"abort_storm\"",
        "\"firing\": true", "\"threshold\": 0.5", "\"fired_count\": 1",
        "\"breach_streak\": 2", "\"consecutive\": 2",
        "\"last_change_ms\": 2000"})
    EXPECT_NE(json.find(needle), std::string::npos) << needle;

  const std::string prom = wd.prometheus();
  EXPECT_NE(prom.find("# TYPE tmcv_alerts_firing gauge"), std::string::npos);
  EXPECT_NE(prom.find("tmcv_alerts_firing{rule=\"abort_storm\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("tmcv_alerts_fired_total{rule=\"abort_storm\"} 1"),
            std::string::npos);
  wd.stop();
  EXPECT_NE(wd.alerts_json().find("\"watchdog_running\": false"),
            std::string::npos);
}

TEST(ObsWatchdogTest, RidesTheRecorderObserver) {
  // Integration: watchdog().start subscribes to timeseries() ticks, so a
  // manual sample_now() evaluates rules with no extra plumbing.  A
  // threshold of ~0 on aborts with min_activity=1 fires on any real work.
  obs::TimeSeriesOptions ts;
  ts.interval_ms = 10;
  ts.depth = 8;
  ts.sampler_thread = false;
  ASSERT_TRUE(obs::timeseries().start(ts));
  obs::watchdog().start({{obs::RuleKind::kAbortStorm, /*threshold=*/-1.0,
                          /*min_activity=*/1, /*consecutive=*/1}});

  tmcv::tm::var<std::uint64_t> x(0);
  for (int i = 0; i < 5; ++i)
    tmcv::tm::atomically([&] { x.store(x.load() + 1); });
  obs::timeseries().sample_now();  // any activity breaches threshold -1

  EXPECT_TRUE(obs::watchdog().any_firing());
  obs::watchdog().stop();
  obs::timeseries().stop();
}

TEST(ObsWatchdogTest, FlightDumpOnFireEdgeOnly) {
  const std::string path = testing::TempDir() + "tmcv_wd_flight.json";
  std::remove(path.c_str());

  obs::Watchdog wd;
  wd.start({abort_storm_rule()}, path);
  wd.evaluate(storm_sample(1000, true));
  EXPECT_EQ(slurp(path), "");  // not yet: debounced

  wd.evaluate(storm_sample(2000, true));  // fire edge -> dump
  std::string dump = slurp(path);
  ASSERT_FALSE(dump.empty());
  for (const char* needle :
       {"\"tmcv_flight\": 1", "\"reason\": \"watchdog\"", "\"meta\"",
        "\"alerts\"", "\"metrics\"", "\"history\"", "\"attribution_full\"",
        "\"conflicts_recorded\"", "\"trace\"", "\"traceEvents\""})
    EXPECT_NE(dump.find(needle), std::string::npos) << needle;

  // Still firing: no second dump this episode.
  std::remove(path.c_str());
  wd.evaluate(storm_sample(3000, true));
  EXPECT_EQ(slurp(path), "");

  // Clear, then a new episode dumps again.
  wd.evaluate(storm_sample(4000, false));
  wd.evaluate(storm_sample(5000, true));
  wd.evaluate(storm_sample(6000, true));
  EXPECT_NE(slurp(path).find("\"tmcv_flight\": 1"), std::string::npos);

  wd.stop();
  std::remove(path.c_str());
}

TEST(ObsWatchdogTest, FlightDumpCapturesWorkloadEvidence) {
  // End-to-end: real transactions with capture on, then a dump must carry
  // the evidence a post-mortem needs -- trace records (under TMCV_TRACE),
  // a history window, and the full attribution tables.
  obs::TimeSeriesOptions ts;
  ts.interval_ms = 10;
  ts.depth = 8;
  ts.sampler_thread = false;
  ASSERT_TRUE(obs::timeseries().start(ts));
  obs::trace_reset();
  obs::set_trace_enabled(true);
  obs::set_timing_enabled(true);

  tmcv::tm::var<std::uint64_t> x(0);
  for (int i = 0; i < 50; ++i)
    tmcv::tm::atomically([&] { x.store(x.load() + 1); });
  obs::timeseries().sample_now();

  const std::string path = testing::TempDir() + "tmcv_e2e_flight.json";
  std::remove(path.c_str());
  ASSERT_EQ(tmcv_flight_dump(path.c_str()), 0);  // the C API entry point
  const std::string dump = slurp(path);
  ASSERT_FALSE(dump.empty());
  EXPECT_NE(dump.find("\"reason\": \"api\""), std::string::npos);
  EXPECT_EQ(dump.find("\"samples\": []"), std::string::npos)
      << "flight dump lost the history window";
  EXPECT_NE(dump.find("\"seq\": 0"), std::string::npos);
#if TMCV_TRACE
  EXPECT_NE(dump.find("txn.commit"), std::string::npos)
      << "flight dump carries no trace records";
#endif
  // The dump must restore capture flags after freezing them.
  EXPECT_TRUE(obs::trace_enabled());

  obs::set_trace_enabled(false);
  obs::set_timing_enabled(false);
  obs::trace_reset();
  obs::timeseries().stop();
  std::remove(path.c_str());

  // Unwritable path: the C API reports failure and leaves no tmp litter.
  EXPECT_EQ(tmcv_flight_dump("/nonexistent-dir/f.json"), -1);
  EXPECT_EQ(tmcv_flight_dump(nullptr), -1);
}

}  // namespace

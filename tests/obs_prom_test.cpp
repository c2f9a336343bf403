// Prometheus exposition-format conformance: parse every line the exporter
// emits against the text-format grammar (metric names, label syntax, label
// value escaping, numeric sample values), require a # HELP / # TYPE header
// pair before each family's samples, and reject duplicate series.  Runs on
// a snapshot made rich on purpose (attribution, timing and trace all
// populated) so the new families are exercised, not just the empty shapes.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/condvar.h"
#include "obs/attribution.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "tm/api.h"
#include "tm/var.h"

namespace obs = tmcv::obs;


namespace {

bool valid_metric_name(const std::string& s) {
  if (s.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(s[0])) && s[0] != '_' &&
      s[0] != ':')
    return false;
  for (char c : s)
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != ':')
      return false;
  return true;
}

bool valid_label_name(const std::string& s) {
  if (s.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(s[0])) && s[0] != '_')
    return false;
  for (char c : s)
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_')
      return false;
  return true;
}

// Parse `{name="value",...}` starting at s[pos] == '{'.  Returns false on
// any grammar violation; on success `pos` is one past the closing '}' and
// `out` holds the label pairs in order of appearance.
bool parse_labels(const std::string& s, std::size_t& pos,
                  std::vector<std::pair<std::string, std::string>>& out) {
  ++pos;  // consume '{'
  while (pos < s.size() && s[pos] != '}') {
    std::size_t eq = s.find('=', pos);
    if (eq == std::string::npos) return false;
    const std::string lname = s.substr(pos, eq - pos);
    if (!valid_label_name(lname)) return false;
    if (eq + 1 >= s.size() || s[eq + 1] != '"') return false;
    std::string value;
    std::size_t i = eq + 2;
    for (; i < s.size() && s[i] != '"'; ++i) {
      if (s[i] == '\\') {
        if (i + 1 >= s.size()) return false;
        const char esc = s[i + 1];
        if (esc != '\\' && esc != '"' && esc != 'n') return false;
        ++i;
      }
      if (s[i] == '\n') return false;  // raw newline must be escaped
      value += s[i];
    }
    if (i >= s.size()) return false;  // unterminated value
    out.emplace_back(lname, value);
    pos = i + 1;
    if (pos < s.size() && s[pos] == ',') ++pos;
  }
  if (pos >= s.size() || s[pos] != '}') return false;
  ++pos;
  return true;
}

// The family a sample belongs to: summary samples carry _sum/_count
// suffixes on top of the family name declared by # TYPE.
std::string family_of(const std::string& name,
                      const std::map<std::string, std::string>& types) {
  if (types.count(name)) return name;
  for (const char* suffix : {"_sum", "_count"}) {
    const std::string sfx = suffix;
    if (name.size() > sfx.size() &&
        name.compare(name.size() - sfx.size(), sfx.size(), sfx) == 0) {
      const std::string base = name.substr(0, name.size() - sfx.size());
      auto it = types.find(base);
      if (it != types.end() && it->second == "summary") return base;
    }
  }
  return "";
}

std::vector<std::string> check_exposition(const std::string& prom) {
  std::vector<std::string> errors;
  std::map<std::string, std::string> types;  // family -> type
  std::set<std::string> helps;
  std::set<std::string> series;  // name + canonical labels, must be unique
  std::string pending_help;      // family of an unconsumed # HELP line
  std::istringstream in(prom);
  std::string line;
  int lineno = 0;
  auto fail = [&](const std::string& why) {
    if (errors.size() < 20)
      errors.push_back("line " + std::to_string(lineno) + ": " + why +
                       ": " + line);
  };
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, kind, family;
      ls >> hash >> kind >> family;
      if (kind == "HELP") {
        if (!valid_metric_name(family)) fail("bad family in HELP");
        if (!helps.insert(family).second) fail("duplicate HELP");
        pending_help = family;
      } else if (kind == "TYPE") {
        std::string type;
        ls >> type;
        if (!valid_metric_name(family)) fail("bad family in TYPE");
        if (type != "counter" && type != "gauge" && type != "summary" &&
            type != "histogram" && type != "untyped")
          fail("unknown type '" + type + "'");
        if (types.count(family)) fail("duplicate TYPE");
        if (pending_help != family)
          fail("TYPE not immediately preceded by its HELP");
        types[family] = type;
        pending_help.clear();
      } else {
        fail("comment is neither HELP nor TYPE");
      }
      continue;
    }
    // Sample line: name[{labels}] value
    std::size_t pos = 0;
    while (pos < line.size() && line[pos] != '{' && line[pos] != ' ') ++pos;
    const std::string name = line.substr(0, pos);
    if (!valid_metric_name(name)) {
      fail("bad metric name");
      continue;
    }
    std::vector<std::pair<std::string, std::string>> labels;
    if (pos < line.size() && line[pos] == '{') {
      if (!parse_labels(line, pos, labels)) {
        fail("bad label syntax");
        continue;
      }
    }
    if (pos >= line.size() || line[pos] != ' ') {
      fail("missing space before value");
      continue;
    }
    const std::string value = line.substr(pos + 1);
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    if (value.empty() || end == nullptr || *end != '\0')
      fail("sample value is not a number");
    const std::string family = family_of(name, types);
    if (family.empty())
      fail("sample family has no preceding # TYPE");
    else if (!helps.count(family))
      fail("sample family has no # HELP");
    std::string key = name + "{";
    for (const auto& lv : labels) key += lv.first + "=" + lv.second + ",";
    key += "}";
    if (!series.insert(key).second) fail("duplicate series");
  }
  if (!pending_help.empty())
    errors.push_back("trailing HELP for " + pending_help + " without TYPE");
  return errors;
}

// Populate the registry so the export covers every family: transactions
// (some conflicting) with timing + attribution on, condvar traffic, and at
// least one trace ring with events.
void generate_activity() {
  obs::trace_reset();
  obs::attr_reset();
  obs::set_timing_enabled(true);
  obs::set_trace_enabled(true);
  obs::set_attribution_enabled(true);
  tmcv::tm::var<std::uint64_t> hot(0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < 500; ++i)
        tmcv::tm::atomically([&] {
          TMCV_TXN_SITE("prom_test.rmw");
          hot.store(hot.load() + 1);
        });
    });
  for (auto& th : threads) th.join();
  // The contended loop may produce zero aborts on a single-core box, so
  // guarantee at least one attributed sample through the public recorder.
  const std::uint16_t site = obs::intern_site("prom_test.rmw");
  obs::attr_record_abort(site, obs::kAttrReasonConflict);
  obs::attr_record_conflict(site, site, 0);
  tmcv::CondVar cv;
  cv.notify_one();  // lost notify: exercises the cv counters
  obs::set_timing_enabled(false);
  obs::set_trace_enabled(false);
  obs::set_attribution_enabled(false);
}

class ObsPromTest : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::set_timing_enabled(false);
    obs::set_trace_enabled(false);
    obs::set_attribution_enabled(false);
    obs::trace_reset();
    obs::attr_reset();
  }
};

TEST_F(ObsPromTest, ExpositionGrammarHolds) {
  generate_activity();
  const std::string prom = obs::to_prometheus(obs::metrics_snapshot());
  const std::vector<std::string> errors = check_exposition(prom);
  std::string joined;
  for (const std::string& e : errors) joined += e + "\n";
  EXPECT_TRUE(errors.empty()) << joined;
}

TEST_F(ObsPromTest, NewFamiliesAreExported) {
  generate_activity();
  const std::string prom = obs::to_prometheus(obs::metrics_snapshot());
  for (const char* needle :
       {"# TYPE tmcv_attr_aborts_total counter",
        "# TYPE tmcv_attr_conflict_pairs_total counter",
        "# TYPE tmcv_attr_stripe_conflicts_total counter",
        "# TYPE tmcv_attr_conflicts_recorded_total counter",
        "# TYPE tmcv_attr_dropped_total counter",
        "# TYPE tmcv_trace_drops_total counter",
        // Build/uptime info-gauges (scrape attributability across restarts).
        "# TYPE tmcv_uptime_seconds gauge",
        "# TYPE tmcv_build_info gauge",
        "tmcv_build_info{version=\"",
        // Exact histogram extrema ride as sibling gauge families.
        "# TYPE tmcv_notify_wake_ns_min gauge",
        "# TYPE tmcv_notify_wake_ns_max gauge",
        "tmcv_txn_commit_ns_min ", "tmcv_txn_commit_ns_max "}) {
    EXPECT_NE(prom.find(needle), std::string::npos) << "missing " << needle;
  }
  // build_info carries the compile-time trace state as a label, value 1.
  EXPECT_NE(prom.find(TMCV_TRACE ? ",trace=\"on\"} 1" : ",trace=\"off\"} 1"),
            std::string::npos);
#if TMCV_TRACE
  // The trace ring registered by generate_activity must be listed, drops
  // or not (the family is non-empty whenever rings exist).
  EXPECT_NE(prom.find("tmcv_trace_drops_total{tid="), std::string::npos);
  EXPECT_NE(prom.find("tmcv_attr_aborts_total{site=\"prom_test.rmw\""),
            std::string::npos);
#endif
}

TEST_F(ObsPromTest, WatchdogGaugesConformToGrammar) {
  // The /metrics route serves to_prometheus + watchdog().prometheus()
  // concatenated; the combined document must still parse as one valid
  // exposition (no duplicate families, headers before samples).
  obs::Watchdog wd;
  wd.start(obs::default_rules());
  const std::string prom =
      obs::to_prometheus(obs::metrics_snapshot()) + wd.prometheus();
  wd.stop();
  const std::vector<std::string> errors = check_exposition(prom);
  std::string joined;
  for (const std::string& e : errors) joined += e + "\n";
  EXPECT_TRUE(errors.empty()) << joined;
  EXPECT_NE(prom.find("# TYPE tmcv_alerts_firing gauge"), std::string::npos);
  EXPECT_NE(prom.find("tmcv_alerts_firing{rule=\"eviction_storm\"} 0"),
            std::string::npos);
}

// An app gauge is exposed as a Prometheus gauge, an app counter as a counter.
TEST_F(ObsPromTest, AppGaugeIsTypedGauge) {
  std::uint64_t src = 4;
  const obs::AppCounterFn scrape = [](void* ctx,
                                      std::vector<obs::AppCounter>& out) {
    const auto v = *static_cast<const std::uint64_t*>(ctx);
    out.push_back({"test_events", v});
    out.push_back({"test_level", v, /*gauge=*/true});
  };
  obs::register_app_counters(scrape, &src);
  const std::string prom = obs::to_prometheus(obs::metrics_snapshot());
  obs::unregister_app_counters(scrape, &src);
  EXPECT_NE(prom.find("# TYPE tmcv_app_test_events counter"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE tmcv_app_test_level gauge"), std::string::npos);
  EXPECT_NE(prom.find("\ntmcv_app_test_level 4\n"), std::string::npos);
  EXPECT_TRUE(check_exposition(prom).empty());
}

// The parser itself must reject malformed exposition, or the grammar test
// proves nothing.
TEST_F(ObsPromTest, CheckerRejectsMalformedInput) {
  EXPECT_FALSE(check_exposition("no_type_header 1\n").empty());
  EXPECT_FALSE(check_exposition("# HELP x h\n# TYPE x counter\n"
                                "x{bad-label=\"v\"} 1\n").empty());
  EXPECT_FALSE(check_exposition("# HELP x h\n# TYPE x counter\n"
                                "x{l=\"v\"} notanumber\n").empty());
  EXPECT_FALSE(check_exposition("# HELP x h\n# TYPE x counter\n"
                                "x 1\nx 2\n").empty());  // duplicate series
  EXPECT_FALSE(check_exposition("# TYPE x counter\nx 1\n").empty());  // no HELP
  EXPECT_TRUE(check_exposition("# HELP x h\n# TYPE x counter\n"
                               "x{l=\"a\"} 1\nx{l=\"b\"} 2\n").empty());
}

}  // namespace

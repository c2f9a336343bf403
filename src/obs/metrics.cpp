#include "obs/metrics.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <mutex>
#include <sstream>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "tm/api.h"
#include "tmcv_version.h"

namespace tmcv::obs {

namespace {

struct AppSource {
  AppCounterFn fn;
  void* ctx;
};

std::mutex& app_sources_mu() {
  static std::mutex mu;
  return mu;
}

std::vector<AppSource>& app_sources() {
  static std::vector<AppSource> sources;
  return sources;
}

}  // namespace

void register_app_counters(AppCounterFn fn, void* ctx) {
  std::lock_guard<std::mutex> lock(app_sources_mu());
  app_sources().push_back(AppSource{fn, ctx});
}

void unregister_app_counters(AppCounterFn fn, void* ctx) {
  std::lock_guard<std::mutex> lock(app_sources_mu());
  auto& sources = app_sources();
  for (auto it = sources.begin(); it != sources.end(); ++it) {
    if (it->fn == fn && it->ctx == ctx) {
      sources.erase(it);
      return;
    }
  }
}

void scrape_app_counters_into(std::vector<AppCounter>& out) {
  // Under the lock: orders against a concurrent unregister-then-destroy.
  std::lock_guard<std::mutex> lock(app_sources_mu());
  for (const AppSource& src : app_sources()) src.fn(src.ctx, out);
}

namespace {

// Anchored the first time anything queries uptime; constant-initialized
// early enough that "first scrape" and "process start" agree to well under
// a second in every real deployment.
const std::chrono::steady_clock::time_point g_process_start =
    std::chrono::steady_clock::now();

}  // namespace

double process_uptime_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       g_process_start)
      .count();
}

MetricsSnapshot metrics_snapshot() {
  MetricsSnapshot s;
  s.tm = tm::stats_snapshot();
  s.tm_backend = tm::backend_label(tm::default_backend());
  s.cv = condvar_stats_aggregate();
  s.wake = wake_stats_snapshot();
  const TraceCounts tc = trace_counts();
  s.trace_events = tc.recorded;
  s.trace_dropped = tc.dropped;
  for_each_ring([&](const TraceRing& r) {
    s.trace_ring_drops.push_back(RingDrops{r.tid(), r.dropped()});
  });
  s.attribution = attribution_snapshot();
  scrape_app_counters_into(s.app);
  s.stall = stall_snapshot();
  s.cv_wait_ns = hist_cv_wait().snapshot();
  s.notify_wake_ns = hist_notify_wake().snapshot();
  s.txn_commit_ns = hist_txn_commit().snapshot();
  s.txn_abort_ns = hist_txn_abort().snapshot();
  s.serial_stall_ns = hist_serial_stall().snapshot();
  s.cm_backoff_ns = hist_cm_backoff().snapshot();
  s.spin_park_ns = hist_spin_park().snapshot();
  return s;
}

MetricsSnapshot metrics_delta(const MetricsSnapshot& now,
                              const MetricsSnapshot& before) {
  MetricsSnapshot d = now;
  d.tm -= before.tm;
  d.cv -= before.cv;
  d.wake -= before.wake;
  d.trace_events -= before.trace_events;
  d.trace_dropped -= before.trace_dropped;
  // Rings are immortal and tids stable, so match by tid (a ring absent from
  // `before` was born in between: its whole count is delta).
  for (RingDrops& rd : d.trace_ring_drops)
    for (const RingDrops& bd : before.trace_ring_drops)
      if (bd.tid == rd.tid) {
        rd.dropped =
            rd.dropped > bd.dropped ? rd.dropped - bd.dropped : 0;
        break;
      }
  d.attribution = attribution_delta(now.attribution, before.attribution);
  // App counters match by name (a counter absent from `before` appeared in
  // between: its whole value is delta).  A gauge keeps its current value.
  for (AppCounter& ac : d.app) {
    if (ac.gauge) continue;
    for (const AppCounter& bc : before.app)
      if (bc.name == ac.name) {
        ac.value = ac.value > bc.value ? ac.value - bc.value : 0;
        break;
      }
  }
  // Stall entries match by (reason, site); totals are re-derived from the
  // diffed entries so the "total_ns == sum of entry ns" contract survives
  // the subtraction (total_ticks likewise stays the two-ledger diff).
  d.stall.total_ticks = now.stall.total_ticks > before.stall.total_ticks
                            ? now.stall.total_ticks - before.stall.total_ticks
                            : 0;
  d.stall.total_ns = 0;
  for (StallEntry& e : d.stall.entries) {
    for (const StallEntry& be : before.stall.entries)
      if (be.reason == e.reason && be.site == e.site) {
        e.ticks = e.ticks > be.ticks ? e.ticks - be.ticks : 0;
        e.ns = e.ns > be.ns ? e.ns - be.ns : 0;
        break;
      }
    d.stall.total_ns += e.ns;
  }
  d.cv_wait_ns -= before.cv_wait_ns;
  d.notify_wake_ns -= before.notify_wake_ns;
  d.txn_commit_ns -= before.txn_commit_ns;
  d.txn_abort_ns -= before.txn_abort_ns;
  d.serial_stall_ns -= before.serial_stall_ns;
  d.cm_backoff_ns -= before.cm_backoff_ns;
  d.spin_park_ns -= before.spin_park_ns;
  return d;
}

namespace {

struct NamedHist {
  const char* name;
  const HistogramSnapshot* hist;
};

// The histograms by export name, in a stable order.
void for_each_hist(const MetricsSnapshot& s,
                   const std::function<void(const NamedHist&)>& fn) {
  fn({"cv_wait_ns", &s.cv_wait_ns});
  fn({"notify_wake_ns", &s.notify_wake_ns});
  fn({"txn_commit_ns", &s.txn_commit_ns});
  fn({"txn_abort_ns", &s.txn_abort_ns});
  fn({"serial_stall_ns", &s.serial_stall_ns});
  fn({"cm_backoff_ns", &s.cm_backoff_ns});
  fn({"spin_park_ns", &s.spin_park_ns});
}

// Top-N slice exported for the attribution tables (the snapshot itself is
// unsliced; totals are always computed over everything).
constexpr std::size_t kExportTopN = 10;

}  // namespace

std::string escaped(const char* s) {
  std::string out;
  for (; *s; ++s) {
    if (*s == '"' || *s == '\\') out.push_back('\\');
    if (*s == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(*s);
  }
  return out;
}

std::string attribution_json(const AttributionSnapshot& a, std::size_t limit) {
  const auto shown = [&](const std::vector<AttrEntry>& v) {
    return limit == 0 ? v.size() : std::min(v.size(), limit);
  };
  // One entry per line; `line` opens entry i of a list.
  const auto line = [](std::size_t i) { return i == 0 ? "\n  " : ",\n  "; };
  std::ostringstream os;
  os << "{\"conflicts_recorded\": " << attr_conflicts_total(a)
     << ", \"dropped\": " << a.dropped << ",\n \"abort_sites\": [";
  for (std::size_t i = 0; i < shown(a.abort_sites); ++i) {
    const AttrEntry& e = a.abort_sites[i];
    os << line(i) << "{\"site\": \""
       << escaped(site_name(attr_key_site(e.key))) << "\", \"reason\": \""
       << attr_reason_name(attr_key_reason(e.key))
       << "\", \"count\": " << e.count << "}";
  }
  os << "],\n \"conflict_pairs\": [";
  for (std::size_t i = 0; i < shown(a.conflict_pairs); ++i) {
    const AttrEntry& e = a.conflict_pairs[i];
    os << line(i) << "{\"victim\": \""
       << escaped(site_name(attr_pair_victim(e.key))) << "\", \"attacker\": \""
       << escaped(site_name(attr_pair_attacker(e.key)))
       << "\", \"reason\": \"" << attr_reason_name(attr_key_reason(e.key))
       << "\", \"count\": " << e.count << "}";
  }
  os << "],\n \"hot_stripes\": [";
  for (std::size_t i = 0; i < shown(a.hot_stripes); ++i) {
    const AttrEntry& e = a.hot_stripes[i];
    os << line(i) << "{\"stripe\": " << attr_stripe_index(e.key)
       << ", \"count\": " << e.count << "}";
  }
  os << "]}";
  return os.str();
}

std::string to_json(const MetricsSnapshot& s) {
  std::ostringstream os;
  char upbuf[64];
  std::snprintf(upbuf, sizeof upbuf, "%.3f", process_uptime_seconds());
  os << "{\n  \"meta\": {\"version\": \"" << TMCV_VERSION_STRING
     << "\", \"trace_compiled\": " << (TMCV_TRACE ? "true" : "false")
     << ", \"htm\": \"emulated\", \"uptime_seconds\": " << upbuf
     << "},\n  \"tm\": {\n    \"backend\": \"" << s.tm_backend << "\"";
  s.tm.for_each_scalar([&](const std::string& name, std::uint64_t v) {
    os << ",\n    \"" << name << "\": " << v;
  });
  // Per-backend abort-reason matrix (nested object: scalar-diffing tools
  // skip it; tmcv-top and the backend-smoke CI step read it).
  os << ",\n    \"aborts_by_backend\": {";
  for (std::size_t b = 0; b < tm::kStatsBackends; ++b) {
    os << (b ? ", " : "") << "\""
       << tm::backend_label(static_cast<tm::Backend>(b)) << "\": {";
    for (std::size_t r = 0; r < tm::kStatsAbortReasons; ++r)
      os << (r ? ", " : "") << "\"" << tm::stats_abort_reason_label(r)
         << "\": " << s.tm.aborts_by_backend[b][r];
    os << "}";
  }
  os << "}";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", s.tm.dedup_hit_rate());
  os << ",\n    \"dedup_hit_rate\": " << buf;
  const double attempts = static_cast<double>(s.tm.commits) +
                          static_cast<double>(s.tm.aborts);
  std::snprintf(buf, sizeof buf, "%.6f",
                attempts ? static_cast<double>(s.tm.aborts) / attempts : 0.0);
  // A counter family's fields as the members of one JSON object.
  const auto family = [&](const auto& f) {
    const char* sep = "";
    f.for_each_field([&](const char* name, auto field) {
      os << sep << "    \"" << name << "\": " << f.*field;
      sep = ",\n";
    });
  };
  os << ",\n    \"abort_rate\": " << buf << "\n  },\n  \"condvar\": {\n";
  family(s.cv);
  os << "\n  },\n  \"wake\": {\n";
  family(s.wake);
  os << "\n  },\n  \"trace\": {\n    \"events\": " << s.trace_events
     << ",\n    \"dropped\": " << s.trace_dropped
     << ",\n    \"per_thread_drops\": {";
  bool first = true;
  for (const RingDrops& rd : s.trace_ring_drops) {
    os << (first ? "" : ", ") << "\"" << rd.tid << "\": " << rd.dropped;
    first = false;
  }
  os << "}\n  },\n  \"attribution\": "
     << attribution_json(s.attribution, kExportTopN) << ",\n  \"app\": {\n";
  first = true;
  for (const AppCounter& ac : s.app) {
    os << (first ? "" : ",\n") << "    \"" << escaped(ac.name.c_str())
       << "\": " << ac.value;
    first = false;
  }
  os << "\n  },\n  \"stall\": {\n    \"total_ticks\": "
     << s.stall.total_ticks << ",\n    \"total_ns\": " << s.stall.total_ns
     << ",\n    \"entries\": [";
  first = true;
  for (const StallEntry& e : s.stall.entries) {
    os << (first ? "" : ",") << "\n      {\"reason\": \""
       << wait_reason_name(e.reason) << "\", \"site\": \""
       << escaped(site_name(e.site)) << "\", \"ticks\": " << e.ticks
       << ", \"ns\": " << e.ns << "}";
    first = false;
  }
  os << (first ? "" : "\n    ") << "]\n  },\n  \"histograms\": {\n";
  first = true;
  for_each_hist(s, [&](const NamedHist& h) {
    char mean[64];
    std::snprintf(mean, sizeof mean, "%.1f", h.hist->mean());
    os << (first ? "" : ",\n") << "    \"" << h.name << "\": {"
       << "\"count\": " << h.hist->count << ", \"sum\": " << h.hist->sum
       << ", \"mean\": " << mean << ", \"p50\": " << h.hist->percentile(0.5)
       << ", \"p90\": " << h.hist->percentile(0.9)
       << ", \"p99\": " << h.hist->percentile(0.99)
       << ", \"p999\": " << h.hist->percentile(0.999)
       << ", \"min\": " << h.hist->min_observed()
       << ", \"max\": " << h.hist->max_observed() << "}";
    first = false;
  });
  os << "\n  }\n}\n";
  return os.str();
}

std::string to_prometheus(const MetricsSnapshot& s) {
  std::ostringstream os;
  // Every family gets a # HELP / # TYPE header (in that order, once) before
  // its samples -- tests/obs_prom_test.cpp enforces the pairing.
  const auto header = [&](const std::string& name, const char* type,
                          const char* help) {
    os << "# HELP " << name << " " << help << "\n"
       << "# TYPE " << name << " " << type << "\n";
  };
  // Uptime + an info-gauge first: they make scrapes across restarts
  // attributable (uptime reset => counter resets expected).
  header("tmcv_uptime_seconds", "gauge",
         "Seconds since this process started.");
  char upbuf[64];
  std::snprintf(upbuf, sizeof upbuf, "%.3f", process_uptime_seconds());
  os << "tmcv_uptime_seconds " << upbuf << "\n";
  header("tmcv_build_info", "gauge",
         "Build metadata as labels; value is always 1.");
  os << "tmcv_build_info{version=\"" << TMCV_VERSION_STRING
     << "\",htm=\"emulated\",trace=\"" << (TMCV_TRACE ? "on" : "off")
     << "\"} 1\n";
  header("tmcv_tm_backend", "gauge",
         "Current default TM backend as a label; value is always 1.");
  os << "tmcv_tm_backend{backend=\"" << s.tm_backend << "\"} 1\n";
  s.tm.for_each_scalar([&](const std::string& name, std::uint64_t v) {
    const std::string metric = "tmcv_tm_" + name + "_total";
    header(metric, "counter", "Cumulative TM runtime counter (tm::Stats).");
    os << metric << " " << v << "\n";
    if (name == "aborts") {
      // The per-backend abort-reason breakdown rides the same family as
      // labeled samples (one HELP/TYPE header above covers them), so
      // sum by (backend) or by (reason) stays comparable to the unlabeled
      // process total.
      for (std::size_t b = 0; b < tm::kStatsBackends; ++b)
        for (std::size_t r = 0; r < tm::kStatsAbortReasons; ++r)
          os << metric << "{backend=\""
             << tm::backend_label(static_cast<tm::Backend>(b))
             << "\",reason=\"" << tm::stats_abort_reason_label(r) << "\"} "
             << s.tm.aborts_by_backend[b][r] << "\n";
    }
  });
  const auto family = [&](const char* prefix, const char* help,
                          const auto& f) {
    f.for_each_field([&](const char* name, auto field) {
      const std::string metric = prefix + std::string(name) + "_total";
      header(metric, "counter", help);
      os << metric << " " << f.*field << "\n";
    });
  };
  family("tmcv_cv_", "Cumulative condition-variable counter (CondVarStats).",
         s.cv);
  family("tmcv_wake_",
         "Cumulative wake-path counter (spin-then-park / wait morphing).",
         s.wake);
  header("tmcv_trace_events", "gauge",
         "Trace records currently retained across all rings.");
  os << "tmcv_trace_events " << s.trace_events << "\n";
  header("tmcv_trace_dropped_total", "counter",
         "Trace records lost to ring wraparound (all threads).");
  os << "tmcv_trace_dropped_total " << s.trace_dropped << "\n";
  header("tmcv_trace_drops_total", "counter",
         "Trace records lost to ring wraparound, by capture thread.");
  for (const RingDrops& rd : s.trace_ring_drops)
    os << "tmcv_trace_drops_total{tid=\"" << rd.tid << "\"} " << rd.dropped
       << "\n";
  // Conflict attribution: top-N slices of the sharded tables, plus the
  // all-pairs total so completeness (sum == aborts_conflict) stays
  // checkable even when the top-N slice truncates.
  header("tmcv_attr_aborts_total", "counter",
         "Aborts by victim transaction site and reason (top sites).");
  for (std::size_t i = 0;
       i < s.attribution.abort_sites.size() && i < kExportTopN; ++i) {
    const AttrEntry& e = s.attribution.abort_sites[i];
    os << "tmcv_attr_aborts_total{site=\""
       << escaped(site_name(attr_key_site(e.key))) << "\",reason=\""
       << attr_reason_name(attr_key_reason(e.key)) << "\"} " << e.count
       << "\n";
  }
  header("tmcv_attr_conflict_pairs_total", "counter",
         "Conflict aborts by (victim site, attacker site) pair (top pairs).");
  for (std::size_t i = 0;
       i < s.attribution.conflict_pairs.size() && i < kExportTopN; ++i) {
    const AttrEntry& e = s.attribution.conflict_pairs[i];
    os << "tmcv_attr_conflict_pairs_total{victim=\""
       << escaped(site_name(attr_pair_victim(e.key))) << "\",attacker=\""
       << escaped(site_name(attr_pair_attacker(e.key))) << "\",reason=\""
       << attr_reason_name(attr_key_reason(e.key)) << "\"} " << e.count
       << "\n";
  }
  header("tmcv_attr_stripe_conflicts_total", "counter",
         "Conflict aborts by orec stripe index (top stripes).");
  for (std::size_t i = 0;
       i < s.attribution.hot_stripes.size() && i < kExportTopN; ++i) {
    const AttrEntry& e = s.attribution.hot_stripes[i];
    os << "tmcv_attr_stripe_conflicts_total{stripe=\""
       << attr_stripe_index(e.key) << "\"} " << e.count << "\n";
  }
  header("tmcv_attr_conflicts_recorded_total", "counter",
         "Conflict aborts recorded by attribution, all pairs (equals "
         "tmcv_tm_aborts_conflict_total when attribution ran the whole "
         "time and nothing dropped).");
  os << "tmcv_attr_conflicts_recorded_total "
     << attr_conflicts_total(s.attribution) << "\n";
  header("tmcv_attr_dropped_total", "counter",
         "Attribution increments lost to counter-table overflow.");
  os << "tmcv_attr_dropped_total " << s.attribution.dropped << "\n";
  header("tmcv_stall_ns_total", "counter",
         "Off-CPU park time by wait reason and transaction site, in "
         "nanoseconds (wait-point registry stall table).");
  for (const StallEntry& e : s.stall.entries)
    os << "tmcv_stall_ns_total{reason=\"" << wait_reason_name(e.reason)
       << "\",site=\"" << escaped(site_name(e.site)) << "\"} " << e.ns
       << "\n";
  header("tmcv_stall_overall_ns_total", "counter",
         "Grand-total off-CPU park time in nanoseconds (independent "
         "ledger; equals the sum of tmcv_stall_ns_total samples).");
  os << "tmcv_stall_overall_ns_total " << s.stall.total_ns << "\n";
  for (const AppCounter& ac : s.app) {
    // Registered application counters; names are sanitized into the
    // Prometheus identifier alphabet.
    std::string ident;
    for (const char c : ac.name)
      ident.push_back(std::isalnum(static_cast<unsigned char>(c)) || c == '_'
                          ? c
                          : '_');
    const std::string metric = "tmcv_app_" + ident;
    if (ac.gauge)
      header(metric, "gauge", "Registered application gauge.");
    else
      header(metric, "counter", "Registered application counter.");
    os << metric << " " << ac.value << "\n";
  }
  for_each_hist(s, [&](const NamedHist& h) {
    const std::string metric = std::string("tmcv_") + h.name;
    header(metric, "summary",
           "Latency distribution in nanoseconds (log-bucketed histogram).");
    static constexpr std::pair<double, const char*> kQuantiles[] = {
        {0.5, "0.5"}, {0.9, "0.9"}, {0.99, "0.99"}, {0.999, "0.999"}};
    for (const auto& [q, label] : kQuantiles) {
      os << metric << "{quantile=\"" << label << "\"} "
         << h.hist->percentile(q) << "\n";
    }
    os << metric << "_sum " << h.hist->sum << "\n"
       << metric << "_count " << h.hist->count << "\n";
    // Exact extrema as sibling gauge families (summaries cannot carry
    // them; log buckets alone would round them to 1/16).
    header(metric + "_min", "gauge",
           "Exact minimum recorded value in nanoseconds (0 when empty).");
    os << metric << "_min " << h.hist->min_observed() << "\n";
    header(metric + "_max", "gauge",
           "Exact maximum recorded value in nanoseconds (0 when empty).");
    os << metric << "_max " << h.hist->max_observed() << "\n";
  });
  return os.str();
}

bool write_metrics_files(const MetricsSnapshot& s,
                         const std::string& json_path) {
  const auto write = [](const std::string& path, const std::string& text) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const bool ok = std::fputs(text.c_str(), f) >= 0;
    return std::fclose(f) == 0 && ok;
  };
  return write(json_path, to_json(s)) &&
         write(json_path + ".prom", to_prometheus(s));
}

}  // namespace tmcv::obs

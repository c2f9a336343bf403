// Load driver for the KV-cache server (src/apps/kv/): N client threads,
// one connection each, issuing a zipfian get/set mix in pipelined windows.
//
// Pipelining is the point.  One request per round trip measures the
// kernel's wakeup latency, not the server; real cache clients batch.  Each
// thread renders `window` requests into one buffer, writes it with a single
// send, then reads until the matching number of response lines arrives.
// Window round-trip times land in a shared histogram; per-op latency is the
// amortized rtt/window (recorded per window), which is the honest number
// for a pipelined protocol -- EXPERIMENTS.md spells out the methodology.
//
// Default mode embeds the server in-process (same container, loopback TCP
// still on the path) so one command produces BENCH_kvserver.json with
// exact post-run store statistics and conflict attribution:
//
//   kv_loadgen --json BENCH_kvserver.json
//
// `--connect PORT` drives an external tmcv_kv_server instead (no store
// stats / attribution in the JSON; the telemetry endpoint has them).
// `--serve-metrics[=PORT]` (embedded mode) starts the live endpoint;
// `--hold-ms=N` keeps the process alive after the run so CI can curl
// /profile at quiescence, when conflicts_recorded == aborts_conflict
// exactly.  `--storm-ms=N` injects a deterministic abort storm for the
// first N ms (self-aborting transactions, see run_storm) on any backend --
// the watchdog-smoke CI job uses it to prove the abort-storm alert fires
// and clears against live traffic.
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "apps/kv/kv_server.h"
#include "obs/attribution.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "tm/api.h"
#include "tm/descriptor.h"
#include "tm/var.h"
#include "util/net.h"
#include "util/rng.h"
#include "util/timing.h"
#include "util/zipf.h"

namespace {

using tmcv::obs::HistogramSnapshot;

struct Config {
  int connect_port = -1;  // >= 0: external server
  unsigned conns = 8;
  unsigned server_workers = 8;
  std::size_t keys = 65536;
  double theta = 0.9;
  unsigned get_pct = 90;
  std::size_t window = 128;
  std::size_t ops_per_conn = 250000;
  std::uint64_t seed = 42;
  std::size_t shards = 8;       // embedded server store geometry
  std::size_t capacity = 8192;  // per shard
  const char* json_path = nullptr;
  int metrics_port = -1;  // embedded only; -1 off
  long hold_ms = 0;
  long history_ms = 0;            // 0: recorder off
  bool watchdog = false;          // SLO watchdog on default rules
  const char* watchdog_dump = nullptr;  // flight dump path on alert fire
  double watchdog_abort_ratio = -1.0;   // override abort-storm threshold
  long storm_ms = 0;              // injected abort storm duration; 0: off
  const char* backend = nullptr;  // --backend=NAME
};

struct ClientResult {
  std::uint64_t ops = 0;
  std::uint64_t gets = 0;
  std::uint64_t sets = 0;
  std::uint64_t windows = 0;
  bool ok = false;
};

// One client thread: pipelined zipfian load over its own connection.
void run_client(const Config& cfg, std::uint16_t port, unsigned id,
                const std::vector<std::string>& key_names,
                tmcv::obs::LatencyHistogram& window_rtt,
                tmcv::obs::LatencyHistogram& op_latency, ClientResult& out) {
  const int fd = tmcv::connect_loopback(port);
  if (fd < 0) {
    std::perror("kv_loadgen: connect");
    return;
  }
  tmcv::set_tcp_nodelay(fd);
  tmcv::Xoshiro256 rng(cfg.seed * 0x9e3779b97f4a7c15ull + id);
  const tmcv::ZipfDistribution zipf(cfg.keys, cfg.theta);

  std::string req;
  req.reserve(cfg.window * 24);
  char resp[65536];
  std::uint64_t value_tick = id;
  std::size_t remaining = cfg.ops_per_conn;
  while (remaining > 0) {
    const std::size_t batch = remaining < cfg.window ? remaining : cfg.window;
    req.clear();
    std::size_t batch_gets = 0;
    for (std::size_t i = 0; i < batch; ++i) {
      const std::string& key = key_names[zipf(rng)];
      // next_double() in [0,1): get_pct percent gets, the rest sets.
      if (rng.next_double() * 100.0 < static_cast<double>(cfg.get_pct)) {
        req.append("get ", 4);
        req.append(key);
        req.push_back('\n');
        ++batch_gets;
      } else {
        req.append("set ", 4);
        req.append(key);
        req.push_back(' ');
        req.append(std::to_string(value_tick += cfg.conns));
        req.push_back('\n');
      }
    }
    const tmcv::Stopwatch sw;
    if (!tmcv::send_all(fd, req.data(), req.size())) {
      std::perror("kv_loadgen: send");
      ::close(fd);
      return;
    }
    // Count response lines until the whole window has been answered.
    std::size_t lines = 0;
    while (lines < batch) {
      const ssize_t n = ::recv(fd, resp, sizeof resp, 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        std::fprintf(stderr, "kv_loadgen: connection lost mid-window\n");
        ::close(fd);
        return;
      }
      for (ssize_t i = 0; i < n; ++i)
        if (resp[i] == '\n') ++lines;
    }
    const std::uint64_t rtt = sw.elapsed_nanos();
    window_rtt.record(rtt);
    op_latency.record(rtt / batch);
    out.windows += 1;
    out.ops += batch;
    out.gets += batch_gets;
    out.sets += batch - batch_gets;
    remaining -= batch;
  }
  ::close(fd);
  out.ok = true;
}

// --storm-ms: the injected abort storm.  A sidecar thread hammers a private
// hot region with transactions that self-abort (tm::retry_txn) on their
// first attempt, so every iteration is one Explicit abort plus one commit.
// That makes the storm deterministic on any machine and any backend:
// conflict aborts need two transactions racing (scheduler luck on a
// single-core box), a self-abort is structural.  The watchdog's abort-storm
// rule sees the ratio spike within two sampling periods, and clears after
// the deadline passes, when only the well-behaved zipfian KV traffic is
// left running.
void run_storm(long storm_ms) {
  constexpr int kStormWrites = 96;
  std::vector<std::unique_ptr<tmcv::tm::var<std::uint64_t>>> region;
  region.reserve(kStormWrites);
  for (int i = 0; i < kStormWrites; ++i)
    region.push_back(std::make_unique<tmcv::tm::var<std::uint64_t>>(0));
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(storm_ms);
  std::uint64_t tick = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    bool aborted = false;  // plain local: survives the rollback
    tmcv::tm::atomically([&] {
      TMCV_TXN_SITE("kv_loadgen.storm");
      for (auto& v : region) v->store(tick);
      if (!aborted) {
        aborted = true;
        tmcv::tm::retry_txn();
      }
    });
    ++tick;
  }
}

void append_hist(std::string& json, const char* name,
                 const HistogramSnapshot& h, const char* indent) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s\"%s\": {\"p50\": %" PRIu64 ", \"p99\": %" PRIu64
                ", \"p999\": %" PRIu64 ", \"mean\": %.1f, \"count\": %" PRIu64
                "}",
                indent, name, h.percentile(0.50), h.percentile(0.99),
                h.percentile(0.999), h.mean(), h.count);
  json.append(buf);
}

int parse_args(int argc, char** argv, Config& cfg) {
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const auto next_long = [&](long& out) {
      if (i + 1 >= argc) return false;
      out = std::atol(argv[++i]);
      return true;
    };
    long v = 0;
    if (std::strcmp(a, "--connect") == 0 && next_long(v)) {
      cfg.connect_port = static_cast<int>(v);
    } else if (std::strcmp(a, "--conns") == 0 && next_long(v)) {
      cfg.conns = static_cast<unsigned>(v);
    } else if (std::strcmp(a, "--server-workers") == 0 && next_long(v)) {
      cfg.server_workers = static_cast<unsigned>(v);
    } else if (std::strcmp(a, "--keys") == 0 && next_long(v)) {
      cfg.keys = static_cast<std::size_t>(v);
    } else if (std::strcmp(a, "--theta") == 0 && i + 1 < argc) {
      cfg.theta = std::atof(argv[++i]);
    } else if (std::strcmp(a, "--get-pct") == 0 && next_long(v)) {
      cfg.get_pct = static_cast<unsigned>(v);
    } else if (std::strcmp(a, "--window") == 0 && next_long(v)) {
      cfg.window = static_cast<std::size_t>(v);
    } else if (std::strcmp(a, "--ops") == 0 && next_long(v)) {
      cfg.ops_per_conn = static_cast<std::size_t>(v);
    } else if (std::strcmp(a, "--seed") == 0 && next_long(v)) {
      cfg.seed = static_cast<std::uint64_t>(v);
    } else if (std::strcmp(a, "--shards") == 0 && next_long(v)) {
      cfg.shards = static_cast<std::size_t>(v);
    } else if (std::strcmp(a, "--capacity") == 0 && next_long(v)) {
      cfg.capacity = static_cast<std::size_t>(v);
    } else if (std::strcmp(a, "--json") == 0) {
      cfg.json_path = "BENCH_kvserver.json";
      if (i + 1 < argc && argv[i + 1][0] != '-') cfg.json_path = argv[++i];
    } else if (std::strcmp(a, "--serve-metrics") == 0) {
      cfg.metrics_port = 0;
    } else if (std::strncmp(a, "--serve-metrics=", 16) == 0) {
      cfg.metrics_port = std::atoi(a + 16);
    } else if (std::strncmp(a, "--hold-ms=", 10) == 0) {
      cfg.hold_ms = std::atol(a + 10);
    } else if (std::strcmp(a, "--history") == 0) {
      cfg.history_ms = 1000;
    } else if (std::strncmp(a, "--history=", 10) == 0) {
      cfg.history_ms = std::atol(a + 10);
      if (cfg.history_ms <= 0) cfg.history_ms = 1000;
    } else if (std::strcmp(a, "--watchdog") == 0) {
      cfg.watchdog = true;
    } else if (std::strncmp(a, "--watchdog=", 11) == 0) {
      cfg.watchdog = true;
      cfg.watchdog_dump = a + 11;
    } else if (std::strncmp(a, "--watchdog-abort-ratio=", 23) == 0) {
      cfg.watchdog_abort_ratio = std::atof(a + 23);
    } else if (std::strncmp(a, "--storm-ms=", 11) == 0) {
      cfg.storm_ms = std::atol(a + 11);
    } else if (std::strncmp(a, "--backend=", 10) == 0) {
      cfg.backend = a + 10;
    } else {
      std::fprintf(
          stderr,
          "usage: %s [--connect PORT] [--conns N] [--server-workers N]\n"
          "          [--keys N] [--theta F] [--get-pct N] [--window N]\n"
          "          [--ops N-per-conn] [--seed N] [--shards N]\n"
          "          [--capacity N] [--json [PATH]]\n"
          "          [--serve-metrics[=PORT]] [--hold-ms=N]\n"
          "          [--history[=MS]] [--watchdog[=DUMP.json]]\n"
          "          [--watchdog-abort-ratio=F] [--storm-ms=N]\n"
          "          [--backend=eager|htm|norec]\n",
          argv[0]);
      return 2;
    }
  }
  if (cfg.conns == 0 || cfg.window == 0 || cfg.keys == 0 ||
      cfg.get_pct > 100) {
    std::fprintf(stderr, "kv_loadgen: invalid configuration\n");
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  if (const int rc = parse_args(argc, argv, cfg); rc != 0) return rc;

  if (cfg.backend != nullptr) {
    tmcv::tm::Backend b{};
    if (!tmcv::tm::backend_from_label(cfg.backend, b)) {
      std::fprintf(stderr, "kv_loadgen: unknown --backend '%s'\n",
                   cfg.backend);
      return 2;
    }
    tmcv::tm::set_default_backend(b);
  }

  // Observability stack, outermost first: the watchdog needs history to
  // ride on, and judges latency + attribution signals, so it turns those
  // capture layers on (trace too, so an alert-triggered flight dump has
  // ring contents to serialize).
  if (cfg.watchdog && cfg.history_ms == 0) cfg.history_ms = 1000;
  if (cfg.watchdog) {
    tmcv::obs::set_timing_enabled(true);
    tmcv::obs::set_trace_enabled(true);
    tmcv::obs::set_attribution_enabled(true);
  }
  if (cfg.history_ms > 0) {
    tmcv::obs::TimeSeriesOptions ts;
    ts.interval_ms = static_cast<std::uint32_t>(cfg.history_ms);
    tmcv::obs::timeseries().start(ts);
  }
  if (cfg.watchdog) {
    std::vector<tmcv::obs::WatchdogRule> rules = tmcv::obs::default_rules();
    if (cfg.watchdog_abort_ratio >= 0.0) {
      for (tmcv::obs::WatchdogRule& r : rules)
        if (r.kind == tmcv::obs::RuleKind::kAbortStorm)
          r.threshold = cfg.watchdog_abort_ratio;
    }
    tmcv::obs::watchdog().start(
        std::move(rules),
        cfg.watchdog_dump != nullptr ? cfg.watchdog_dump : "");
  }

  const bool embedded = cfg.connect_port < 0;
  tmcv::apps::kv::KvServer server;
  std::uint16_t port = 0;
  if (embedded) {
    tmcv::obs::set_attribution_enabled(true);  // exact conflict pairs
    tmcv::apps::kv::KvOptions sopts;
    sopts.port = 0;
    sopts.workers = cfg.server_workers;
    sopts.shards = cfg.shards;
    sopts.capacity_per_shard = cfg.capacity;
    sopts.buckets_per_shard = cfg.capacity;  // ~1 node per bucket when full
    sopts.metrics_port = cfg.metrics_port;
    if (!server.start(sopts)) {
      std::fprintf(stderr, "kv_loadgen: embedded server start failed: %s\n",
                   std::strerror(errno));
      return 1;
    }
    port = server.port();
    std::printf("kv-server listening on 127.0.0.1:%u (%u workers)\n", port,
                cfg.server_workers);
    if (cfg.metrics_port >= 0)
      std::printf("kv-server metrics on http://127.0.0.1:%u/metrics.json\n",
                  server.metrics_port());
    std::fflush(stdout);
  } else {
    port = static_cast<std::uint16_t>(cfg.connect_port);
  }

  // Key strings rendered once; every thread shares the read-only table.
  std::vector<std::string> key_names;
  key_names.reserve(cfg.keys);
  for (std::size_t i = 0; i < cfg.keys; ++i) {
    char kb[24];
    std::snprintf(kb, sizeof kb, "k%zu", i);
    key_names.emplace_back(kb);
  }

  const tmcv::obs::MetricsSnapshot before = tmcv::obs::metrics_snapshot();
  tmcv::obs::LatencyHistogram window_rtt;
  tmcv::obs::LatencyHistogram op_latency;
  std::vector<ClientResult> results(cfg.conns);
  std::vector<std::thread> clients;
  clients.reserve(cfg.conns);
  const tmcv::Stopwatch wall;
  std::thread storm;
  if (cfg.storm_ms > 0) {
    std::printf("kv_loadgen: injecting abort storm for %ld ms\n",
                cfg.storm_ms);
    std::fflush(stdout);
    storm = std::thread(run_storm, cfg.storm_ms);
  }
  for (unsigned c = 0; c < cfg.conns; ++c)
    clients.emplace_back(run_client, std::cref(cfg), port, c,
                         std::cref(key_names), std::ref(window_rtt),
                         std::ref(op_latency), std::ref(results[c]));
  for (auto& t : clients) t.join();
  if (storm.joinable()) storm.join();
  const double secs = wall.elapsed_seconds();

  std::uint64_t total_ops = 0;
  std::uint64_t total_gets = 0;
  std::uint64_t total_sets = 0;
  bool all_ok = true;
  for (const ClientResult& r : results) {
    total_ops += r.ops;
    total_gets += r.gets;
    total_sets += r.sets;
    all_ok = all_ok && r.ok;
  }
  if (!all_ok || total_ops == 0) {
    std::fprintf(stderr, "kv_loadgen: a client failed; no result written\n");
    return 1;
  }
  const double ops_per_sec = static_cast<double>(total_ops) / secs;
  std::printf("kv_loadgen: %" PRIu64 " ops in %.3fs = %.0f ops/s "
              "(%u conns, window %zu, theta %.2f, %u%% get)\n",
              total_ops, secs, ops_per_sec, cfg.conns, cfg.window, cfg.theta,
              cfg.get_pct);

  if (cfg.json_path != nullptr) {
    // Diff the registry: TM activity and conflict attribution attributable
    // to this run.
    const tmcv::obs::MetricsSnapshot after = tmcv::obs::metrics_snapshot();
    const tmcv::obs::MetricsSnapshot delta =
        tmcv::obs::metrics_delta(after, before);
    std::string json;
    json.reserve(4096);
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "{\n"
        "  \"benchmark\": \"kv_loadgen\",\n"
        "  \"mode\": \"%s\",\n"
        "  \"conns\": %u,\n"
        "  \"server_workers\": %u,\n"
        "  \"keys\": %zu,\n"
        "  \"theta\": %.2f,\n"
        "  \"get_pct\": %u,\n"
        "  \"window\": %zu,\n"
        "  \"ops_per_conn\": %zu,\n"
        "  \"seed\": %" PRIu64 ",\n"
        "  \"ops\": %" PRIu64 ",\n"
        "  \"gets\": %" PRIu64 ",\n"
        "  \"sets\": %" PRIu64 ",\n"
        "  \"elapsed_sec\": %.3f,\n"
        "  \"ops_per_sec\": %.0f,\n",
        embedded ? "embedded" : "external", cfg.conns, cfg.server_workers,
        cfg.keys, cfg.theta, cfg.get_pct, cfg.window, cfg.ops_per_conn,
        cfg.seed, total_ops, total_gets, total_sets, secs, ops_per_sec);
    json.append(buf);
    append_hist(json, "op_latency_ns", op_latency.snapshot(), "  ");
    json.append(",\n");
    append_hist(json, "window_rtt_ns", window_rtt.snapshot(), "  ");
    json.append(",\n");
    std::snprintf(buf, sizeof buf,
                  "  \"commits\": %" PRIu64 ",\n  \"aborts\": %" PRIu64
                  ",\n  \"aborts_conflict\": %" PRIu64
                  ",\n  \"abort_commit_ratio\": %.6f,\n",
                  delta.tm.commits, delta.tm.aborts, delta.tm.aborts_conflict(),
                  delta.tm.commits
                      ? static_cast<double>(delta.tm.aborts) /
                            static_cast<double>(delta.tm.commits)
                      : 0.0);
    json.append(buf);
    if (embedded) {
      const tmcv::tmds::LruStats st = server.store_stats();
      std::snprintf(buf, sizeof buf,
                    "  \"store\": {\"hits\": %" PRIu64 ", \"misses\": %" PRIu64
                    ", \"evictions\": %" PRIu64 ", \"size\": %" PRIu64 "},\n",
                    st.hits, st.misses, st.evictions, st.size);
      json.append(buf);
    }
    // Every attribution entry of the run (quiescent: conflicts_recorded
    // equals aborts_conflict when nothing was dropped).
    json.append("  \"attribution\": ");
    json.append(tmcv::obs::attribution_json(delta.attribution, 0));
    json.append("\n}\n");
    std::FILE* f = std::fopen(cfg.json_path, "w");
    if (f == nullptr) {
      std::perror("kv_loadgen: fopen");
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", cfg.json_path);
    std::fflush(stdout);
  }

  if (cfg.hold_ms > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(cfg.hold_ms));
  if (embedded) server.stop();
  if (cfg.watchdog) tmcv::obs::watchdog().stop();
  if (cfg.history_ms > 0) tmcv::obs::timeseries().stop();
  return 0;
}

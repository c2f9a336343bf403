// Standalone KV-cache server binary.
//
//   tmcv_kv_server [--port N] [--workers N] [--shards N] [--capacity N]
//                  [--buckets N] [--serve-metrics[=PORT]] [--history[=MS]]
//                  [--watchdog] [--dump-on-exit=PATH] [--backend=NAME]
//
// Prints the bound data port (and metrics port when enabled) on stdout,
// then runs until SIGINT/SIGTERM.  Port 0 (the default) asks the kernel
// for a free port -- scripts parse the "listening on" line.
//
// Shutdown is graceful and talkative: SIGINT/SIGTERM stops accepting,
// drains the workers (KvServer::stop joins every thread), then prints a
// final metrics + attribution summary -- or writes a full flight-recorder
// dump when --dump-on-exit was given.  SIGUSR2 writes a flight dump
// mid-run (to the --dump-on-exit path, or ./kv_flight.json) and keeps
// serving.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "apps/kv/kv_server.h"
#include "tm/api.h"
#include "obs/attribution.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/watchdog.h"
#include "util/cpu.h"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--workers N] [--shards N]\n"
               "          [--capacity N] [--buckets N] [--serve-metrics[=PORT]]\n"
               "          [--history[=MS]] [--watchdog] [--dump-on-exit=PATH]\n"
               "  --port N           data port (default 0 = kernel-assigned)\n"
               "  --workers N        worker threads (default: online CPUs)\n"
               "  --shards N         store shards, power of two (default 8)\n"
               "  --capacity N       entries per shard (default 4096)\n"
               "  --buckets N        hash buckets per shard, power of two "
               "(default 4096)\n"
               "  --serve-metrics    telemetry endpoint (PORT omitted or 0: "
               "ephemeral)\n"
               "  --history[=MS]     time-series recorder, MS ms cadence "
               "(default 1000)\n"
               "  --watchdog         SLO watchdog on default rules (implies "
               "--history)\n"
               "  --watchdog-abort-ratio=F  override the abort-storm "
               "threshold (smoke tests)\n"
               "  --dump-on-exit=P   write a flight dump to P at shutdown "
               "(and on alert/SIGUSR2)\n"
               "  --backend=NAME     TM backend: "
               "eager|lazy|htm|hybrid|norec\n",
               argv0);
}

bool parse_unsigned(const char* s, long& out) {
  char* end = nullptr;
  out = std::strtol(s, &end, 10);
  return end != s && *end == '\0' && out >= 0;
}

// The human-readable shutdown report: the registry headline plus the top
// conflict pairs, so an operator killing the server still learns where the
// contention was without having enabled the telemetry endpoint.
void print_final_summary() {
  const tmcv::obs::MetricsSnapshot s = tmcv::obs::metrics_snapshot();
  std::printf("kv-server final: commits=%llu aborts=%llu (conflict=%llu "
              "capacity=%llu) serial_fallbacks=%llu\n",
              static_cast<unsigned long long>(s.tm.commits),
              static_cast<unsigned long long>(s.tm.aborts),
              static_cast<unsigned long long>(s.tm.aborts_conflict()),
              static_cast<unsigned long long>(s.tm.aborts_capacity()),
              static_cast<unsigned long long>(s.tm.serial_fallbacks));
  std::printf("kv-server final: cv_waits=%llu threads_woken=%llu parks=%llu "
              "parks_avoided=%llu\n",
              static_cast<unsigned long long>(s.cv.waits),
              static_cast<unsigned long long>(s.cv.threads_woken),
              static_cast<unsigned long long>(s.wake.parks),
              static_cast<unsigned long long>(s.wake.parks_avoided));
  for (const tmcv::obs::AppCounter& ac : s.app)
    std::printf("kv-server final: %s=%llu\n", ac.name.c_str(),
                static_cast<unsigned long long>(ac.value));
  if (!s.attribution.conflict_pairs.empty()) {
    std::printf("kv-server final: top conflict pairs (victim <- attacker):\n");
    std::size_t shown = 0;
    for (const tmcv::obs::AttrEntry& e : s.attribution.conflict_pairs) {
      if (shown++ == 5) break;
      std::printf("  %-12s <- %-12s %llu\n",
                  tmcv::obs::site_name(tmcv::obs::attr_pair_victim(e.key)),
                  tmcv::obs::site_name(tmcv::obs::attr_pair_attacker(e.key)),
                  static_cast<unsigned long long>(e.count));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  tmcv::apps::kv::KvOptions opts;
  opts.workers = tmcv::effective_cpus();
  long history_ms = 0;  // 0: off
  bool watchdog_on = false;
  double abort_ratio = -1.0;  // < 0: keep the default rule
  std::string dump_path;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    long value = 0;
    const auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (std::strcmp(arg, "--port") == 0) {
      const char* v = next();
      if (v == nullptr || !parse_unsigned(v, value) || value > 65535) {
        usage(argv[0]);
        return 2;
      }
      opts.port = static_cast<std::uint16_t>(value);
    } else if (std::strcmp(arg, "--workers") == 0) {
      const char* v = next();
      if (v == nullptr || !parse_unsigned(v, value) || value < 1) {
        usage(argv[0]);
        return 2;
      }
      opts.workers = static_cast<unsigned>(value);
    } else if (std::strcmp(arg, "--shards") == 0) {
      const char* v = next();
      if (v == nullptr || !parse_unsigned(v, value) || value < 1) {
        usage(argv[0]);
        return 2;
      }
      opts.shards = static_cast<std::size_t>(value);
    } else if (std::strcmp(arg, "--capacity") == 0) {
      const char* v = next();
      if (v == nullptr || !parse_unsigned(v, value) || value < 1) {
        usage(argv[0]);
        return 2;
      }
      opts.capacity_per_shard = static_cast<std::size_t>(value);
    } else if (std::strcmp(arg, "--buckets") == 0) {
      const char* v = next();
      if (v == nullptr || !parse_unsigned(v, value) || value < 1) {
        usage(argv[0]);
        return 2;
      }
      opts.buckets_per_shard = static_cast<std::size_t>(value);
    } else if (std::strcmp(arg, "--serve-metrics") == 0) {
      opts.metrics_port = 0;
    } else if (std::strncmp(arg, "--serve-metrics=", 16) == 0) {
      if (!parse_unsigned(arg + 16, value) || value > 65535) {
        usage(argv[0]);
        return 2;
      }
      opts.metrics_port = static_cast<int>(value);
    } else if (std::strcmp(arg, "--history") == 0) {
      history_ms = 1000;
    } else if (std::strncmp(arg, "--history=", 10) == 0) {
      if (!parse_unsigned(arg + 10, value) || value < 1) {
        usage(argv[0]);
        return 2;
      }
      history_ms = value;
    } else if (std::strcmp(arg, "--watchdog") == 0) {
      watchdog_on = true;
    } else if (std::strncmp(arg, "--watchdog-abort-ratio=", 23) == 0) {
      abort_ratio = std::atof(arg + 23);
    } else if (std::strncmp(arg, "--backend=", 10) == 0) {
      tmcv::tm::Backend backend{};
      if (!tmcv::tm::backend_from_label(arg + 10, backend)) {
        usage(argv[0]);
        return 2;
      }
      tmcv::tm::set_default_backend(backend);
    } else if (std::strncmp(arg, "--dump-on-exit=", 15) == 0) {
      dump_path = arg + 15;
      if (dump_path.empty()) {
        usage(argv[0]);
        return 2;
      }
    } else {
      usage(argv[0]);
      return 2;
    }
  }

  // The watchdog judges abort ratios and wake latency, so it needs the
  // timing + attribution layers live (and trace, so an alert-triggered
  // flight dump carries ring contents), plus history to ride on.
  if (watchdog_on && history_ms == 0) history_ms = 1000;
  if (watchdog_on) {
    tmcv::obs::set_timing_enabled(true);
    tmcv::obs::set_trace_enabled(true);
    tmcv::obs::set_attribution_enabled(true);
  }
  if (history_ms > 0) {
    tmcv::obs::TimeSeriesOptions ts;
    ts.interval_ms = static_cast<std::uint32_t>(history_ms);
    tmcv::obs::timeseries().start(ts);
  }
  if (watchdog_on) {
    std::vector<tmcv::obs::WatchdogRule> rules = tmcv::obs::default_rules();
    if (abort_ratio >= 0.0)
      for (tmcv::obs::WatchdogRule& r : rules)
        if (r.kind == tmcv::obs::RuleKind::kAbortStorm)
          r.threshold = abort_ratio;
    tmcv::obs::watchdog().start(std::move(rules), dump_path);
  }

  // Block the shutdown signals BEFORE spawning any thread: the mask is
  // inherited, so a process-directed SIGINT/SIGTERM can only be consumed
  // by the sigwait loop below.  Masking after start() would leave every
  // worker eligible for delivery, and the default disposition would kill
  // the process without draining (no final summary, no exit flight dump).
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  sigaddset(&set, SIGUSR2);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);

  tmcv::apps::kv::KvServer server;
  if (!server.start(opts)) {
    std::fprintf(stderr, "tmcv_kv_server: start failed: %s\n",
                 std::strerror(errno));
    return 1;
  }
  std::printf("kv-server listening on 127.0.0.1:%u (%u workers, %zu shards)\n",
              server.port(), opts.workers, opts.shards);
  if (opts.metrics_port >= 0)
    std::printf("kv-server metrics on http://127.0.0.1:%u/metrics.json\n",
                server.metrics_port());
  std::fflush(stdout);

  // Park until SIGINT/SIGTERM (sigwait: no handler-safety concerns).
  // SIGUSR2 dumps the flight recorder and keeps serving.
  for (;;) {
    int sig = 0;
    sigwait(&set, &sig);
    if (sig == SIGUSR2) {
      const std::string path =
          dump_path.empty() ? std::string("kv_flight.json") : dump_path;
      tmcv::obs::FlightDumpOptions fo;
      fo.reason = "signal";
      const bool ok = tmcv::obs::flight_dump(path, fo);
      std::printf("kv-server: SIGUSR2, flight dump %s: %s\n", path.c_str(),
                  ok ? "written" : std::strerror(errno));
      std::fflush(stdout);
      continue;
    }
    std::printf("kv-server: signal %d, draining\n", sig);
    std::fflush(stdout);
    break;
  }

  // Graceful: stop() closes the listener first, so no new connections are
  // accepted while workers drain in-flight batches, then joins everything.
  // The exit dump is written after the drain (quiescent counters: recorded
  // conflicts equal aborts_conflict exactly) but BEFORE the recorder and
  // watchdog stop, so it captures the live history window and alert states.
  server.stop();

  if (!dump_path.empty()) {
    tmcv::obs::FlightDumpOptions fo;
    fo.reason = "exit";
    if (tmcv::obs::flight_dump(dump_path, fo))
      std::printf("kv-server: flight dump written to %s\n", dump_path.c_str());
    else
      std::fprintf(stderr, "kv-server: flight dump failed: %s\n",
                   std::strerror(errno));
  } else {
    print_final_summary();
  }
  tmcv::obs::watchdog().stop();
  tmcv::obs::timeseries().stop();
  return 0;
}

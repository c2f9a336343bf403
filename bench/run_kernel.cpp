// CLI driver for individual PARSEC mini-kernels: run one (kernel, system,
// backend, threads) cell of the evaluation grid, with TM statistics.
//
//   run_kernel <kernel> [--system pthread|tmcv|tm] [--threads N]
//              [--backend eager|htm|norec] [--scale X]
//              [--trials N]
//              [--trace out.json] [--metrics out.json]
//              [--serve-metrics PORT] [--hold-ms N]
//   run_kernel --list
//
// --trace writes a Chrome trace-event JSON (open in Perfetto) of condvar,
// transaction and semaphore events; --metrics writes the unified metrics
// registry snapshot as JSON plus a Prometheus-text sibling (<path>.prom).
// --serve-metrics starts the live telemetry endpoint (core/c_api.h) for the
// run (PORT 0 = ephemeral); --hold-ms keeps it up N ms after the trials so
// an external scraper can read the final counters.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "core/c_api.h"
#include "obs/trace.h"
#include "parsec/runner.h"
#include "tm/api.h"
#include "util/stats.h"

namespace {

using namespace tmcv;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <kernel> [--system pthread|tmcv|tm] [--threads N]\n"
               "          [--backend eager|htm|norec] [--scale X]\n"
               "          [--trials N] [--trace out.json] [--metrics out.json]\n"
               "          [--serve-metrics PORT] [--hold-ms N]\n"
               "       %s --list\n",
               argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "--list") == 0) {
    // Bare invocation (e.g. from `for b in build/bench/*; do $b; done`):
    // list the kernels and point at the flags.
    std::printf("available kernels:\n");
    for (const parsec::KernelInfo& k : parsec::kernels())
      std::printf("  %s\n", k.name.c_str());
    std::printf("\nrun one with: %s <kernel> --system tm --threads 4 "
                "--backend htm\n", argv[0]);
    return 0;
  }

  const parsec::KernelInfo* kernel = parsec::find_kernel(argv[1]);
  if (kernel == nullptr) {
    std::fprintf(stderr, "unknown kernel '%s' (try --list)\n", argv[1]);
    return 2;
  }

  parsec::System system = parsec::System::Pthread;
  tm::Backend backend = tm::default_backend();
  parsec::KernelConfig cfg;
  parsec::ObsOutputs obs_out;
  int trials = 3;
  bool serve = false;
  int serve_port = 0;
  long hold_ms = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--system") {
      const std::string v = next();
      if (v == "pthread")
        system = parsec::System::Pthread;
      else if (v == "tmcv")
        system = parsec::System::TmCv;
      else if (v == "tm")
        system = parsec::System::Tm;
      else
        return usage(argv[0]);
    } else if (arg == "--backend") {
      if (!tm::backend_from_label(next(), backend)) return usage(argv[0]);
    } else if (arg == "--threads") {
      cfg.threads = std::atoi(next());
    } else if (arg == "--scale") {
      cfg.scale = std::atof(next());
    } else if (arg == "--trials") {
      trials = std::atoi(next());
    } else if (arg == "--trace") {
      obs_out.trace_path = next();
    } else if (arg == "--metrics") {
      obs_out.metrics_path = next();
    } else if (arg == "--serve-metrics") {
      serve = true;
      serve_port = std::atoi(next());
    } else if (arg == "--hold-ms") {
      hold_ms = std::atol(next());
    } else {
      return usage(argv[0]);
    }
  }

  tm::set_default_backend(backend);
  tm::stats_reset();
  obs_out.enable();
  if (serve) {
    obs::set_attribution_enabled(true);
    const int port = tmcv_telemetry_start(serve_port);
    if (port < 0) {
      std::fprintf(stderr, "failed to start telemetry on port %d\n",
                   serve_port);
      return 1;
    }
    std::printf("telemetry: http://127.0.0.1:%d/metrics\n", port);
    std::fflush(stdout);
  }
  std::printf("%s / %s / backend=%s / threads=%d / scale=%.2f\n",
              kernel->name.c_str(), parsec::to_string(system),
              tm::to_string(backend), cfg.threads, cfg.scale);
  std::uint64_t checksum = 0;
  const auto times = run_trials(static_cast<std::size_t>(trials), [&] {
    const parsec::KernelResult r = kernel->run(system, cfg);
    checksum = r.checksum;
    return r.seconds;
  });
  const Summary s = summarize(times);
  std::printf("time: %.4f s (+- %.4f over %d trials)  checksum: %016llx\n",
              s.mean, s.stddev, trials,
              static_cast<unsigned long long>(checksum));
  std::printf("tm:   %s\n", tm::stats_snapshot().to_string().c_str());
  if (obs_out.any() && !obs_out.write()) {
    std::fprintf(stderr, "failed to write observability outputs\n");
    return 1;
  }
  if (!obs_out.trace_path.empty())
    std::printf("trace:   %s (load in Perfetto / chrome://tracing)\n",
                obs_out.trace_path.c_str());
  if (!obs_out.metrics_path.empty())
    std::printf("metrics: %s (+ .prom)\n", obs_out.metrics_path.c_str());
  if (serve) {
    if (hold_ms > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(hold_ms));
    tmcv_telemetry_stop();
  }
  return 0;
}

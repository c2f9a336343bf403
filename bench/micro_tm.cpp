// Microbenchmark: the contended write-heavy zipfian TM profile -- the
// contention-path anchor behind "the use of transactions in the
// implementation" that §5.4 shows to be negligible.
//
// `--json-contended [path]` runs it standalone and writes the result JSON
// (ops/sec, abort/commit ratio, abort reasons, contention-manager counters)
// plus a `.metrics.json` observability-registry sibling (+ .prom) whose
// attribution window matches the JSON's, so its conflict-pair counts sum to
// tm.aborts_conflict.
//
// `--serve-metrics[=PORT]` additionally starts the live telemetry endpoint
// (core/c_api.h) for the duration of the run; `--hold-ms=N` keeps it up N ms
// after the workload finishes so external scrapers can read the final
// counters.  `--history[=MS]` runs the time-series recorder and
// `--watchdog` the SLO rules on top of it (see obs/watchdog.h).
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/c_api.h"
#include "obs/attribution.h"
#include "tm/algs/adaptive.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "tm/api.h"
#include "tm/var.h"
#include "util/timing.h"
#include "util/zipf.h"

namespace {

using namespace tmcv::tm;

// --backend=NAME from the command line: the JSON header reports the chosen
// label.
struct BackendChoice {
  bool set = false;
  const char* label = nullptr;
};
BackendChoice g_backend_choice;

// BENCH_foo.json -> BENCH_foo.metrics.json (registry snapshot sibling).
std::string metrics_path_for(const char* out_path) {
  std::string p(out_path);
  const std::string suffix = ".json";
  if (p.size() > suffix.size() &&
      p.compare(p.size() - suffix.size(), suffix.size(), suffix) == 0)
    p.resize(p.size() - suffix.size());
  return p + ".metrics.json";
}

// ---------------------------------------------------------------------------
// Contended write-heavy zipfian workload (the contention-path anchor)
// ---------------------------------------------------------------------------
//
// Each transaction reads a few zipf-hot stripes (live validation traffic),
// blind-writes a large zipfian write set, and bumps one private counter (the
// serializability canary), so most commits fight over a handful of hot
// stripes: commit-time lock conflicts, clock-line traffic, and validation
// extensions are the dominant costs -- exactly the path the contention
// manager, polite orec acquisition, and the GV4 clock target.  The pick
// sets are pre-drawn per thread so the timed loop measures the TM runtime,
// not the zipf sampler.

constexpr int kCwVars = 64;
constexpr int kCwReads = 4;
// Write sets this large keep a committer inside its commit-time lock window
// for a meaningful slice of each transaction, so on an oversubscribed core
// the scheduler regularly parks a thread mid-acquisition -- the scenario
// that separates abort-on-sight (re-execute everything, repeatedly) from
// polite bounded waiting (yield to the holder once and resume).
constexpr int kCwWrites = 32;  // 1 counter RMW + (kCwWrites - 1) blind stores
constexpr double kCwTheta = 0.9;  // zipf skew: ~35% of draws hit the top 4
constexpr int kCwMaxThreads = 8;
constexpr int kCwPickSets = 256;  // pre-drawn picks cycled per thread
// Every kCwHeavyEvery-th transaction is a large one: kCwHeavyWrites distinct
// words comfortably exceed TxDescriptor::kHtmWriteCapacity (64 stripes), so
// the hybrid hardware path is deterministically doomed for it.  Mixed
// transaction sizes are what real workloads feed a hybrid TM, and they are
// exactly what separates abort-reason triage (one doomed hardware attempt,
// then software) from a blind fixed hardware budget (burn every attempt on
// a transaction that can never fit).
constexpr int kCwHeavyEvery = 32;
constexpr int kCwHeavyWrites = 96;

struct ContendedPickSet {
  int reads[kCwReads];
  int writes[kCwWrites - 1];
};

struct ContendedState {
  std::vector<std::unique_ptr<var<std::uint64_t>>> arr;
  // One private counter per thread: the serializability canary (every
  // committed transaction bumps its own exactly once).
  std::vector<std::unique_ptr<var<std::uint64_t>>> counters;
  // Per-thread large regions for the capacity-busting transactions.
  std::vector<std::vector<std::unique_ptr<var<std::uint64_t>>>> heavy;
  std::vector<std::vector<ContendedPickSet>> picks;  // [thread][set]
  // The shared generator (util/zipf.h): identical draws here and in
  // bench/kv_loadgen, deterministic under a fixed seed.
  tmcv::ZipfDistribution zipf{kCwVars, kCwTheta};
  ContendedState() {
    for (int i = 0; i < kCwVars; ++i)
      arr.push_back(std::make_unique<var<std::uint64_t>>(0));
    for (int t = 0; t < kCwMaxThreads; ++t) {
      counters.push_back(std::make_unique<var<std::uint64_t>>(0));
      std::vector<std::unique_ptr<var<std::uint64_t>>> region;
      for (int w = 0; w < kCwHeavyWrites; ++w)
        region.push_back(std::make_unique<var<std::uint64_t>>(0));
      heavy.push_back(std::move(region));
      tmcv::Xoshiro256 rng(0xC0417EDEDull + t);
      std::vector<ContendedPickSet> sets(kCwPickSets);
      for (auto& ps : sets) {
        for (int& r : ps.reads) r = static_cast<int>(zipf(rng));
        for (int& w : ps.writes) w = static_cast<int>(zipf(rng));
      }
      picks.push_back(std::move(sets));
    }
  }
  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const auto& v : counters) sum += v->load();
    return sum;
  }
};

ContendedState& contended_state() {
  static ContendedState s;
  return s;
}

void contended_txn(ContendedState& s, int tid, int seq) {
  auto* counter = s.counters[tid].get();
  if ((seq + 1) % kCwHeavyEvery == 0) {
    // Heavy transaction: the write set cannot fit in (emulated) hardware,
    // so the hybrid path must discover that and fall back to software.
    auto& region = s.heavy[tid];
    atomically(Backend::Hybrid, [&] {
      TMCV_TXN_SITE("zipf.heavy");
      for (int w = 0; w < kCwHeavyWrites; ++w)
        region[w]->store(static_cast<std::uint64_t>(seq));
      counter->store(counter->load() + 1);
    });
    return;
  }
  // Picks are pre-drawn (outside the transaction), so a retry fights over
  // the same stripe set -- the worst case for naive conflict handling.
  const ContendedPickSet& p = s.picks[tid][seq & (kCwPickSets - 1)];
  atomically(Backend::LazySTM, [&] {
    TMCV_TXN_SITE("zipf.update");
    std::uint64_t acc = 0;
    for (int r = 0; r < kCwReads; ++r) acc += s.arr[p.reads[r]]->load();
    for (int w = 0; w < kCwWrites - 1; ++w)
      s.arr[p.writes[w]]->store(acc + static_cast<std::uint64_t>(w));
    counter->store(counter->load() + 1);
  });
}

double run_contended_once(ContendedState& s, int threads, int txns_per_thread) {
  std::atomic<int> go{0};
  std::vector<std::thread> ts;
  tmcv::Stopwatch sw;
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      go.fetch_add(1);
      while (go.load() < threads) {
      }
      for (int i = 0; i < txns_per_thread; ++i) contended_txn(s, t, i);
    });
  }
  for (auto& th : ts) th.join();
  return static_cast<double>(threads) * txns_per_thread / sw.elapsed_seconds();
}

int run_json_contended_mode(const char* out_path) {
  constexpr int kThreads = 8;
  constexpr int kTxnsPerThread = 20000;
  constexpr int kReps = 5;
  ContendedState& s = contended_state();
  run_contended_once(s, kThreads, kTxnsPerThread / 4);  // warm-up
  const std::uint64_t sum_before = s.total();
  // Attribution covers exactly the post-reset window, so the sibling
  // metrics file demonstrates completeness: the conflict-pair counts sum to
  // tm.aborts_conflict (same window, same counters).
  stats_reset();
  tmcv::obs::attr_reset();
  // TMCV_BENCH_NO_ATTR keeps the recorder off for A/B runs that measure the
  // cost of the compiled-in-but-disabled hooks (same idiom as TMCV_NO_SPIN).
  if (std::getenv("TMCV_BENCH_NO_ATTR") == nullptr)
    tmcv::obs::set_attribution_enabled(true);
  double best = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    const double r = run_contended_once(s, kThreads, kTxnsPerThread);
    if (r > best) best = r;
  }
  // Serializability canary: every committed transaction must have bumped
  // its thread's private counter exactly once, no matter how contended the
  // clock/orec paths were.
  const std::uint64_t expected =
      sum_before +
      static_cast<std::uint64_t>(kReps) * kThreads * kTxnsPerThread;
  if (s.total() != expected) {
    std::fprintf(stderr, "LOST UPDATES: sum=%llu expected=%llu\n",
                 (unsigned long long)s.total(), (unsigned long long)expected);
    return 1;
  }
  tmcv::obs::set_timing_enabled(true);
  run_contended_once(s, kThreads, kTxnsPerThread);
  tmcv::obs::set_timing_enabled(false);
  // Snapshot after the histogram rep so the JSON's abort counters cover the
  // same window as the sibling metrics file -- the completeness contract
  // (attribution.conflicts_recorded == tm.aborts_conflict) then holds
  // across both artifacts, not just within the metrics snapshot.
  const Stats st = stats_snapshot();
  const double attempts =
      static_cast<double>(st.commits) + static_cast<double>(st.aborts);
  std::FILE* f = std::fopen(out_path, "w");
  if (!f) {
    std::perror("fopen");
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"benchmark\": \"micro_tm_contended_zipf\",\n"
               "  \"backend\": \"%s\",\n"
               "  \"spin_budget\": %u,\n"
               "  \"threads\": %d,\n"
               "  \"txns_per_thread\": %d,\n"
               "  \"writes_per_txn\": %d,\n"
               "  \"reads_per_txn\": %d,\n"
               "  \"heavy_every\": %d,\n"
               "  \"heavy_writes\": %d,\n"
               "  \"zipf_vars\": %d,\n"
               "  \"zipf_theta\": %.2f,\n"
               "  \"reps\": %d,\n"
               "  \"ops_per_sec\": %.0f,\n"
               "  \"abort_rate\": %.6f,\n"
               "  \"abort_commit_ratio\": %.6f,\n"
               "  \"commits\": %llu,\n"
               "  \"aborts\": %llu,\n"
               "  \"serial_fallbacks\": %llu,\n"
               "  \"extensions\": %llu,\n"
               "  \"cm_waits\": %llu,\n"
               "  \"cm_backoffs\": %llu,\n"
               "  \"cm_serial_escalations\": %llu,\n"
               "  \"clock_cas_reuses\": %llu,\n"
               "  \"aborts_conflict\": %llu,\n"
               "  \"aborts_capacity\": %llu,\n"
               "  \"aborts_syscall\": %llu,\n"
               "  \"aborts_explicit\": %llu,\n"
               "  \"aborts_retry_wait\": %llu\n"
               "}\n",
               g_backend_choice.set ? g_backend_choice.label
                                    : "LazySTM+Hybrid",
               tmcv_get_spin_budget(), kThreads, kTxnsPerThread, kCwWrites,
               kCwReads, kCwHeavyEvery, kCwHeavyWrites, kCwVars, kCwTheta,
               kReps, best,
               attempts ? static_cast<double>(st.aborts) / attempts : 0.0,
               st.commits ? static_cast<double>(st.aborts) /
                                static_cast<double>(st.commits)
                          : 0.0,
               (unsigned long long)st.commits, (unsigned long long)st.aborts,
               (unsigned long long)st.serial_fallbacks,
               (unsigned long long)st.extensions,
               (unsigned long long)st.cm_waits,
               (unsigned long long)st.cm_backoffs,
               (unsigned long long)st.cm_serial_escalations,
               (unsigned long long)st.clock_cas_reuses,
               (unsigned long long)st.aborts_conflict(),
               (unsigned long long)st.aborts_capacity(),
               (unsigned long long)st.aborts_syscall(),
               (unsigned long long)st.aborts_explicit(),
               (unsigned long long)st.aborts_retry_wait());
  std::fclose(f);
  const std::string mpath = metrics_path_for(out_path);
  if (!tmcv::obs::write_metrics_files(tmcv::obs::metrics_snapshot(), mpath)) {
    std::perror("write_metrics_files");
    return 1;
  }
  std::printf("wrote %s (ops/sec=%.0f, abort/commit=%.3f) and %s\n", out_path,
              best,
              st.commits ? static_cast<double>(st.aborts) /
                               static_cast<double>(st.commits)
                         : 0.0,
              mpath.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Flags:
  //   --json-contended [PATH] run the profile, write PATH (default
  //                           BENCH_micro_tm_contended.json) + its sibling
  //   --serve-metrics[=PORT]  live telemetry endpoint for the whole run
  //                           (PORT 0 / omitted = ephemeral)
  //   --hold-ms=N             keep the process (and the endpoint) alive N ms
  //                           after the run finishes, so an external
  //                           scraper can read the final counters
  //   --history[=MS]          time-series recorder at MS ms cadence (1000)
  //   --watchdog              SLO watchdog on default rules (implies
  //                           --history; enables timing + attribution)
  //   --backend=NAME          eager|lazy|htm|hybrid|norec pins the process
  //                           default (quiesced switch); `auto` runs the
  //                           adaptive controller for the whole run
  bool serve = false;
  int serve_port = 0;
  long hold_ms = 0;
  long history_ms = 0;
  bool watchdog_on = false;
  const char* backend_arg = nullptr;
  bool contended = false;
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--serve-metrics", 15) == 0 &&
        (a[15] == '\0' || a[15] == '=')) {
      serve = true;
      if (a[15] == '=') serve_port = std::atoi(a + 16);
    } else if (std::strncmp(a, "--hold-ms=", 10) == 0) {
      hold_ms = std::atol(a + 10);
    } else if (std::strncmp(a, "--history", 9) == 0 &&
               (a[9] == '\0' || a[9] == '=')) {
      history_ms = a[9] == '=' ? std::atol(a + 10) : 1000;
      if (history_ms <= 0) history_ms = 1000;
    } else if (std::strcmp(a, "--watchdog") == 0) {
      watchdog_on = true;
    } else if (std::strncmp(a, "--backend=", 10) == 0) {
      backend_arg = a + 10;
    } else if (std::strcmp(a, "--json-contended") == 0) {
      contended = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') out_path = argv[++i];
    } else {
      std::fprintf(stderr, "micro_tm: unknown arg '%s'\n", a);
      return 1;
    }
  }
  if (!contended) {
    std::fprintf(stderr,
                 "usage: micro_tm --json-contended [PATH] "
                 "[--backend=NAME] [--serve-metrics[=PORT]] [--hold-ms=N] "
                 "[--history[=MS]] [--watchdog]\n");
    return 1;
  }
  if (backend_arg != nullptr) {
    if (std::strcmp(backend_arg, "auto") == 0) {
      set_backend_auto(true);
      g_backend_choice = {true, "auto"};
    } else {
      Backend b{};
      if (!backend_from_label(backend_arg, b)) {
        std::fprintf(stderr,
                     "micro_tm: unknown --backend '%s' (want "
                     "eager|lazy|htm|hybrid|norec|auto)\n",
                     backend_arg);
        return 1;
      }
      set_backend(b);
      g_backend_choice = {true, backend_label(b)};
    }
  }
  if (serve) {
    tmcv::obs::set_attribution_enabled(true);
    const int port = tmcv_telemetry_start(serve_port);
    if (port < 0) {
      std::fprintf(stderr,
                   "micro_tm: failed to start telemetry on port %d: %s\n",
                   serve_port, std::strerror(errno));
      return 1;
    }
    std::printf("telemetry: http://127.0.0.1:%d/metrics\n", port);
    std::fflush(stdout);
  }
  if (watchdog_on && history_ms == 0) history_ms = 1000;
  if (watchdog_on) {
    tmcv::obs::set_timing_enabled(true);
    tmcv::obs::set_attribution_enabled(true);
  }
  if (history_ms > 0) {
    tmcv::obs::TimeSeriesOptions ts;
    ts.interval_ms = static_cast<std::uint32_t>(history_ms);
    tmcv::obs::timeseries().start(ts);
  }
  if (watchdog_on)
    tmcv::obs::watchdog().start(tmcv::obs::default_rules());
  const int rc = run_json_contended_mode(
      out_path ? out_path : "BENCH_micro_tm_contended.json");
  if (serve) {
    if (hold_ms > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(hold_ms));
    tmcv_telemetry_stop();
  }
  if (watchdog_on) tmcv::obs::watchdog().stop();
  if (history_ms > 0) tmcv::obs::timeseries().stop();
  set_backend_auto(false);  // join the controller if --backend=auto ran
  return rc;
}

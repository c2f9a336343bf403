// Microbenchmarks: TM runtime primitive costs per backend -- the overheads
// behind "the use of transactions in the implementation" that §5.4 shows to
// be negligible for condvar-sized (<10 location) transactions.
//
// Default mode runs the google-benchmark suite (read/dedup counters attached
// to the read-shaped benchmarks).  `--json` instead runs the read-heavy
// 8-thread workload standalone and writes BENCH_micro_tm.json (ops/sec,
// abort/commit ratio, dedup hit rate) for the CI perf-smoke artifact, plus a
// BENCH_micro_tm.metrics.json observability-registry sibling (+ .prom) with
// txn-duration percentiles from one extra unmeasured timed rep.
//
// `--serve-metrics[=PORT]` additionally starts the live telemetry endpoint
// (core/c_api.h) for the duration of the run; `--hold-ms=N` keeps it up N ms
// after the workload finishes so external scrapers can read the final
// counters.  `--history[=MS]` runs the time-series recorder and
// `--watchdog` the SLO rules on top of it (see obs/watchdog.h).  All
// compose with any mode.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "backend_sweep.h"
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
using tmcv::bench::SweepLeg;
using tmcv::bench::fprint_sweep;
using tmcv::bench::metrics_path_for;
using tmcv::bench::run_backend_sweep;

// --backend=NAME from the command line (applies to every mode).  When set,
// the JSON headers report the chosen label and the timed loops re-read the
// process default per transaction, so `auto` (the adaptive controller) is
// measured with its switches taking effect mid-run.
struct BackendChoice {
  bool set = false;
  bool dynamic = false;  // --backend=auto: the controller owns the default
  const char* label = nullptr;
};
BackendChoice g_backend_choice;

Backend backend_of(const benchmark::State& state) {
  switch (state.range(0)) {
    case 0:
      return Backend::EagerSTM;
    case 1:
      return Backend::LazySTM;
    default:
      return Backend::HTM;
  }
}

void label(benchmark::State& state) {
  state.SetLabel(to_string(backend_of(state)));
}

void BM_TmEmptyTxn(benchmark::State& state) {
  const Backend b = backend_of(state);
  label(state);
  for (auto _ : state) atomically(b, [] {});
}
BENCHMARK(BM_TmEmptyTxn)->Arg(0)->Arg(1)->Arg(2);

void BM_TmReadOnlyTxn(benchmark::State& state) {
  const Backend b = backend_of(state);
  label(state);
  const auto n = static_cast<std::size_t>(state.range(1));
  std::vector<std::unique_ptr<var<std::uint64_t>>> vars;
  for (std::size_t i = 0; i < n; ++i)
    vars.push_back(std::make_unique<var<std::uint64_t>>(i));
  for (auto _ : state) {
    std::uint64_t sum = 0;
    atomically(b, [&] {
      sum = 0;
      for (std::size_t i = 0; i < n; ++i) sum += vars[i]->load();
    });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_TmReadOnlyTxn)
    ->ArgsProduct({{0, 1, 2}, {1, 8, 64}});

void BM_TmWriteTxn(benchmark::State& state) {
  const Backend b = backend_of(state);
  label(state);
  const auto n = static_cast<std::size_t>(state.range(1));
  std::vector<std::unique_ptr<var<std::uint64_t>>> vars;
  for (std::size_t i = 0; i < n; ++i)
    vars.push_back(std::make_unique<var<std::uint64_t>>(0));
  std::uint64_t tick = 0;
  for (auto _ : state) {
    ++tick;
    atomically(b, [&] {
      for (std::size_t i = 0; i < n; ++i) vars[i]->store(tick);
    });
  }
}
BENCHMARK(BM_TmWriteTxn)->ArgsProduct({{0, 1, 2}, {1, 8}});

// The condvar-shaped transaction: ~4 reads + ~3 writes (enqueue/dequeue).
void BM_TmCondvarShapedTxn(benchmark::State& state) {
  const Backend b = backend_of(state);
  label(state);
  var<std::uint64_t> head(0), tail(0), count(0);
  for (auto _ : state) {
    atomically(b, [&] {
      const auto h = head.load();
      const auto t = tail.load();
      const auto c = count.load();
      head.store(h + 1);
      tail.store(t + 1);
      count.store(c);
    });
  }
}
BENCHMARK(BM_TmCondvarShapedTxn)->Arg(0)->Arg(1)->Arg(2);

void BM_TmIrrevocable(benchmark::State& state) {
  var<std::uint64_t> x(0);
  for (auto _ : state)
    irrevocably([&] { x.store(x.load() + 1); });
}
BENCHMARK(BM_TmIrrevocable);

void BM_TmOnCommitHandler(benchmark::State& state) {
  const Backend b = backend_of(state);
  label(state);
  var<std::uint64_t> x(0);
  std::uint64_t fired = 0;
  for (auto _ : state) {
    atomically(b, [&] {
      x.store(x.load() + 1);
      on_commit([&] { ++fired; });
    });
  }
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_TmOnCommitHandler)->Arg(0)->Arg(1)->Arg(2);

void BM_TmNonTxnVarAccess(benchmark::State& state) {
  var<std::uint64_t> x(1);
  std::uint64_t sum = 0;
  for (auto _ : state) {
    sum += x.load();
    x.store(sum);
  }
  benchmark::DoNotOptimize(sum);
}
BENCHMARK(BM_TmNonTxnVarAccess);

// ---------------------------------------------------------------------------
// Read-heavy contended workload (the dedup/fast-path headline number)
// ---------------------------------------------------------------------------
//
// Each transaction scans kScan elements, re-reading a hot "header" var
// between elements (the traversal shape that makes undeduplicated read sets
// O(reads)), then performs kWrites read-modify-writes: >=80% reads.

constexpr int kRhVars = 32;
constexpr int kRhScan = 24;    // 48 reads (hot + element per step)
constexpr int kRhWrites = 4;   // 4 writes (+4 reads): 52r / 4w per txn

struct ReadHeavyState {
  var<std::uint64_t> hot{1};
  std::vector<std::unique_ptr<var<std::uint64_t>>> arr;
  ReadHeavyState() {
    for (int i = 0; i < kRhVars; ++i)
      arr.push_back(std::make_unique<var<std::uint64_t>>(i));
  }
};

ReadHeavyState& read_heavy_state() {
  static ReadHeavyState s;
  return s;
}

void read_heavy_txn(ReadHeavyState& s, Backend b, int t, int i) {
  atomically(b, [&] {
    TMCV_TXN_SITE("read_heavy.scan");
    std::uint64_t sum = 0;
    for (int k = 0; k < kRhScan; ++k)
      sum += s.hot.load() + s.arr[(t * 7 + k) % kRhVars]->load();
    for (int w = 0; w < kRhWrites; ++w) {
      auto* v = s.arr[(t * 5 + i + w) % kRhVars].get();
      v->store(v->load() + sum);
    }
  });
}

void BM_TmReadHeavy(benchmark::State& state) {
  const Backend b = backend_of(state);
  label(state);
  ReadHeavyState& s = read_heavy_state();
  Stats before;
  if (state.thread_index() == 0) before = stats_snapshot();
  const int t = state.thread_index();
  int i = 0;
  for (auto _ : state) read_heavy_txn(s, b, t, i++);
  if (state.thread_index() == 0) {
    const Stats after = stats_snapshot();
    const auto d = [&](std::uint64_t Stats::*f) {
      return static_cast<double>(after.*f - before.*f);
    };
    state.counters["reads"] =
        benchmark::Counter(d(&Stats::reads), benchmark::Counter::kAvgIterations);
    state.counters["read_set_entries"] = benchmark::Counter(
        d(&Stats::read_dedup_appends), benchmark::Counter::kAvgIterations);
    const double logged =
        d(&Stats::read_dedup_hits) + d(&Stats::read_dedup_appends);
    state.counters["dedup_hit_rate"] =
        logged ? d(&Stats::read_dedup_hits) / logged : 0.0;
    const double attempts = d(&Stats::commits) + d(&Stats::aborts);
    state.counters["abort_rate"] =
        attempts ? d(&Stats::aborts) / attempts : 0.0;
  }
}
BENCHMARK(BM_TmReadHeavy)->Arg(0)->Arg(1)->Threads(8)->UseRealTime();

// ---------------------------------------------------------------------------
// Backend sweep: per-backend throughput sections appended to the JSON
// artifacts (harness shared with bench/vacation.cpp -- see backend_sweep.h).
// Runs AFTER the main profile's stats snapshot so the sweep's counters never
// pollute the headline numbers.
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
  // Sweep after the headline snapshot: the "lazy" leg is the committed
  // profile's own shape (the closures request LazySTM/Hybrid explicitly),
  // "eager" forces encounter-time locking on the same mix, "norec" coerces
  // the whole mix through the family override, and "auto" starts from
  // EagerSTM and reports the controller's converged steady state.
  const std::vector<SweepLeg> sweep = run_backend_sweep(
      {"eager", "lazy", "norec", "auto"},
      [&] { return run_contended_once(s, kThreads, kTxnsPerThread); });
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
               "  \"threads\": %d,\n",
               g_backend_choice.set ? g_backend_choice.label
                                    : "LazySTM+Hybrid",
               tmcv_get_spin_budget(), kThreads);
  fprint_sweep(f, sweep);
  std::fprintf(f,
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
               kTxnsPerThread, kCwWrites, kCwReads, kCwHeavyEvery,
               kCwHeavyWrites, kCwVars, kCwTheta, kReps,
               best,
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

// ---------------------------------------------------------------------------
// --json mode: standalone read-heavy run for BENCH_micro_tm.json
// ---------------------------------------------------------------------------

// `dynamic` re-reads the process default per transaction, so the adaptive
// controller's mid-run switches actually take effect inside the loop (a
// fixed `b` would pin every transaction to the leg's starting backend).
double run_read_heavy_once(ReadHeavyState& s, Backend b, bool dynamic,
                           int threads, int txns_per_thread) {
  std::atomic<int> go{0};
  std::vector<std::thread> ts;
  tmcv::Stopwatch sw;
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      go.fetch_add(1);
      while (go.load() < threads) {
      }
      for (int i = 0; i < txns_per_thread; ++i)
        read_heavy_txn(s, dynamic ? default_backend() : b, t, i);
    });
  }
  for (auto& th : ts) th.join();
  return static_cast<double>(threads) * txns_per_thread / sw.elapsed_seconds();
}


int run_json_mode(const char* out_path) {
  constexpr int kThreads = 8;
  constexpr int kTxnsPerThread = 40000;
  constexpr int kReps = 5;
  ReadHeavyState& s = read_heavy_state();
  const bool dyn = g_backend_choice.set;
  run_read_heavy_once(s, Backend::EagerSTM, dyn, kThreads,
                      kTxnsPerThread / 4);  // warm-up
  stats_reset();
  double best = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    const double r =
        run_read_heavy_once(s, Backend::EagerSTM, dyn, kThreads,
                            kTxnsPerThread);
    if (r > best) best = r;
  }
  const Stats st = stats_snapshot();
  const double attempts =
      static_cast<double>(st.commits) + static_cast<double>(st.aborts);
  // One extra (unmeasured) rep with latency timing on, so the metrics
  // snapshot carries txn-duration percentiles without perturbing the
  // throughput reps above.
  tmcv::obs::set_timing_enabled(true);
  run_read_heavy_once(s, Backend::EagerSTM, dyn, kThreads, kTxnsPerThread);
  tmcv::obs::set_timing_enabled(false);
  // Per-backend sweep after the headline snapshot (run_backend_sweep does
  // the best-of-reps smoothing and the auto leg's convergence reps).
  const std::vector<SweepLeg> sweep = run_backend_sweep(
      {"eager", "lazy", "norec", "auto"}, [&] {
        return run_read_heavy_once(s, Backend::EagerSTM, true, kThreads,
                                   kTxnsPerThread);
      });
  std::FILE* f = std::fopen(out_path, "w");
  if (!f) {
    std::perror("fopen");
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"benchmark\": \"micro_tm_read_heavy\",\n"
               "  \"backend\": \"%s\",\n"
               "  \"spin_budget\": %u,\n"
               "  \"threads\": %d,\n",
               g_backend_choice.set ? g_backend_choice.label : "EagerSTM",
               tmcv_get_spin_budget(), kThreads);
  fprint_sweep(f, sweep);
  std::fprintf(f,
               "  \"txns_per_thread\": %d,\n"
               "  \"reads_per_txn\": %d,\n"
               "  \"writes_per_txn\": %d,\n"
               "  \"reps\": %d,\n"
               "  \"ops_per_sec\": %.0f,\n"
               "  \"abort_rate\": %.6f,\n"
               "  \"abort_commit_ratio\": %.6f,\n"
               "  \"dedup_hit_rate\": %.6f,\n"
               "  \"commits\": %llu,\n"
               "  \"aborts\": %llu,\n"
               "  \"reads\": %llu,\n"
               "  \"read_set_appends\": %llu,\n"
               "  \"extensions\": %llu,\n"
               "  \"aborts_conflict\": %llu,\n"
               "  \"aborts_capacity\": %llu,\n"
               "  \"aborts_syscall\": %llu,\n"
               "  \"aborts_explicit\": %llu,\n"
               "  \"aborts_retry_wait\": %llu\n"
               "}\n",
               kTxnsPerThread, 2 * kRhScan + kRhWrites, kRhWrites,
               kReps, best,
               attempts ? static_cast<double>(st.aborts) / attempts : 0.0,
               st.commits ? static_cast<double>(st.aborts) /
                                static_cast<double>(st.commits)
                          : 0.0,
               st.dedup_hit_rate(), (unsigned long long)st.commits,
               (unsigned long long)st.aborts, (unsigned long long)st.reads,
               (unsigned long long)st.read_dedup_appends,
               (unsigned long long)st.extensions,
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
  std::printf("wrote %s (ops/sec=%.0f, dedup_hit_rate=%.3f) and %s\n",
              out_path, best, st.dedup_hit_rate(), mpath.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// --json-norec mode: the NOrec headline profile for BENCH_micro_tm_norec.json
// ---------------------------------------------------------------------------
//
// Read-MOSTLY at 2 threads -- the workload class NOrec was designed for.
// Most transactions are pure scans over a wide var array (every read is a
// distinct location, so the orec backends pay a stripe lookup + version
// check per read while NOrec pays one append and a check of the single
// global counter); one transaction in kNpWriterEvery does a couple of
// read-modify-writes confined to the thread's own half of the array, so
// the commit counter moves rarely (cheap revalidation) and writers never
// collide (uncontended by construction).  Eager and lazy run the identical
// workload first so the artifact carries its own baseline (and bench_check
// can gate the committed speedup ratio without cross-file joins).

constexpr int kNpVars = 4096;
constexpr int kNpScan = 96;        // reads per scan transaction
constexpr int kNpWrites = 2;       // RMWs per writer transaction
constexpr int kNpWriterEvery = 8;  // 1-in-8 transactions write

struct NorecProfileState {
  std::vector<std::unique_ptr<var<std::uint64_t>>> arr;
  NorecProfileState() {
    for (int i = 0; i < kNpVars; ++i)
      arr.push_back(std::make_unique<var<std::uint64_t>>(i));
  }
};

void norec_profile_txn(NorecProfileState& s, int t, int i) {
  constexpr int kHalf = kNpVars / 2;
  atomically([&] {
    TMCV_TXN_SITE("norec_profile.scan");
    if (i % kNpWriterEvery == 0) {
      for (int w = 0; w < kNpWrites; ++w) {
        auto* v = s.arr[t * kHalf + (i + w * 61) % kHalf].get();
        v->store(v->load() + 1);
      }
      return;
    }
    std::uint64_t sum = 0;
    for (int k = 0; k < kNpScan; ++k)
      sum += s.arr[(t * kHalf + i * 31 + k * 37) % kNpVars]->load();
    (void)sum;
  });
}

double run_norec_profile_once(NorecProfileState& s, int threads,
                              int txns_per_thread) {
  std::atomic<int> go{0};
  std::vector<std::thread> ts;
  tmcv::Stopwatch sw;
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      go.fetch_add(1);
      while (go.load() < threads) {
      }
      for (int i = 0; i < txns_per_thread; ++i) norec_profile_txn(s, t, i);
    });
  }
  for (auto& th : ts) th.join();
  return static_cast<double>(threads) * txns_per_thread / sw.elapsed_seconds();
}

int run_json_norec_mode(const char* out_path) {
  constexpr int kThreads = 2;
  constexpr int kTxnsPerThread = 40000;
  constexpr int kReps = 5;
  NorecProfileState s;
  const Backend saved = default_backend();
  Stats norec_window{};
  const auto leg = [&](Backend b, bool snapshot_window) {
    set_backend(b);
    run_norec_profile_once(s, kThreads, kTxnsPerThread / 4);  // warm-up
    if (snapshot_window) stats_reset();
    double best = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      const double r = run_norec_profile_once(s, kThreads, kTxnsPerThread);
      if (r > best) best = r;
    }
    if (snapshot_window) norec_window = stats_snapshot();
    return best;
  };
  const double eager = leg(Backend::EagerSTM, false);
  const double lazy = leg(Backend::LazySTM, false);
  const double norec = leg(Backend::NOrec, true);
  set_backend(saved);
  const double best_fixed = eager > lazy ? eager : lazy;
  const Stats& st = norec_window;
  const double attempts =
      static_cast<double>(st.commits) + static_cast<double>(st.aborts);
  std::FILE* f = std::fopen(out_path, "w");
  if (!f) {
    std::perror("fopen");
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"benchmark\": \"micro_tm_norec_read_heavy\",\n"
               "  \"backend\": \"NOrec\",\n"
               "  \"spin_budget\": %u,\n"
               "  \"threads\": %d,\n"
               "  \"txns_per_thread\": %d,\n"
               "  \"reads_per_txn\": %d,\n"
               "  \"writes_per_txn\": %d,\n"
               "  \"writer_txn_every\": %d,\n"
               "  \"reps\": %d,\n"
               "  \"ops_per_sec\": %.0f,\n"
               "  \"eager_ops_per_sec\": %.0f,\n"
               "  \"lazy_ops_per_sec\": %.0f,\n"
               "  \"speedup_vs_best_fixed\": %.4f,\n"
               "  \"abort_rate\": %.6f,\n"
               "  \"commits\": %llu,\n"
               "  \"aborts\": %llu,\n"
               "  \"norec_commits\": %llu,\n"
               "  \"norec_validations\": %llu,\n"
               "  \"norec_val_failures\": %llu\n"
               "}\n",
               tmcv_get_spin_budget(), kThreads, kTxnsPerThread,
               kNpScan, kNpWrites, kNpWriterEvery, kReps, norec, eager, lazy,
               best_fixed > 0 ? norec / best_fixed : 0.0,
               attempts ? static_cast<double>(st.aborts) / attempts : 0.0,
               (unsigned long long)st.commits, (unsigned long long)st.aborts,
               (unsigned long long)st.norec_commits,
               (unsigned long long)st.norec_validations,
               (unsigned long long)st.norec_val_failures);
  std::fclose(f);
  const std::string mpath = metrics_path_for(out_path);
  if (!tmcv::obs::write_metrics_files(tmcv::obs::metrics_snapshot(), mpath)) {
    std::perror("write_metrics_files");
    return 1;
  }
  std::printf("wrote %s (norec=%.0f eager=%.0f lazy=%.0f, x%.3f) and %s\n",
              out_path, norec, eager, lazy,
              best_fixed > 0 ? norec / best_fixed : 0.0, mpath.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Flags consumed here (and stripped before google-benchmark sees argv):
  //   --serve-metrics[=PORT]  live telemetry endpoint for the whole run
  //                           (PORT 0 / omitted = ephemeral)
  //   --hold-ms=N             keep the process (and the endpoint) alive N ms
  //                           after the selected mode finishes, so an
  //                           external scraper can read the final counters
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
  // 0 = google-benchmark, 1 = --json, 2 = --json-contended, 3 = --json-norec
  int mode = 0;
  const char* out_path = nullptr;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
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
      mode = 2;
      if (i + 1 < argc && argv[i + 1][0] != '-') out_path = argv[++i];
    } else if (std::strcmp(a, "--json-norec") == 0) {
      mode = 3;
      if (i + 1 < argc && argv[i + 1][0] != '-') out_path = argv[++i];
    } else if (std::strcmp(a, "--json") == 0) {
      mode = 1;
      if (i + 1 < argc && argv[i + 1][0] != '-') out_path = argv[++i];
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (backend_arg != nullptr) {
    if (std::strcmp(backend_arg, "auto") == 0) {
      set_backend_auto(true);
      g_backend_choice = {true, true, "auto"};
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
      g_backend_choice = {true, false, backend_label(b)};
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
  int rc = 0;
  if (mode == 3) {
    rc = run_json_norec_mode(out_path ? out_path
                                      : "BENCH_micro_tm_norec.json");
  } else if (mode == 2) {
    rc = run_json_contended_mode(out_path ? out_path
                                          : "BENCH_micro_tm_contended.json");
  } else if (mode == 1) {
    rc = run_json_mode(out_path ? out_path : "BENCH_micro_tm.json");
  } else {
    int bench_argc = static_cast<int>(passthrough.size());
    benchmark::Initialize(&bench_argc, passthrough.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               passthrough.data()))
      return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
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

// Metrics-registry tests: snapshot/delta, the JSON and Prometheus
// exporters, the condvar aggregate (live + destroyed), the counter-family
// arithmetic (util/counters.h), a regression test for the thread-exit stats
// fold racing concurrent snapshots, and stats_reset() as a baseline under
// concurrent commits.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/condvar.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sync/wake_stats.h"
#include "tm/api.h"
#include "tm/var.h"
#include "util/counters.h"

namespace obs = tmcv::obs;
using tmcv::CondVar;
using tmcv::CondVarStats;
namespace counters = tmcv::counters;

namespace {

class ObsMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_trace_enabled(false);
    obs::set_timing_enabled(false);
    obs::trace_reset();
  }
  void TearDown() override {
    obs::set_trace_enabled(false);
    obs::set_timing_enabled(false);
    obs::trace_reset();
  }
};

TEST_F(ObsMetricsTest, SnapshotAndDelta) {
  const obs::MetricsSnapshot before = obs::metrics_snapshot();
  obs::set_timing_enabled(true);
  tmcv::tm::var<std::uint64_t> x(0);
  for (int i = 0; i < 10; ++i) tmcv::tm::atomically([&] { x.store(x.load() + 1); });
  obs::set_timing_enabled(false);
  const obs::MetricsSnapshot after = obs::metrics_snapshot();
  const obs::MetricsSnapshot d = obs::metrics_delta(after, before);

  EXPECT_GE(d.tm.commits, 10u);
#if TMCV_TRACE
  // Timing was on: the commit histogram saw our transactions.  (With the
  // compile gate off the hooks vanish and the histograms stay empty.)
  EXPECT_GE(d.txn_commit_ns.count, 10u);
  EXPECT_GT(d.txn_commit_ns.sum, 0u);
#else
  EXPECT_EQ(d.txn_commit_ns.count, 0u);
#endif
}

TEST_F(ObsMetricsTest, JsonExporterShape) {
  const obs::MetricsSnapshot s = obs::metrics_snapshot();
  const std::string json = obs::to_json(s);
  for (const char* key :
       {"\"tm\"", "\"condvar\"", "\"trace\"", "\"histograms\"",
        "\"commits\"", "\"aborts\"", "\"dedup_hit_rate\"", "\"waits\"",
        "\"cv_wait_ns\"", "\"notify_wake_ns\"", "\"txn_commit_ns\"",
        "\"txn_abort_ns\"", "\"serial_stall_ns\"", "\"p50\"", "\"p99\"",
        "\"p999\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  // The abort matrix has one row per backend a descriptor runs, in enum
  // order; a Hybrid request is a retry ladder and has no row.
  EXPECT_NE(json.find("\"aborts_by_backend\": {\"eager\": {"),
            std::string::npos);
  for (const char* row : {"\"lazy\": {", "\"htm\": {", "\"norec\": {"})
    EXPECT_NE(json.find(row), std::string::npos) << "missing row " << row;
  EXPECT_EQ(json.find("\"hybrid\": {"), std::string::npos);
}

TEST_F(ObsMetricsTest, PrometheusExporterShape) {
  const obs::MetricsSnapshot s = obs::metrics_snapshot();
  const std::string prom = obs::to_prometheus(s);
  for (const char* needle :
       {"tmcv_tm_commits_total", "tmcv_cv_waits_total",
        "# TYPE tmcv_cv_wait_ns summary",
        "tmcv_cv_wait_ns{quantile=\"0.5\"}",
        "tmcv_cv_wait_ns{quantile=\"0.999\"}", "tmcv_cv_wait_ns_sum",
        "tmcv_cv_wait_ns_count"}) {
    EXPECT_NE(prom.find(needle), std::string::npos) << "missing " << needle;
  }
  EXPECT_NE(prom.find("tmcv_tm_aborts_total{backend=\"norec\",reason="),
            std::string::npos);
  EXPECT_EQ(prom.find("tmcv_tm_aborts_total{backend=\"hybrid\""),
            std::string::npos);
}

TEST_F(ObsMetricsTest, WriteFilesAndChromeTrace) {
  obs::set_trace_enabled(true);
  obs::emit_instant(obs::Event::kSemPost);
  obs::set_trace_enabled(false);

  ASSERT_TRUE(
      obs::write_metrics_files(obs::metrics_snapshot(), "obs_test_metrics.json"));
  ASSERT_TRUE(obs::write_chrome_trace("obs_test_trace.json"));

  const auto slurp = [](const char* path) {
    std::FILE* f = std::fopen(path, "r");
    EXPECT_NE(f, nullptr) << path;
    std::string out;
    char buf[4096];
    std::size_t n;
    while (f && (n = std::fread(buf, 1, sizeof buf, f)) > 0)
      out.append(buf, n);
    if (f) std::fclose(f);
    return out;
  };
  EXPECT_NE(slurp("obs_test_metrics.json").find("\"histograms\""),
            std::string::npos);
  EXPECT_NE(slurp("obs_test_metrics.json.prom").find("tmcv_tm_commits_total"),
            std::string::npos);
  const std::string trace = slurp("obs_test_trace.json");
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("sem.post"), std::string::npos);
  std::remove("obs_test_metrics.json");
  std::remove("obs_test_metrics.json.prom");
  std::remove("obs_test_trace.json");
}

// An app gauge reports a level that can fall (the KV store's live size): a
// delta keeps its current value, where an app counter is differenced.
TEST_F(ObsMetricsTest, AppGaugeKeepsItsValueAcrossADelta) {
  struct Source {
    std::uint64_t events;
    std::uint64_t level;
  } src{10, 7};
  const obs::AppCounterFn scrape = [](void* ctx,
                                      std::vector<obs::AppCounter>& out) {
    const auto* s = static_cast<const Source*>(ctx);
    out.push_back({"test_events", s->events});
    out.push_back({"test_level", s->level, /*gauge=*/true});
  };
  obs::register_app_counters(scrape, &src);
  const obs::MetricsSnapshot before = obs::metrics_snapshot();
  src = {15, 3};  // five more events; the level fell
  const obs::MetricsSnapshot after = obs::metrics_snapshot();
  obs::unregister_app_counters(scrape, &src);
  const obs::MetricsSnapshot d = obs::metrics_delta(after, before);
  const auto value_of = [&](const char* name) {
    for (const obs::AppCounter& ac : d.app)
      if (ac.name == name) return ac.value;
    ADD_FAILURE() << "missing app counter " << name;
    return std::uint64_t{0};
  };
  EXPECT_EQ(value_of("test_events"), 5u);
  EXPECT_EQ(value_of("test_level"), 3u);
}

TEST_F(ObsMetricsTest, CondVarAggregateIncludesDestroyedObjects) {
  const CondVarStats before = tmcv::condvar_stats_aggregate();
  {
    CondVar cv;
    // Notifies on an empty queue: counted as calls + lost notifies, no
    // waiters needed.
    EXPECT_FALSE(cv.notify_one());
    EXPECT_FALSE(cv.notify_one());
    EXPECT_EQ(cv.notify_all(), 0u);

    CondVarStats live = tmcv::condvar_stats_aggregate();
    live -= before;
    EXPECT_EQ(live.notify_one_calls, 2u);
    EXPECT_EQ(live.notify_all_calls, 1u);
    EXPECT_EQ(live.lost_notifies, 3u);
  }
  // Destroyed: its counters moved to the retired accumulator, not vanished.
  CondVarStats after = tmcv::condvar_stats_aggregate();
  after -= before;
  EXPECT_EQ(after.notify_one_calls, 2u);
  EXPECT_EQ(after.notify_all_calls, 1u);
  EXPECT_EQ(after.lost_notifies, 3u);
}

// Regression: tm::Stats folding on thread exit used to release the retired
// lock before clearing the thread's registry slot, so a concurrent
// stats_snapshot could count an exiting thread twice.  Spawn/join threads
// while snapshotting continuously: every intermediate snapshot must be
// monotonic and never exceed the true total, and the final snapshot must be
// exact.
TEST_F(ObsMetricsTest, ThreadExitFoldDoesNotRaceSnapshots) {
  tmcv::tm::stats_reset();
  constexpr int kWaves = 8;
  constexpr int kThreadsPerWave = 4;
  constexpr int kTxnsPerThread = 200;
  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kWaves) * kThreadsPerWave * kTxnsPerThread;

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::thread snapshotter([&] {
    std::uint64_t prev = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t commits = tmcv::tm::stats_snapshot().commits;
      // Double-counting manifests as commits > kTotal (an exiting thread
      // seen both live and retired) or as a non-monotonic sequence.
      if (commits > kTotal || commits < prev) {
        failed.store(true);
        break;
      }
      prev = commits;
    }
  });

  tmcv::tm::var<std::uint64_t> x(0);
  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<std::thread> workers;
    workers.reserve(kThreadsPerWave);
    for (int t = 0; t < kThreadsPerWave; ++t) {
      workers.emplace_back([&] {
        for (int i = 0; i < kTxnsPerThread; ++i)
          tmcv::tm::atomically([&] { x.store(x.load() + 1); });
      });
    }
    for (auto& w : workers) w.join();  // every join is a thread-exit fold
  }
  stop.store(true, std::memory_order_release);
  snapshotter.join();

  EXPECT_FALSE(failed.load()) << "snapshot raced a thread-exit fold";
  EXPECT_EQ(tmcv::tm::stats_snapshot().commits, kTotal);
  std::uint64_t sum = 0;
  tmcv::tm::atomically([&] { sum = x.load(); });
  EXPECT_EQ(sum, kTotal);
}

// ---- counter families ----

template <typename T>
class CounterFamily : public ::testing::Test {};
using Families =
    ::testing::Types<tmcv::tm::Stats, CondVarStats, tmcv::WakeStats>;
TYPED_TEST_SUITE(CounterFamily, Families);

template <typename T>
void expect_cells_eq(const T& got, const T& want) {
  T g = got;
  std::size_t cell = 0;
  counters::for_each_cell(g, want,
                          [&](std::uint64_t& x, const std::uint64_t& y) {
                            EXPECT_EQ(x, y) << "cell " << cell;
                            ++cell;
                          });
}

// Fill every cell with a distinct value through the visitor (array fields
// cell by cell, so every tm::Stats matrix cell too), then round-trip the
// family through +=, -=, load and reset.
TYPED_TEST(CounterFamily, EveryFieldRoundTrips) {
  using T = TypeParam;
  T a;
  std::uint64_t cells = 0;
  counters::for_each_cell(a, a, [&](std::uint64_t& c, const std::uint64_t&) {
    c = ++cells * 1000;
  });
  // The visitor covers the whole struct: as many cells as words, and none
  // left zero (a skipped field) or visited twice (its first value lost).
  ASSERT_EQ(cells * sizeof(std::uint64_t), sizeof(T));
  std::uint64_t words[sizeof(T) / sizeof(std::uint64_t)];
  std::memcpy(words, &a, sizeof(T));
  std::uint64_t sum = 0;
  for (const std::uint64_t w : words) {
    EXPECT_NE(w, 0u);
    sum += w;
  }
  EXPECT_EQ(sum, 1000 * cells * (cells + 1) / 2);

  T twice;
  counters::for_each_cell(twice, a,
                          [](std::uint64_t& x, const std::uint64_t& y) {
                            x = 2 * y;
                          });
  T b = a;
  b += a;
  expect_cells_eq(b, twice);
  b -= a;
  expect_cells_eq(b, a);
  expect_cells_eq(counters::load(b), a);
  T under = a;
  under -= twice;  // a delta never wraps: clamped at 0 per cell
  expect_cells_eq(under, T{});
  counters::reset(b);
  expect_cells_eq(b, T{});
}

TEST(TmStats, ReasonTotalsAreMatrixColumnSums) {
  tmcv::tm::Stats s;
  for (std::size_t b = 0; b < tmcv::tm::kStatsBackends; ++b)
    for (std::size_t r = 0; r < tmcv::tm::kStatsAbortReasons; ++r)
      s.aborts_by_backend[b][r] = (b + 1) * 10 + r;
  const auto column = [](std::uint64_t r) { return 100 + 4 * r; };
  EXPECT_EQ(s.aborts_conflict(), column(0));
  EXPECT_EQ(s.aborts_capacity(), column(1));
  EXPECT_EQ(s.aborts_syscall(), column(2));
  EXPECT_EQ(s.aborts_explicit(), column(3));
  EXPECT_EQ(s.aborts_retry_wait(), column(4));
}

// stats_reset() records a baseline rather than writing other threads'
// descriptors.  Four threads commit (on one hot word, so some abort) while a
// fifth loops stats_snapshot() and stats_reset(): between two resets no
// field of a snapshot may go backwards.  After a quiescent reset, M commits
// read exactly M.
TEST_F(ObsMetricsTest, ResetIsABaselineUnderConcurrentCommits) {
  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 2000;
  tmcv::tm::var<std::uint64_t> hot(0);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> backwards{0};
  std::atomic<std::uint64_t> snapshots{0};

  std::thread observer([&] {
    tmcv::tm::Stats prev = tmcv::tm::stats_snapshot();
    for (unsigned i = 1; !stop.load(std::memory_order_acquire); ++i) {
      if (i % 8 == 0) {
        tmcv::tm::stats_reset();
        prev = tmcv::tm::stats_snapshot();
        continue;
      }
      tmcv::tm::Stats cur = tmcv::tm::stats_snapshot();
      counters::for_each_cell(
          cur, prev, [&](std::uint64_t& now, const std::uint64_t& was) {
            if (now < was) backwards.fetch_add(1);
          });
      prev = cur;
      snapshots.fetch_add(1);
    }
  });

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&] {
      for (int i = 0; i < kTxnsPerThread; ++i)
        tmcv::tm::atomically([&] { hot.store(hot.load() + 1); });
    });
  for (auto& w : workers) w.join();
  // A slow-starting observer (sanitizer builds, loaded cores) may not have
  // compared a single snapshot yet; let it, so the check is never vacuous.
  while (snapshots.load() == 0) std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  observer.join();

  EXPECT_EQ(backwards.load(), 0u) << "a snapshot went backwards";
  EXPECT_GT(snapshots.load(), 0u);
  std::uint64_t total = 0;
  tmcv::tm::atomically([&] { total = hot.load(); });
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kTxnsPerThread);

  constexpr std::uint64_t kM = 100;
  tmcv::tm::stats_reset();
  EXPECT_EQ(tmcv::tm::stats_snapshot().commits, 0u);
  tmcv::tm::var<std::uint64_t> x(0);
  for (std::uint64_t i = 0; i < kM; ++i)
    tmcv::tm::atomically([&] { x.store(x.load() + 1); });
  EXPECT_EQ(tmcv::tm::stats_snapshot().commits, kM);
}

}  // namespace

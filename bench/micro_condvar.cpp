// Microbenchmark: the condition variable's wake path -- herd wake-to-run
// through the lock-based facade, the cost of the always-on wait points, and
// the stuck-thread diagnosis pipeline.
//
// `--json-herd [path]` runs the herd + semaphore ping-pong A/B and writes
// BENCH_micro_condvar_herd.json.  `--lost-wakeup` injects one dropped
// notify and waits for the watchdog's stuck_thread alert.
//
// `--trace PATH` appends an unmeasured traced herd phase and writes its
// Chrome trace to PATH (input for tools/trace_report.py --causal).
// `--serve-metrics[=PORT]` starts the live telemetry endpoint for the run;
// `--hold-ms=N` keeps it up N ms after the workload finishes.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "core/c_api.h"
#include "core/condvar.h"
#include "core/legacy_cv.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "obs/waitgraph.h"
#include "obs/watchdog.h"
#include "sync/semaphore.h"
#include "sync/spin.h"
#include "sync/waitpoint.h"
#include "sync/wake_stats.h"
#include "tm/api.h"
#include "util/timing.h"

namespace {

using namespace tmcv;

// ---------------------------------------------------------------------------
// --json-herd mode: wake-path A/B for BENCH_micro_condvar_herd.json
// ---------------------------------------------------------------------------
//
// Two phases exercising the lock-based facade (no transactions), where the
// wake-path overhaul lives:
//
//   herd      -- kWaiters threads park on tmcv::condition_variable under one
//                std::mutex; the notifier bumps a round counter and
//                notify_alls UNDER the lock (the classic herd anti-pattern):
//                every waiter is posted in the notify's wake batch and the
//                herd then queues on the mutex.  wake_to_run_per_sec
//                counts waiters through their critical sections per second.
//
//   pingpong  -- two threads alternating on a pair of BinarySemaphores with
//                the spin budget pinned: the uncontended wake path, where
//                adaptive spinning should convert parks into parks_avoided
//                (the CI perf-smoke asserts parks_avoided > 0 here).
int run_json_herd_mode(const char* out_path) {
  constexpr int kWaiters = 8;
  constexpr int kRounds = 2000;

  // One complete herd pass (spawn, warm up, run kRounds measured, tear
  // down), returning the measured elapsed seconds.  It runs twice per arm
  // of an A/B over the always-on wait-point registry: this is the densest
  // park/wake traffic in the repo, so the off/on throughput ratio prices
  // the per-park publish (the committed waitpoint_overhead_pct, gated at
  // <= 2% in CI).  The committed headline numbers and wake counters come
  // from the ENABLED arm -- the configuration every real run ships with.
  // `round_ticks`, when given, receives one TSC delta per measured round
  // (the overhead A/B compares per-round medians; see below).
  const auto herd_pass = [](int rounds,
                            std::vector<std::uint64_t>* round_ticks) {
    std::mutex m;
    condition_variable cv;
    std::uint64_t round = 0;
    bool stop = false;
    std::vector<std::thread> waiters;
    waiters.reserve(kWaiters);
    for (int t = 0; t < kWaiters; ++t) {
      waiters.emplace_back([&] {
        std::uint64_t seen = 0;
        std::unique_lock<std::mutex> lk(m);
        while (!stop) {
          while (round == seen && !stop) cv.wait(lk);
          seen = round;
        }
      });
    }
    const auto wait_for_full_queue = [&] {
      while (cv.raw().waiter_count() < kWaiters) std::this_thread::yield();
    };

    wait_for_full_queue();  // warm-up: everyone parked once
    tmcv::Stopwatch sw;
    for (int r = 0; r < rounds; ++r) {
      const std::uint64_t t0 = round_ticks != nullptr ? TscClock::now() : 0;
      {
        std::unique_lock<std::mutex> lk(m);
        ++round;
        cv.notify_all();  // under the lock: the herd anti-pattern
      }
      wait_for_full_queue();
      if (round_ticks != nullptr)
        round_ticks->push_back(TscClock::now() - t0);
    }
    const double elapsed = sw.elapsed_seconds();
    {
      std::unique_lock<std::mutex> lk(m);
      stop = true;
      cv.notify_all();
    }
    for (auto& th : waiters) th.join();
    return elapsed;
  };

  // Paired A/B on per-round MEDIANS: each rep runs the two arms back to
  // back recording every round's duration, takes the ratio of the two
  // PER-REP medians, and the overhead is the median ratio across reps.
  // Wall-clock elapsed per arm is useless on a busy shared machine: a
  // round preempted by unrelated load costs 100x a clean one, so a pass's
  // total is mostly a count of how many preemptions it happened to eat.
  // The median round is immune to that tail; ratioing ADJACENT passes
  // cancels slow load drift (both arms of a rep see the same machine);
  // and the median across reps discards reps where a load phase flipped
  // mid-rep anyway.
  constexpr int kAbReps = 6;
  const auto median_of = [](std::vector<std::uint64_t>& v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return static_cast<double>(v[v.size() / 2]);
  };
  double rep_ratios[kAbReps];
  std::vector<std::uint64_t> off_rounds, on_rounds;
  off_rounds.reserve(kRounds);
  on_rounds.reserve(kRounds);
  for (int rep = 0; rep < kAbReps; ++rep) {
    off_rounds.clear();
    on_rounds.clear();
    set_waitpoints_enabled(false);
    herd_pass(kRounds, &off_rounds);
    set_waitpoints_enabled(true);
    herd_pass(kRounds, &on_rounds);
    rep_ratios[rep] = median_of(on_rounds) / median_of(off_rounds);
  }
  std::sort(rep_ratios, rep_ratios + kAbReps);
  const double median_ratio =
      (rep_ratios[kAbReps / 2 - 1] + rep_ratios[kAbReps / 2]) / 2.0;
  // Wake counters cover exactly one enabled pass (plus the pingpong below)
  // so the committed magnitudes stay comparable across revisions.
  const WakeStats wake_before = wake_stats_snapshot();
  const double herd_elapsed = herd_pass(kRounds, nullptr);
  const double rate_on = double(kWaiters) * kRounds / herd_elapsed;
  // Positive = publishing wait points costs throughput; a negative value
  // (noise) is reported as measured, not clamped.
  const double waitpoint_overhead_pct = (median_ratio - 1.0) * 100.0;

  // Phase 2: uncontended semaphore ping-pong.  The budget is pinned to the
  // default explicitly so the CI parks_avoided > 0 assertion holds even if
  // TMCV_NO_SPIN leaked into the environment.
  constexpr int kPingRounds = 20000;
  const unsigned saved_budget = spin_budget();
  set_spin_budget(16);
  BinarySemaphore ping, pong;
  std::thread partner([&] {
    for (int i = 0; i < kPingRounds; ++i) {
      ping.wait();
      pong.post();
    }
  });
  tmcv::Stopwatch sw2;
  for (int i = 0; i < kPingRounds; ++i) {
    ping.post();
    pong.wait();
  }
  const double ping_elapsed = sw2.elapsed_seconds();
  partner.join();
  set_spin_budget(saved_budget);
  WakeStats wd = wake_stats_snapshot();
  wd -= wake_before;

  std::FILE* f = std::fopen(out_path, "w");
  if (!f) {
    std::perror("fopen");
    return 1;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"benchmark\": \"micro_condvar_herd\",\n"
      "  \"waitpoint_overhead_pct\": %.2f,\n"
      "  \"herd\": {\n"
      "    \"waiters\": %d,\n"
      "    \"rounds\": %d,\n"
      "    \"wake_to_run_per_sec\": %.0f,\n"
      "    \"notify_all_per_sec\": %.0f\n"
      "  },\n"
      "  \"pingpong\": {\n"
      "    \"rounds\": %d,\n"
      "    \"roundtrips_per_sec\": %.0f\n"
      "  },\n"
      "  \"wake\": {\n"
      "    \"spin_attempts\": %llu,\n"
      "    \"spin_rounds\": %llu,\n"
      "    \"parks_avoided\": %llu,\n"
      "    \"parks\": %llu\n"
      "  }\n"
      "}\n",
      waitpoint_overhead_pct, kWaiters, kRounds, rate_on,
      kRounds / herd_elapsed, kPingRounds, kPingRounds / ping_elapsed,
      static_cast<unsigned long long>(wd.spin_attempts),
      static_cast<unsigned long long>(wd.spin_rounds),
      static_cast<unsigned long long>(wd.parks_avoided),
      static_cast<unsigned long long>(wd.parks));
  std::fclose(f);
  std::printf(
      "wrote %s (wake_to_run/sec=%.0f, parks_avoided=%llu, "
      "waitpoint_overhead=%.2f%%)\n",
      out_path, rate_on, static_cast<unsigned long long>(wd.parks_avoided),
      waitpoint_overhead_pct);
  return 0;
}

// ---------------------------------------------------------------------------
// --lost-wakeup mode: deterministic fault injection for the stuck-thread
// diagnosis pipeline (the CI stall-smoke job and the OBSERVABILITY.md
// walkthrough)
// ---------------------------------------------------------------------------
//
// A straggler thread waits on its own condition variable for a round
// counter the main thread advances.  For the first `drop_round - 1` rounds
// the advance is followed by notify_one (healthy traffic: the cv
// accumulates a notify history).  At `drop_round` the counter is advanced
// WITHOUT the notify -- the textbook lost wakeup: the condition changed,
// nobody was told, and the predicate loop cannot save a thread that never
// wakes to re-check it.  A keeper thread then runs small transactions so
// the rest of the process visibly makes progress, which is exactly the
// signature the waitgraph probe's suspect heuristic keys on: episode
// outlived its windows + cv went silent + cv was notified before + commits
// advanced.  The run waits for the watchdog's stuck_thread rule to fire
// (the fire edge writes the flight dump), optionally lingers so an
// external scraper can inspect /waitgraph, then delivers the dropped
// notify for a clean exit.  Exit 0 iff the alert fired.
int run_lost_wakeup_mode(int drop_round, long stuck_ms, long linger_ms,
                         const char* dump_path) {
  // Fast cadence so suspect confirmation (stuck_windows probe ticks) and
  // the watchdog's consecutive-breach filter resolve in CI time; the
  // stuck_thread threshold is overridden from its 3 s production default.
  obs::TimeSeriesOptions ts;
  ts.interval_ms = 100;
  obs::timeseries().start(ts);
  std::vector<obs::WatchdogRule> rules = obs::default_rules();
  for (obs::WatchdogRule& r : rules)
    if (r.kind == obs::RuleKind::kStuckThread)
      r.threshold = static_cast<double>(stuck_ms);
  obs::watchdog().start(rules, dump_path != nullptr ? dump_path : "");

  std::mutex m;
  condition_variable cv;
  std::uint64_t round = 0;
  bool exit_now = false;
  std::thread straggler([&] {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(m);
    while (!exit_now) {
      while (round == seen && !exit_now) cv.wait(lk);
      seen = round;
    }
  });
  const auto straggler_parked = [&] {
    while (cv.raw().waiter_count() < 1) std::this_thread::yield();
  };

  straggler_parked();
  for (int r = 1; r < drop_round; ++r) {
    {
      std::unique_lock<std::mutex> lk(m);
      ++round;
      cv.notify_one();
    }
    straggler_parked();  // woke, consumed the round, re-parked
  }
  {
    std::unique_lock<std::mutex> lk(m);
    ++round;  // the condition changes; the notify is "forgotten"
  }
  std::printf("lost-wakeup: dropped the notify for round %d\n", drop_round);
  std::fflush(stdout);

  // Keeper: healthy transactional progress while the straggler hangs, so
  // the diagnosis is "this thread is stuck", not "the process is wedged".
  std::atomic<bool> keeper_stop{false};
  tm::var<std::uint64_t> beat(0);
  std::thread keeper([&] {
    while (!keeper_stop.load()) {
      tm::atomically([&] { beat.store(beat.load() + 1); });
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  bool fired = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!fired && std::chrono::steady_clock::now() < deadline) {
    for (const obs::AlertState& st : obs::watchdog().alerts())
      if (st.rule.kind == obs::RuleKind::kStuckThread && st.fired_count > 0)
        fired = true;
    if (!fired)
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (fired && linger_ms > 0)  // hold the evidence up for live scrapers
    std::this_thread::sleep_for(std::chrono::milliseconds(linger_ms));

  keeper_stop.store(true);
  keeper.join();
  {
    std::unique_lock<std::mutex> lk(m);
    exit_now = true;
    cv.notify_one();  // the fix: deliver the wakeup the bug dropped
  }
  straggler.join();
  obs::watchdog().stop();
  obs::timeseries().stop();
  if (!fired) {
    std::fprintf(stderr,
                 "lost-wakeup: stuck_thread never fired within 60 s\n");
    return 1;
  }
  std::printf("lost-wakeup: stuck_thread fired%s%s\n",
              dump_path != nullptr ? ", flight dump at " : "",
              dump_path != nullptr ? dump_path : "");
  return 0;
}

// ---------------------------------------------------------------------------
// --trace mode: unmeasured traced herd for the offline causal analysis
// ---------------------------------------------------------------------------
//
// A smaller herd run with event capture ON, written out as a Chrome trace
// for `tools/trace_report.py --causal` (notify->wake edge reconstruction,
// token conservation).  This is a separate phase rather than tracing the
// measured herd because the measured phases synchronize rounds by spinning
// on the transactional waiter_count(): with capture enabled each probe
// would push a txn.commit record, wrapping the notifier's ring and dropping
// the very cv.notify events the checker matches tokens against.  Rounds are
// synchronized with a plain atomic ack counter instead, so the rings hold
// the complete event stream (zero drops).
int run_traced_herd(const char* trace_path) {
  constexpr int kWaiters = 8;
  constexpr int kRounds = 300;

  std::mutex m;
  condition_variable cv;
  std::uint64_t round = 0;
  bool stop = false;
  std::atomic<std::uint64_t> acks{0};
  tmcv::obs::trace_reset();
  tmcv::obs::set_trace_enabled(true);
  std::vector<std::thread> waiters;
  waiters.reserve(kWaiters);
  for (int t = 0; t < kWaiters; ++t) {
    waiters.emplace_back([&] {
      std::uint64_t seen = 0;
      std::unique_lock<std::mutex> lk(m);
      while (!stop) {
        while (round == seen && !stop) cv.wait(lk);
        seen = round;
        acks.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int r = 1; r <= kRounds; ++r) {
    {
      std::unique_lock<std::mutex> lk(m);
      ++round;
      cv.notify_all();
    }
    // A waiter acking round r may not have re-parked yet when round r+1 is
    // notified; the predicate re-check under the mutex makes that benign,
    // and the notify's woken-count arg records how many actually woke.
    while (acks.load(std::memory_order_relaxed) <
           static_cast<std::uint64_t>(kWaiters) * static_cast<unsigned>(r))
      std::this_thread::yield();
  }
  {
    std::unique_lock<std::mutex> lk(m);
    stop = true;
    cv.notify_all();
  }
  for (auto& th : waiters) th.join();
  tmcv::obs::set_trace_enabled(false);
  const tmcv::obs::TraceCounts tc = tmcv::obs::trace_counts();
  if (!tmcv::obs::write_chrome_trace(trace_path)) {
    std::perror("write_chrome_trace");
    return 1;
  }
  std::printf("wrote %s (%llu events, %llu dropped)\n", trace_path,
              static_cast<unsigned long long>(tc.recorded),
              static_cast<unsigned long long>(tc.dropped));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Flags:
  //   --json-herd [PATH]      herd + ping-pong A/B, write PATH (default
  //                           BENCH_micro_condvar_herd.json)
  //   --serve-metrics[=PORT]  live telemetry endpoint for the whole run
  //   --hold-ms=N             keep the endpoint alive N ms after the run
  //   --trace PATH            append the traced herd phase, write PATH
  //   --history[=MS]          time-series recorder at MS ms cadence (1000)
  //   --watchdog              SLO watchdog on default rules (implies
  //                           --history; enables timing + attribution)
  //   --lost-wakeup[=ROUND]   inject a lost wakeup at ROUND (default 3) and
  //                           wait for the stuck_thread alert (manages its
  //                           own recorder + watchdog; exit 0 iff it fired)
  //   --stuck-ms=N            stuck_thread threshold override (default 500)
  //   --linger-ms=N           hold the stuck state N ms after the fire so a
  //                           live scraper can hit /waitgraph
  //   --dump=PATH             watchdog flight-dump path for --lost-wakeup
  bool serve = false;
  int serve_port = 0;
  long hold_ms = 0;
  long history_ms = 0;
  bool watchdog_on = false;
  const char* trace_path = nullptr;
  // 0 = none (--trace alone), 1 = --json-herd, 2 = --lost-wakeup
  int mode = 0;
  const char* out_path = nullptr;
  int lost_round = 3;
  long stuck_ms = 500;
  long linger_ms = 0;
  const char* dump_path = nullptr;
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
    } else if (std::strcmp(a, "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(a, "--json-herd") == 0) {
      mode = 1;
      if (i + 1 < argc && argv[i + 1][0] != '-') out_path = argv[++i];
    } else if (std::strncmp(a, "--lost-wakeup", 13) == 0 &&
               (a[13] == '\0' || a[13] == '=')) {
      mode = 2;
      if (a[13] == '=') lost_round = std::atoi(a + 14);
      if (lost_round < 2) lost_round = 2;  // need >= 1 healthy notify first
    } else if (std::strncmp(a, "--stuck-ms=", 11) == 0) {
      stuck_ms = std::atol(a + 11);
    } else if (std::strncmp(a, "--linger-ms=", 12) == 0) {
      linger_ms = std::atol(a + 12);
    } else if (std::strncmp(a, "--dump=", 7) == 0) {
      dump_path = a + 7;
    } else {
      std::fprintf(stderr, "micro_condvar: unknown arg '%s'\n", a);
      return 1;
    }
  }
  if (mode == 0 && trace_path == nullptr) {
    std::fprintf(stderr,
                 "usage: micro_condvar {--json-herd [PATH] | "
                 "--lost-wakeup[=ROUND] | --trace PATH} [flags]\n");
    return 1;
  }
  if (serve) {
    tmcv::obs::set_attribution_enabled(true);
    const int port = tmcv_telemetry_start(serve_port);
    if (port < 0) {
      std::fprintf(stderr,
                   "micro_condvar: failed to start telemetry on port %d: %s\n",
                   serve_port, std::strerror(errno));
      return 1;
    }
    std::printf("telemetry: http://127.0.0.1:%d/metrics\n", port);
    std::fflush(stdout);
  }
  if (mode == 2) {
    // --lost-wakeup runs its own recorder + watchdog (fast cadence, low
    // stuck threshold); the generic flags would double-start them.
    watchdog_on = false;
    history_ms = 0;
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
  if (mode == 1) {
    rc = run_json_herd_mode(out_path ? out_path
                                     : "BENCH_micro_condvar_herd.json");
  } else if (mode == 2) {
    rc = run_lost_wakeup_mode(lost_round, stuck_ms, linger_ms, dump_path);
  }
  if (rc == 0 && trace_path != nullptr) rc = run_traced_herd(trace_path);
  if (serve) {
    if (hold_ms > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(hold_ms));
    tmcv_telemetry_stop();
  }
  if (watchdog_on) tmcv::obs::watchdog().stop();
  if (history_ms > 0) tmcv::obs::timeseries().stop();
  return rc;
}

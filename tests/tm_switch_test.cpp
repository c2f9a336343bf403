// Mid-flight backend switching under load (the quiescence-point switch of
// tm::set_backend and the adaptive controller of tm::set_backend_auto):
// four threads run a mixed condvar-wait + transaction token economy while
// the main thread flips eager -> norec -> lazy -> auto.  Asserts token
// conservation, zero lost wakeups, and an exact Stats fold across the
// switch quiescence points (the per-backend abort matrix must sum to the
// scalar abort counter no matter where the switches landed).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/condvar.h"
#include "sync/sync_context.h"
#include "tm/algs/adaptive.h"
#include "tm/api.h"
#include "tm/txn_sync.h"
#include "tm/var.h"

namespace tmcv {
namespace {

using tm::Backend;

TEST(TmSwitch, QuiescedSwitchChangesDefault) {
  const Backend saved = tm::default_backend();
  tm::set_default_backend(Backend::EagerSTM);
  tm::stats_reset();

  EXPECT_TRUE(tm::set_backend(Backend::NOrec));
  EXPECT_EQ(tm::default_backend(), Backend::NOrec);
  EXPECT_FALSE(tm::set_backend(Backend::NOrec));  // no-op: already current
  EXPECT_TRUE(tm::set_backend(Backend::LazySTM));

  const tm::Stats s = tm::stats_snapshot();
  EXPECT_EQ(s.backend_switches, 2u);

  tm::set_default_backend(saved);
}

TEST(TmSwitch, MidFlightFlipsConserveTokensAndStats) {
  const Backend saved = tm::default_backend();
  tm::set_default_backend(Backend::EagerSTM);
  tm::stats_reset();

  constexpr int kWaiters = 2;
  constexpr int kProducers = 2;
  constexpr int kTokensPerWaiter = 3000;
  const int total = kWaiters * kTokensPerWaiter;

  CondVar cv;
  std::mutex m;
  tm::var<int> tokens(0);
  std::atomic<int> consumed{0};
  std::atomic<int> produced{0};

  // Consumers: one lock-based, one transactional -- both must survive the
  // default backend changing under them between (and only between) txns.
  std::vector<std::thread> waiters;
  for (int w = 0; w < kWaiters; ++w) {
    waiters.emplace_back([&, w] {
      const bool use_lock = (w % 2 == 0);
      for (int r = 0; r < kTokensPerWaiter; ++r) {
        if (use_lock) {
          std::unique_lock<std::mutex> lk(m);
          for (;;) {
            const bool got = tm::atomically([&] {
              if (tokens.load() > 0) {
                tokens.store(tokens.load() - 1);
                return true;
              }
              return false;
            });
            if (got) break;
            LockSync sync(m);
            cv.wait(sync);
          }
        } else {
          for (;;) {
            bool got = false;
            tm::atomically([&] {
              got = false;
              if (tokens.load() > 0) {
                tokens.store(tokens.load() - 1);
                got = true;
                return;
              }
              tm::TxnSync sync;
              cv.wait_final(sync);
            });
            if (got) break;
          }
        }
        consumed.fetch_add(1);
      }
    });
  }

  // Producers: transactional notify (deferred wake) and naked notify.
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      while (true) {
        const int mine = produced.fetch_add(1);
        if (mine >= total) break;
        if (p % 2 == 0) {
          tm::atomically([&] {
            tokens.store(tokens.load() + 1);
            cv.notify_one();
          });
        } else {
          tm::atomically([&] { tokens.store(tokens.load() + 1); });
          cv.notify_one();
        }
      }
    });
  }

  // Main thread: flip backends mid-flight.  Each set_backend drains every
  // in-flight optimistic transaction at the serial lock, so the waiters and
  // producers above only ever observe a coherent backend per transaction.
  const Backend flips[] = {Backend::NOrec, Backend::LazySTM, Backend::EagerSTM,
                           Backend::NOrec, Backend::EagerSTM};
  for (const Backend b : flips) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    tm::set_backend(b);
  }
  while (consumed.load() < total) {
    cv.notify_all();  // sweep stragglers
    std::this_thread::yield();
  }
  // Finish with the adaptive controller running briefly: switches must keep
  // draining cleanly while it owns the default.
  tm::set_backend_auto(true);
  EXPECT_TRUE(tm::backend_auto_enabled());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  tm::set_backend_auto(false);
  EXPECT_FALSE(tm::backend_auto_enabled());

  for (auto& p : producers) p.join();
  while (consumed.load() < total) {
    cv.notify_all();
    std::this_thread::yield();
  }
  for (auto& w : waiters) w.join();

  // Token conservation and zero lost wakeups.
  EXPECT_EQ(consumed.load(), total);
  EXPECT_EQ(tokens.load_plain(), 0);  // exactly `total` produced and consumed
  EXPECT_EQ(cv.waiter_count(), 0u);

  // Exact Stats fold across the switch quiescence points: every abort was
  // attributed to exactly one (backend, reason) cell, every switch counted,
  // and more than one backend actually ran.
  const tm::Stats s = tm::stats_snapshot();
  // The controller may have added switches of its own during the auto
  // phase; the five manual flips are the floor.
  EXPECT_GE(s.backend_switches, std::size(flips));
  // One row per backend a descriptor runs (eager, lazy, htm, norec).
  static_assert(std::extent_v<decltype(tm::Stats::aborts_by_backend)> == 4);
  std::uint64_t matrix_total = 0;
  for (std::size_t b = 0; b < tm::kStatsBackends; ++b)
    for (std::size_t r = 0; r < tm::kStatsAbortReasons; ++r)
      matrix_total += s.aborts_by_backend[b][r];
  EXPECT_EQ(matrix_total, s.aborts);
  EXPECT_GE(s.commits + s.ro_commits, static_cast<std::uint64_t>(total));

  tm::set_backend_auto(false);
  tm::set_default_backend(saved);
}

// The controller must converge to NOrec on an uncontended low-thread
// profile and count at least one switch doing it.
TEST(TmSwitch, AutoConvergesToNorecWhenUncontended) {
  const Backend saved = tm::default_backend();
  const tm::AdaptiveKnobs saved_knobs = tm::adaptive_knobs();
  tm::set_default_backend(Backend::EagerSTM);
  tm::stats_reset();

  tm::AdaptiveKnobs knobs;
  knobs.window_ms = 10;
  knobs.agree_windows = 2;
  knobs.dwell_windows = 2;
  knobs.min_ops = 50;
  tm::set_adaptive_knobs(knobs);

  tm::var<long> counter(0);
  std::atomic<bool> stop{false};
  std::thread worker([&] {
    while (!stop.load(std::memory_order_relaxed))
      tm::atomically([&] { counter.store(counter.load() + 1); });
  });

  tm::set_backend_auto(true);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (tm::default_backend() != Backend::NOrec &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const Backend picked = tm::default_backend();
  tm::set_backend_auto(false);
  stop.store(true, std::memory_order_relaxed);
  worker.join();

  EXPECT_EQ(picked, Backend::NOrec);
  const tm::Stats s = tm::stats_snapshot();
  EXPECT_GE(s.backend_switches, 1u);

  tm::set_adaptive_knobs(saved_knobs);
  tm::set_default_backend(saved);
}

}  // namespace
}  // namespace tmcv

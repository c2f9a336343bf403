// Backend switching through tm::set_default_backend, the one setter of the
// process default: it waits for in-flight transactions before it returns,
// and under load -- four threads run a mixed condvar-wait + transaction
// token economy while the main thread flips eager -> norec -> htm -> eager
// -> norec -> eager -- tokens are conserved, no wakeup is lost, and the
// Stats fold is exact across the switch quiescence points (the per-backend
// abort matrix must sum to the scalar abort counter no matter where the
// switches landed).  The TmDefault cases check the compiled-in NOrec
// default, its environment seed, and that an HTM section set and restored
// the way run_figure does it runs hardware attempts under a NOrec default.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/condvar.h"
#include "sync/sync_context.h"
#include "tm/api.h"
#include "tm/txn_sync.h"
#include "tm/var.h"

namespace tmcv {
namespace {

using tm::Backend;

// The process default as static initialisation left it (this case runs
// first, and every later case restores the default it found): NOrec when
// TMCV_DEFAULT_BACKEND is unset or empty, the named backend when it is set.
// ctest runs this case twice: once in tm_switch_test under the caller's
// environment, and once as tm_default_env_test with the variable set to
// eager.
TEST(TmDefault, CompiledInNOrecUnlessEnvironmentNamesOne) {
  const char* env = std::getenv("TMCV_DEFAULT_BACKEND");
  if (env == nullptr || *env == '\0')
    EXPECT_EQ(tm::default_backend(), Backend::NOrec);
  else
    EXPECT_STREQ(tm::backend_label(tm::default_backend()), env);
}

// Figure 2 under a NOrec default: run_figure (bench/figure_common.h) sets
// HTM for its section and restores the default it found.  Inside the
// section transactions make hardware attempts, since only a NOrec default
// coerces requests to NOrec, and after it NOrec runs again.
TEST(TmDefault, FigureSectionRunsHtmThenRestoresNOrec) {
  const Backend saved = tm::default_backend();
  tm::set_default_backend(Backend::NOrec);

  tm::var<int> x(0);
  // The backend of the attempt that committed, or nullopt for a serial one.
  const auto committed_on = [&] {
    std::optional<Backend> ran;
    tm::atomically([&] {
      const tm::TxDescriptor& d = tm::descriptor();
      ran = d.state() == tm::TxState::Optimistic
                ? std::optional<Backend>(d.backend())
                : std::nullopt;
      x.store(x.load() + 1);
    });
    return ran;
  };

  const Backend prior = tm::default_backend();
  tm::set_default_backend(Backend::HTM);
  int htm_commits = 0;
  for (int i = 0; i < 100; ++i) htm_commits += committed_on() == Backend::HTM;
  tm::set_default_backend(prior);

  EXPECT_GT(htm_commits, 0);
  EXPECT_EQ(tm::default_backend(), Backend::NOrec);
  EXPECT_EQ(committed_on(), Backend::NOrec);
  EXPECT_EQ(x.load_plain(), 101);

  tm::set_default_backend(saved);
}

TEST(TmSwitch, QuiescedSwitchChangesDefault) {
  const Backend saved = tm::default_backend();
  tm::set_default_backend(Backend::EagerSTM);
  tm::stats_reset();

  tm::set_default_backend(Backend::NOrec);
  EXPECT_EQ(tm::default_backend(), Backend::NOrec);
  tm::set_default_backend(Backend::NOrec);  // no-op: already current
  tm::set_default_backend(Backend::HTM);
  EXPECT_EQ(tm::default_backend(), Backend::HTM);

  const tm::Stats s = tm::stats_snapshot();
  EXPECT_EQ(s.backend_switches, 2u);

  tm::set_default_backend(saved);
}

// A switch must not return while a transaction begun under the old default
// is still running: NOrec and orec-family transactions may never overlap.
TEST(TmSwitch, SwitchWaitsForInFlightTransaction) {
  const Backend saved = tm::default_backend();
  tm::set_default_backend(Backend::EagerSTM);

  tm::var<int> x(0);
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  std::atomic<bool> committed{false};
  std::thread txn([&] {
    tm::atomically(Backend::EagerSTM, [&] {
      x.store(x.load() + 1);
      entered.store(true);
      while (!release.load()) std::this_thread::yield();
    });
    committed.store(true);
  });
  while (!entered.load()) std::this_thread::yield();

  std::atomic<bool> calling{false};
  std::atomic<bool> returned{false};
  // Read at return: the transaction was let go before the switch returned.
  // (`committed` is no witness here: it is set after atomically returns,
  // which is after the drain point, so a switch may legally return first.)
  bool released_at_return = false;
  std::thread switcher([&] {
    calling.store(true);
    tm::set_default_backend(Backend::NOrec);
    released_at_return = release.load();
    returned.store(true);
  });
  while (!calling.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(returned.load()) << "switch returned mid-transaction";

  release.store(true);
  txn.join();
  switcher.join();
  EXPECT_TRUE(released_at_return);
  EXPECT_TRUE(committed.load());
  EXPECT_EQ(tm::default_backend(), Backend::NOrec);
  EXPECT_EQ(x.load_plain(), 1);

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

  // Main thread: flip backends mid-flight.  Each switch drains every
  // in-flight optimistic transaction at the serial lock, so the waiters and
  // producers above only ever observe a coherent backend per transaction.
  const Backend flips[] = {Backend::NOrec, Backend::HTM, Backend::EagerSTM,
                           Backend::NOrec, Backend::EagerSTM};
  for (const Backend b : flips) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    tm::set_default_backend(b);
  }

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
  EXPECT_EQ(s.backend_switches, std::size(flips));
  // One row per backend a descriptor runs (eager, htm, norec).
  static_assert(std::extent_v<decltype(tm::Stats::aborts_by_backend)> == 3);
  std::uint64_t matrix_total = 0;
  for (std::size_t b = 0; b < tm::kStatsBackends; ++b)
    for (std::size_t r = 0; r < tm::kStatsAbortReasons; ++r)
      matrix_total += s.aborts_by_backend[b][r];
  EXPECT_EQ(matrix_total, s.aborts);
  EXPECT_GE(s.commits + s.ro_commits, static_cast<std::uint64_t>(total));

  tm::set_default_backend(saved);
}

}  // namespace
}  // namespace tmcv

// NOrec backend semantics: value-based validation (a silent store does not
// abort readers), read-your-own-write through the redo log, multi-threaded
// counter conservation, retry_wait integration, and the family override
// that keeps NOrec and orec transactions from ever overlapping.
#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <type_traits>
#include <vector>

#include "tm/api.h"
#include "tm/var.h"

namespace tmcv {
namespace {

using tm::Backend;

class TmNorec : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = tm::default_backend();
    tm::set_default_backend(Backend::NOrec);
    tm::stats_reset();
  }
  void TearDown() override { tm::set_default_backend(saved_); }

 private:
  Backend saved_{};
};

TEST_F(TmNorec, ReadYourOwnWrite) {
  tm::var<int> x(1);
  int seen = -1;
  tm::atomically([&] {
    x.store(41);
    x.store(x.load() + 1);
    seen = x.load();
  });
  EXPECT_EQ(seen, 42);
  EXPECT_EQ(x.load_plain(), 42);
  const tm::Stats s = tm::stats_snapshot();
  EXPECT_EQ(s.commits, 1u);
  EXPECT_EQ(s.norec_commits, 1u);
}

TEST_F(TmNorec, ReadOnlyCommitSkipsCounterBump) {
  tm::var<int> x(7);
  const int v = tm::atomically([&] { return x.load(); });
  EXPECT_EQ(v, 7);
  const tm::Stats s = tm::stats_snapshot();
  EXPECT_EQ(s.ro_commits, 1u);
  EXPECT_EQ(s.norec_commits, 0u);  // read-only: no counter traffic
}

// The NOrec differentiator: validation compares *values*, so a concurrent
// commit that writes back the value a reader already saw (a silent store)
// must not abort the reader.  An orec backend would abort here -- the
// stripe version moved -- which is exactly the conservatism NOrec sheds.
TEST_F(TmNorec, SilentStoreDoesNotAbortReader) {
  tm::var<std::uint64_t> x(42);
  std::atomic<bool> reader_in_txn{false};
  std::atomic<bool> writer_done{false};

  std::thread writer([&] {
    while (!reader_in_txn.load(std::memory_order_acquire))
      std::this_thread::yield();
    tm::atomically([&] { x.store(42); });  // silent: same value, counter bumps
    writer_done.store(true, std::memory_order_release);
  });

  std::uint64_t first = 0, second = 0;
  tm::atomically([&] {
    first = x.load();
    reader_in_txn.store(true, std::memory_order_release);
    while (!writer_done.load(std::memory_order_acquire))
      std::this_thread::yield();
    second = x.load();  // counter moved: forces value revalidation
  });
  writer.join();

  EXPECT_EQ(first, 42u);
  EXPECT_EQ(second, 42u);
  const tm::Stats s = tm::stats_snapshot();
  EXPECT_EQ(s.aborts, 0u);
  EXPECT_EQ(s.norec_val_failures, 0u);
  EXPECT_GE(s.norec_validations, 1u);
  EXPECT_EQ(s.norec_commits, 1u);  // the writer's silent store
}

TEST_F(TmNorec, MultiThreadedCounterConservation) {
  constexpr int kThreads = 4;
  constexpr int kIncrements = 2000;
  tm::var<long> counter(0);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i)
        tm::atomically([&] { counter.store(counter.load() + 1); });
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(counter.load_plain(), long{kThreads} * kIncrements);
  const tm::Stats s = tm::stats_snapshot();
  EXPECT_GE(s.commits, static_cast<std::uint64_t>(kThreads) * kIncrements);
  // Every abort is attributed to the NOrec row of the matrix (the family
  // override means no other backend ran), and the matrix sums to `aborts`.
  static_assert(std::extent_v<decltype(tm::Stats::aborts_by_backend)> == 3);
  std::uint64_t matrix_total = 0, norec_row = 0;
  for (std::size_t b = 0; b < tm::kStatsBackends; ++b)
    for (std::size_t r = 0; r < tm::kStatsAbortReasons; ++r) {
      matrix_total += s.aborts_by_backend[b][r];
      if (b == static_cast<std::size_t>(Backend::NOrec))
        norec_row += s.aborts_by_backend[b][r];
    }
  EXPECT_EQ(matrix_total, s.aborts);
  EXPECT_EQ(norec_row, s.aborts);
}

TEST_F(TmNorec, RetryWaitWakesOnNorecCommit) {
  tm::var<int> flag(0);
  int observed = 0;
  std::thread waiter([&] {
    tm::atomically([&] {
      if (flag.load() == 0) tm::retry_wait();
      observed = flag.load();
    });
  });
  // Give the waiter a chance to park, then publish through a NOrec commit
  // (which bumps the commit signal and wakes the futex).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  tm::atomically([&] { flag.store(9); });
  waiter.join();
  EXPECT_EQ(observed, 9);
}

// Family override, NOrec-default side: every request -- including explicit
// EagerSTM and HTM requests -- runs NOrec while the default is NOrec.
TEST_F(TmNorec, FamilyOverrideCoercesExplicitRequests) {
  tm::var<int> x(0);
  tm::atomically(Backend::EagerSTM, [&] { x.store(x.load() + 1); });
  tm::atomically(Backend::HTM, [&] { x.store(x.load() + 1); });
  EXPECT_EQ(x.load_plain(), 2);
  const tm::Stats s = tm::stats_snapshot();
  EXPECT_EQ(s.norec_commits, 2u);
}

// Family override, orec-default side: an explicit NOrec request under an
// orec default coerces to EagerSTM (orec family, no global counter).
TEST_F(TmNorec, NorecRequestUnderOrecDefaultRunsEager) {
  tm::set_default_backend(Backend::EagerSTM);
  tm::stats_reset();
  tm::var<int> x(0);
  Backend ran = Backend::NOrec;
  tm::atomically(Backend::NOrec, [&] {
    ran = tm::descriptor().backend();
    x.store(x.load() + 1);
  });
  EXPECT_EQ(ran, Backend::EagerSTM);
  EXPECT_EQ(x.load_plain(), 1);
  const tm::Stats s = tm::stats_snapshot();
  EXPECT_EQ(s.commits, 1u);
  EXPECT_EQ(s.norec_commits, 0u);
}

// A committer descheduled mid-write-back holds the counter odd until it runs
// again.  With both threads pinned to one CPU, the holder makes the counter
// odd and yields, so every round the beginner meets an odd counter that
// only the holder can release.  A beginner that only spun would keep the
// CPU for the rest of its time slice (milliseconds) first; one that yields
// hands it back within microseconds.
TEST(TmNorecBegin, OddCounterYieldsToTheHolder) {
  cpu_set_t allowed;
  ASSERT_EQ(sched_getaffinity(0, sizeof allowed, &allowed), 0);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &allowed)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  const auto pin = [&] {
    return pthread_setaffinity_np(pthread_self(), sizeof one, &one) == 0;
  };

  constexpr int kRounds = 300;
  auto& clk = tm::algs::norec_clock();
  std::atomic<bool> stop{false};
  std::atomic<bool> pinned{true};
  std::thread holder([&] {
    if (!pin()) pinned.store(false);
    while (!stop.load(std::memory_order_acquire)) {
      std::uint64_t t = tm::algs::norec_begin_snapshot();
      if (!clk.compare_exchange_strong(t, t + 1)) continue;
      sched_yield();  // descheduled mid-write-back
      clk.store(t + 2, std::memory_order_release);
      sched_yield();
    }
  });
  std::chrono::nanoseconds total{0};
  std::thread beginner([&] {
    if (!pin()) pinned.store(false);
    for (int r = 0; r < kRounds; ++r) {
      sched_yield();  // let the holder take the counter
      const auto t0 = std::chrono::steady_clock::now();
      const std::uint64_t t = tm::algs::norec_begin_snapshot();
      total += std::chrono::steady_clock::now() - t0;
      EXPECT_EQ(t & 1u, 0u);
    }
  });
  beginner.join();
  stop.store(true, std::memory_order_release);
  holder.join();
  if (!pinned.load()) GTEST_SKIP() << "cannot pin threads to one CPU";

  const double mean_us =
      std::chrono::duration<double, std::micro>(total).count() / kRounds;
  std::printf("mean begin latency on an odd counter: %.1f us\n", mean_us);
  EXPECT_LT(mean_us, 500.0);
}

}  // namespace
}  // namespace tmcv

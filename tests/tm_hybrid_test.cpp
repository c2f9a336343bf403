// Hybrid retry ladder (HTM -> EagerSTM -> serial) and HTM chaos injection.
#include <gtest/gtest.h>

#include "backend_fixture.h"  // orec/HTM-specific: pin the eager default

#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "backend_param.h"
#include "tm/api.h"
#include "tm/var.h"

namespace tmcv::tm {
namespace {

std::uint64_t aborts_of(const Stats& s, Backend b, TxAbort::Reason r) {
  return s.aborts_by_backend[static_cast<std::size_t>(b)]
                            [static_cast<std::size_t>(r)];
}

std::uint64_t row_total(const Stats& s, Backend b) {
  std::uint64_t total = 0;
  for (std::uint64_t n : s.aborts_by_backend[static_cast<std::size_t>(b)])
    total += n;
  return total;
}

TEST(TmHybrid, SmallTransactionCommitsInHardware) {
  stats_reset();
  var<int> x(0);
  atomically(Backend::Hybrid, [&] { x.store(x.load() + 1); });
  EXPECT_EQ(x.load(), 1);
  // No fallback needed: zero serial commits, zero escalations.
  const Stats s = stats_snapshot();
  EXPECT_EQ(s.serial_fallbacks, 0u);
  EXPECT_EQ(s.serial_commits, 0u);
}

TEST(TmHybrid, CapacityOverflowFallsBackToSoftware) {
  stats_reset();
  constexpr std::size_t kVars = TxDescriptor::kHtmWriteCapacity + 8;
  std::vector<std::unique_ptr<var<int>>> vars;
  for (std::size_t i = 0; i < kVars; ++i)
    vars.push_back(std::make_unique<var<int>>(0));
  atomically(Backend::Hybrid, [&] {
    for (std::size_t i = 0; i < kVars; ++i) vars[i]->store(1);
  });
  for (std::size_t i = 0; i < kVars; ++i) EXPECT_EQ(vars[i]->load(), 1);
  const Stats s = stats_snapshot();
  // One hardware attempt: a capacity abort forfeits the rest of the
  // hardware budget.
  EXPECT_EQ(aborts_of(s, Backend::HTM, TxAbort::Reason::Capacity), 1u);
  // The software STM absorbed it: no serial section was needed (unlike
  // Backend::HTM, whose only fallback is the serial lock).
  EXPECT_EQ(s.serial_fallbacks, 0u);
}

TEST(TmHybrid, LadderStepsFromHardwareToSoftwareExactly) {
  // Chaos at 100% kills every hardware access, so each transaction spends
  // its whole hardware budget on injected conflicts, then commits on the
  // EagerSTM rung at the first try (single thread: nothing to conflict
  // with) -- and never reaches the serial lock.
  stats_reset();
  TxDescriptor::set_htm_chaos_per_million(1000000);
  constexpr int kTxns = 50;
  var<long> counter(0);
  for (int i = 0; i < kTxns; ++i)
    atomically(Backend::Hybrid, [&] { counter.store(counter.load() + 1); });
  TxDescriptor::set_htm_chaos_per_million(0);
  EXPECT_EQ(counter.load(), kTxns);
  const Stats s = stats_snapshot();
  EXPECT_EQ(s.serial_fallbacks, 0u);
  EXPECT_EQ(s.commits, static_cast<std::uint64_t>(kTxns));
  EXPECT_GE(s.htm_chaos_aborts, static_cast<std::uint64_t>(kTxns));
  EXPECT_EQ(aborts_of(s, Backend::HTM, TxAbort::Reason::Conflict),
            s.htm_chaos_aborts);
  EXPECT_EQ(row_total(s, Backend::HTM), s.htm_chaos_aborts);
  EXPECT_EQ(row_total(s, Backend::EagerSTM), 0u);
  // The matrix has one row per backend a descriptor runs -- no Hybrid row
  // -- and accounts for every abort.
  static_assert(std::extent_v<decltype(Stats::aborts_by_backend)> == 3);
  std::uint64_t matrix_total = 0;
  for (std::size_t b = 0; b < kStatsBackends; ++b)
    matrix_total += row_total(s, static_cast<Backend>(b));
  EXPECT_EQ(matrix_total, s.aborts);
}

TEST(TmHybrid, ConcurrentCountersNoLostUpdates) {
  var<long> counter(0);
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i)
        atomically(Backend::Hybrid, [&] { counter.store(counter.load() + 1); });
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.load(), static_cast<long>(kThreads) * kIters);
}

TEST(TmHybrid, RetryWaitWorksUnderHybrid) {
  var<bool> flag(false);
  std::thread waiter([&] {
    atomically(Backend::Hybrid, [&] {
      if (!flag.load()) retry_wait();
      EXPECT_TRUE(flag.load());
    });
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  atomically([&] { flag.store(true); });
  waiter.join();
}

TEST(TmHybrid, NamedInToString) {
  EXPECT_STREQ(to_string(Backend::Hybrid), "Hybrid");
}

class ChaosGuard {
 public:
  explicit ChaosGuard(std::uint32_t rate) {
    TxDescriptor::set_htm_chaos_per_million(rate);
  }
  ~ChaosGuard() { TxDescriptor::set_htm_chaos_per_million(0); }
};

TEST(TmChaos, HtmSurvivesInjectedAborts) {
  stats_reset();
  ChaosGuard chaos(100000);  // 10% abort probability per access
  var<long> counter(0);
  for (int i = 0; i < 500; ++i)
    atomically(Backend::HTM, [&] { counter.store(counter.load() + 1); });
  EXPECT_EQ(counter.load(), 500);
  const Stats s = stats_snapshot();
  EXPECT_GT(s.htm_chaos_aborts, 0u);
  EXPECT_FALSE(s.to_string().empty());
}

TEST(TmChaos, HybridSurvivesHeavyChaosViaSoftware) {
  stats_reset();
  ChaosGuard chaos(500000);  // 50%: hardware attempts almost always die
  var<long> counter(0);
  for (int i = 0; i < 200; ++i)
    atomically(Backend::Hybrid, [&] { counter.store(counter.load() + 1); });
  EXPECT_EQ(counter.load(), 200);
  // The software path carried the load; correctness is unaffected.
  EXPECT_GT(stats_snapshot().htm_chaos_aborts, 0u);
}

TEST(TmChaos, ChaosDoesNotAffectStmBackends) {
  stats_reset();
  ChaosGuard chaos(1000000);  // would kill every HTM access
  var<long> counter(0);
  for (Backend b : {Backend::EagerSTM, Backend::NOrec}) {
    const test::ScopedDefaultBackend pin(b);
    for (int i = 0; i < 100; ++i)
      atomically(b, [&] { counter.store(counter.load() + 1); });
  }
  EXPECT_EQ(counter.load(), 200);
  EXPECT_EQ(stats_snapshot().htm_chaos_aborts, 0u);
}

TEST(TmChaos, CondvarShapedTransactionsSurviveChaos) {
  // The condvar's internal transactions under chaotic HTM: wait/notify
  // machinery must remain exact (this is the Figure-2 configuration with
  // hostile hardware).
  stats_reset();
  ChaosGuard chaos(50000);  // 5%
  var<long> head(0), tail(0);
  for (int i = 0; i < 300; ++i) {
    atomically(Backend::HTM, [&] {
      head.store(head.load() + 1);
      tail.store(tail.load() + 1);
    });
  }
  EXPECT_EQ(head.load(), 300);
  EXPECT_EQ(tail.load(), 300);
}

}  // namespace
}  // namespace tmcv::tm

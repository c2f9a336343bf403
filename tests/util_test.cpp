// Unit tests for src/util: PRNGs, statistics, backoff, CPU queries.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <set>
#include <vector>

#include "util/backoff.h"
#include "util/cpu.h"
#include "util/net.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/timing.h"
#include "util/zipf.h"

namespace tmcv {
namespace {

TEST(SplitMix64, DeterministicSequence) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Xoshiro256, DeterministicSequence) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro256, NextBelowRespectsBound) {
  Xoshiro256 rng(123);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Xoshiro256, NextBelowCoversRange) {
  Xoshiro256 rng(99);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Xoshiro256, NextDoubleInUnitInterval) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Stats, SummaryOfKnownSample) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.n, 8u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_NEAR(s.stddev, std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Stats, SummaryEmpty) {
  const Summary s = summarize({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, SummarySingleElementHasZeroStddev) {
  const std::vector<double> xs{3.5};
  const Summary s = summarize(xs);
  EXPECT_DOUBLE_EQ(s.mean, 3.5);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Stats, GeomeanOfPowers) {
  const std::vector<double> xs{1.0, 4.0, 16.0};
  EXPECT_NEAR(geomean(xs), 4.0, 1e-12);
}

TEST(Stats, GeomeanEmptyIsOne) { EXPECT_DOUBLE_EQ(geomean({}), 1.0); }

TEST(Stats, GeomeanInvariantToOrder) {
  const std::vector<double> a{0.5, 2.0, 1.25, 0.8};
  const std::vector<double> b{0.8, 1.25, 2.0, 0.5};
  EXPECT_DOUBLE_EQ(geomean(a), geomean(b));
}

TEST(Stats, MedianOddEven) {
  const std::vector<double> odd{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(median(odd), 2.0);
  const std::vector<double> even{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median(even), 2.5);
}

TEST(Stats, RunTrialsCollectsAll) {
  int calls = 0;
  const auto times = run_trials(5, [&] {
    ++calls;
    return static_cast<double>(calls);
  });
  EXPECT_EQ(calls, 5);
  ASSERT_EQ(times.size(), 5u);
  EXPECT_DOUBLE_EQ(times[4], 5.0);
}

TEST(Backoff, EscalatesToYield) {
  Backoff b(3);
  for (int i = 0; i < 10; ++i) b.wait();
  EXPECT_EQ(b.rounds(), 3u);
  b.reset();
  EXPECT_EQ(b.rounds(), 0u);
}

TEST(Backoff, YieldCapReturnsZeroAndHoldsRound) {
  // Past the cap every step is a sched_yield (returns 0) and the round
  // counter stops advancing -- a long waiter never overflows the shift.
  Backoff b(2, /*seed=*/42);
  EXPECT_GT(b.wait(), 0u);  // round 0: spin
  EXPECT_GT(b.wait(), 0u);  // round 1: spin
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(b.wait(), 0u);  // yields from here on
    EXPECT_EQ(b.rounds(), 2u);
  }
}

TEST(Backoff, JitteredSpinsAreBoundedAndDesynchronized) {
  // Spin counts draw uniformly from [1, 2^round]; two waiters with
  // different seeds must not produce identical schedules (the lockstep
  // herding the jitter exists to break).
  Backoff a(/*yield_after=*/12, /*seed=*/1);
  Backoff b(/*yield_after=*/12, /*seed=*/2);
  bool differ = false;
  for (std::uint32_t round = 0; round < 12; ++round) {
    const std::uint32_t bound = 1u << round;
    const std::uint32_t sa = a.wait();
    const std::uint32_t sb = b.wait();
    EXPECT_GE(sa, 1u);
    EXPECT_LE(sa, bound);
    EXPECT_GE(sb, 1u);
    EXPECT_LE(sb, bound);
    differ = differ || sa != sb;
  }
  EXPECT_TRUE(differ);
}

TEST(Cpu, OnlineCpusAtLeastOne) { EXPECT_GE(online_cpus(), 1u); }

TEST(Cpu, RtmQueryDoesNotCrash) {
  // Value is hardware-dependent; just exercise the cpuid path.
  (void)cpu_has_rtm();
  SUCCEED();
}


TEST(Cpu, EffectiveCpusWithinOnline) {
  const unsigned eff = effective_cpus();
  EXPECT_GE(eff, 1u);
  EXPECT_LE(eff, online_cpus());
}

// ---- ZipfDistribution (util/zipf.h) ----

TEST(Zipf, DeterministicUnderFixedSeed) {
  // The reproducibility contract for every benchmark that reports
  // "zipfian": identical (n, theta, seed) must give identical draws.
  const ZipfDistribution zipf(1024, 0.9);
  Xoshiro256 a(12345), b(12345);
  for (int i = 0; i < 2000; ++i) EXPECT_EQ(zipf(a), zipf(b));
}

TEST(Zipf, DrawsStayInRange) {
  const ZipfDistribution zipf(64, 0.9);
  Xoshiro256 rng(7);
  for (int i = 0; i < 5000; ++i) EXPECT_LT(zipf(rng), 64u);
}

TEST(Zipf, SkewConcentratesOnHotRanks) {
  // theta = 0.9 over 64 ranks: ~35% of the mass on the top 4 (the skew
  // bench/micro_tm.cpp's contended profile documents at kCwTheta).  Check both the analytic CDF and an
  // empirical sample against a loose band.
  const ZipfDistribution zipf(64, 0.9);
  EXPECT_NEAR(zipf.cumulative(4), 0.35, 0.05);
  Xoshiro256 rng(99);
  int hot = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i)
    if (zipf(rng) < 4) ++hot;
  EXPECT_NEAR(static_cast<double>(hot) / kDraws, zipf.cumulative(4), 0.02);
}

TEST(Zipf, ThetaZeroIsUniform) {
  const ZipfDistribution zipf(16, 0.0);
  for (std::size_t k = 1; k <= 16; ++k)
    EXPECT_NEAR(zipf.cumulative(k), static_cast<double>(k) / 16.0, 1e-9);
}

// ---- loopback socket helpers (util/net.h) ----

TEST(Net, EphemeralListenAndRoundtrip) {
  std::uint16_t port = 0;
  const int lfd = listen_loopback(0, port);
  ASSERT_GE(lfd, 0);
  EXPECT_GT(port, 0);  // port 0 resolved to the kernel's pick
  const int cfd = connect_loopback(port);
  ASSERT_GE(cfd, 0);
  EXPECT_TRUE(set_tcp_nodelay(cfd));
  const int sfd = ::accept(lfd, nullptr, nullptr);
  ASSERT_GE(sfd, 0);
  const char msg[] = "ping";
  EXPECT_TRUE(send_all(cfd, msg, sizeof msg));
  char buf[8] = {};
  std::size_t got = 0;
  while (got < sizeof msg) {
    const ssize_t n = ::recv(sfd, buf + got, sizeof buf - got, 0);
    ASSERT_GT(n, 0);
    got += static_cast<std::size_t>(n);
  }
  EXPECT_STREQ(buf, "ping");
  ::close(sfd);
  ::close(cfd);
  ::close(lfd);
}

TEST(Net, TakenPortFailsWithAddrInUse) {
  // The "fail loudly when the port is taken" contract: the second bind must
  // return -1 with errno == EADDRINUSE (SO_REUSEADDR does not allow two
  // live listeners on one port).
  std::uint16_t port = 0;
  const int lfd = listen_loopback(0, port);
  ASSERT_GE(lfd, 0);
  std::uint16_t second = 0;
  errno = 0;
  EXPECT_EQ(listen_loopback(port, second), -1);
  EXPECT_EQ(errno, EADDRINUSE);
  ::close(lfd);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  // Burn a little time deterministically.
  volatile std::uint64_t sink = 0;
  for (int i = 0; i < 100000; ++i)
    sink = sink + static_cast<std::uint64_t>(i);
  EXPECT_GT(sw.elapsed_nanos(), 0u);
  EXPECT_GE(sw.elapsed_seconds(), 0.0);
}

}  // namespace
}  // namespace tmcv

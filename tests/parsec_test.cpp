// Integration tests for the PARSEC mini-kernels: every kernel completes
// under every software system, checksums agree across systems (the workloads
// are deterministic), and the Table-1 registry is populated.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "parsec/registry.h"
#include "parsec/runner.h"
#include "tm/api.h"

namespace tmcv::parsec {
namespace {

// Small inputs for tests: scale well below benchmark size.
KernelConfig test_config(int threads) {
  KernelConfig cfg;
  cfg.threads = threads;
  cfg.scale = 0.05;
  cfg.seed = 7;
  return cfg;
}

class KernelMatrix
    : public ::testing::TestWithParam<std::tuple<std::string, System, int>> {};

INSTANTIATE_TEST_SUITE_P(
    AllKernelsSystemsThreads, KernelMatrix,
    ::testing::Combine(
        ::testing::Values("facesim", "ferret", "fluidanimate",
                          "streamcluster", "bodytrack", "x264", "raytrace",
                          "dedup"),
        ::testing::Values(System::Pthread, System::TmCv, System::Tm),
        ::testing::Values(1, 2, 4)),
    [](const auto& info) {
      const std::string& name = std::get<0>(info.param);
      const System sys = std::get<1>(info.param);
      const int threads = std::get<2>(info.param);
      std::string s;
      switch (sys) {
        case System::Pthread:
          s = "pthread";
          break;
        case System::TmCv:
          s = "tmcv";
          break;
        case System::Tm:
          s = "tm";
          break;
      }
      return name + "_" + s + "_t" + std::to_string(threads);
    });

TEST_P(KernelMatrix, CompletesWithWork) {
  const auto& [name, sys, threads] = GetParam();
  const KernelInfo* kernel = find_kernel(name);
  ASSERT_NE(kernel, nullptr);
  const KernelResult r = kernel->run(sys, test_config(threads));
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GT(r.units, 0u);
}

class KernelChecksum : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelChecksum,
                         ::testing::Values("facesim", "ferret",
                                           "fluidanimate", "streamcluster",
                                           "bodytrack", "x264", "raytrace",
                                           "dedup"),
                         [](const auto& info) { return info.param; });

// The synthetic workloads are deterministic in (seed, input, threads): all
// three systems must produce the same checksum at the same thread count.
// This is the strongest end-to-end evidence that transactionalization did
// not change program semantics.  Kernels that do not partition work by
// thread id are additionally thread-count-invariant.
TEST_P(KernelChecksum, SystemsAgree) {
  const KernelInfo* kernel = find_kernel(GetParam());
  ASSERT_NE(kernel, nullptr);
  const KernelResult base = kernel->run(System::Pthread, test_config(2));
  const KernelResult tmcv_r = kernel->run(System::TmCv, test_config(2));
  const KernelResult tm_r = kernel->run(System::Tm, test_config(2));
  EXPECT_EQ(base.checksum, tmcv_r.checksum);
  EXPECT_EQ(base.checksum, tm_r.checksum);
  EXPECT_EQ(base.units, tm_r.units);
  // fluidanimate and streamcluster split fixed work into per-thread slices
  // (seeded by thread id), so only they vary with the thread count.
  if (GetParam() != "fluidanimate" && GetParam() != "streamcluster") {
    const KernelResult tm4_r = kernel->run(System::Tm, test_config(4));
    EXPECT_EQ(base.checksum, tm4_r.checksum);
  }
}

TEST(ParsecRegistry, AllEightKernelsRegistered) {
  const auto& rows = registered_characteristics();
  ASSERT_EQ(rows.size(), 8u);
  for (const auto& paper_row : paper_table1()) {
    bool found = false;
    for (const auto& row : rows)
      if (row.benchmark == paper_row.benchmark) found = true;
    EXPECT_TRUE(found) << paper_row.benchmark;
  }
}

TEST(ParsecRegistry, CharacteristicsAreInternallyConsistent) {
  for (const auto& row : registered_characteristics()) {
    // Condvar transactions are a subset of all transactions; barrier counts
    // are subsets of their columns.
    EXPECT_LE(row.condvar_transactions, row.total_transactions)
        << row.benchmark;
    EXPECT_LE(row.condvar_transactions_barrier, row.condvar_transactions)
        << row.benchmark;
    EXPECT_LE(row.refactored_barrier, row.refactored_continuations)
        << row.benchmark;
    EXPECT_GT(row.total_transactions, 0) << row.benchmark;
  }
}

TEST(ParsecRegistry, PaperTableTotalsMatchPublishedTotals) {
  int total = 0, cv = 0, cv_barrier = 0, refactored = 0, ref_barrier = 0;
  for (const auto& row : paper_table1()) {
    total += row.total_transactions;
    cv += row.condvar_transactions;
    cv_barrier += row.condvar_transactions_barrier;
    refactored += row.refactored_continuations;
    ref_barrier += row.refactored_barrier;
  }
  // Paper Table 1 TOTAL row: 65 / 19 (6) / 11 (5).
  EXPECT_EQ(total, 65);
  EXPECT_EQ(cv, 19);
  EXPECT_EQ(cv_barrier, 6);
  EXPECT_EQ(refactored, 11);
  EXPECT_EQ(ref_barrier, 5);
}

TEST(ParsecRunner, KernelTableIsComplete) {
  const auto& ks = kernels();
  ASSERT_EQ(ks.size(), 8u);
  for (const auto& k : ks) {
    EXPECT_NE(k.run, nullptr);
    EXPECT_FALSE(k.threads_westmere.empty());
    EXPECT_FALSE(k.threads_haswell.empty());
    EXPECT_EQ(find_kernel(k.name), &k);
  }
  EXPECT_EQ(find_kernel("nonexistent"), nullptr);
}

TEST(ParsecRunner, SystemNames) {
  EXPECT_STREQ(to_string(System::Pthread), "Parsec+pthreadCondVar");
  EXPECT_STREQ(to_string(System::TmCv), "Parsec+TMCondVar");
  EXPECT_STREQ(to_string(System::Tm), "TMParsec+TMCondVar");
}

// Kernels under the HTM backend (the "Haswell" configuration).
TEST(ParsecHtm, DedupCompletesUnderHtmBackend) {
  const KernelInfo* kernel = find_kernel("dedup");
  ASSERT_NE(kernel, nullptr);
  const tm::Backend saved = tm::default_backend();
  tm::set_default_backend(tm::Backend::HTM);
  const KernelResult r = kernel->run(System::Tm, test_config(2));
  EXPECT_GT(r.units, 0u);
  tm::set_default_backend(saved);
}

TEST(ParsecHtm, CondvarInternalsNeverSyscallInsideHtm) {
  // The §3.2 design claim: WAIT commits before sleeping and NOTIFY defers
  // posts to commit handlers, so no semaphore syscall ever executes inside
  // a hardware transaction.  Run a condvar-heavy kernel fully
  // transactionalized on the HTM backend and verify zero syscall aborts.
  const KernelInfo* kernel = find_kernel("ferret");
  ASSERT_NE(kernel, nullptr);
  const tm::Backend saved = tm::default_backend();
  tm::set_default_backend(tm::Backend::HTM);
  tm::stats_reset();
  const KernelResult r = kernel->run(System::Tm, test_config(4));
  EXPECT_GT(r.units, 0u);
  EXPECT_EQ(tm::stats_snapshot().aborts_by_backend[static_cast<std::size_t>(
                tm::Backend::HTM)][static_cast<std::size_t>(
                tm::TxAbort::Reason::Syscall)],
            0u);
  tm::set_default_backend(saved);
}

TEST(ParsecHtm, BarrierKernelCompletesUnderHtmBackend) {
  const KernelInfo* kernel = find_kernel("fluidanimate");
  ASSERT_NE(kernel, nullptr);
  const tm::Backend saved = tm::default_backend();
  tm::set_default_backend(tm::Backend::HTM);
  const KernelResult r = kernel->run(System::Tm, test_config(2));
  EXPECT_GT(r.units, 0u);
  tm::set_default_backend(saved);
}

}  // namespace
}  // namespace tmcv::parsec

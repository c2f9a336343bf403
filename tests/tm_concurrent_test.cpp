// Multi-threaded correctness of the TM runtime: atomicity, isolation,
// conservation invariants, and serial-mode interaction, on every backend.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "backend_param.h"
#include "tm/api.h"
#include "tm/var.h"

namespace tmcv::tm {
namespace {

class TmConcurrent : public test::BackendParamTest {};

INSTANTIATE_TEST_SUITE_P(AllBackends, TmConcurrent,
                         ::testing::Values(Backend::EagerSTM, Backend::HTM,
                                           Backend::NOrec),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST_P(TmConcurrent, CounterHasNoLostUpdates) {
  constexpr int kThreads = 4;
  constexpr int kIters = 3000;
  var<long> counter(0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i)
        atomically(GetParam(), [&] { counter.store(counter.load() + 1); });
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.load(), static_cast<long>(kThreads) * kIters);
}

TEST_P(TmConcurrent, BankTransfersConserveTotal) {
  // Classic isolation test: concurrent transfers between accounts must
  // never create or destroy money, and every observer snapshot must see the
  // invariant total.
  constexpr int kAccounts = 16;
  constexpr int kThreads = 4;
  constexpr int kTransfers = 2000;
  constexpr long kInitial = 1000;
  tm::array<long, kAccounts> accounts;
  for (int i = 0; i < kAccounts; ++i) accounts[i].store_plain(kInitial);

  std::atomic<int> bad_snapshots{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(1000 + t);
      for (int i = 0; i < kTransfers; ++i) {
        const auto from = rng.next_below(kAccounts);
        const auto to = rng.next_below(kAccounts);
        const long amount = static_cast<long>(rng.next_below(50));
        atomically(GetParam(), [&] {
          accounts[from].store(accounts[from].load() - amount);
          accounts[to].store(accounts[to].load() + amount);
        });
        if (i % 100 == 0) {
          // Observer transaction: a full-sweep snapshot must balance.
          const long total = atomically(GetParam(), [&] {
            long sum = 0;
            for (int a = 0; a < kAccounts; ++a) sum += accounts[a].load();
            return sum;
          });
          if (total != kAccounts * kInitial) bad_snapshots.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  long total = 0;
  for (int a = 0; a < kAccounts; ++a) total += accounts[a].load();
  EXPECT_EQ(total, kAccounts * kInitial);
  EXPECT_EQ(bad_snapshots.load(), 0);
}

TEST_P(TmConcurrent, WriteSkewPrevented) {
  // x + y <= 1 invariant: each txn reads both and writes one; a serializable
  // TM must not allow both writers to succeed from the same snapshot.
  var<int> x(0), y(0);
  constexpr int kRounds = 500;
  int violations = 0;
  for (int round = 0; round < kRounds; ++round) {
    x.store_plain(0);
    y.store_plain(0);
    std::thread a([&] {
      atomically(GetParam(), [&] {
        if (x.load() + y.load() < 1) y.store(y.load() + 1);
      });
    });
    std::thread b([&] {
      atomically(GetParam(), [&] {
        if (x.load() + y.load() < 1) x.store(x.load() + 1);
      });
    });
    a.join();
    b.join();
    if (x.load() + y.load() > 1) ++violations;
  }
  EXPECT_EQ(violations, 0);
}

TEST_P(TmConcurrent, IrrevocableExcludesOptimistic) {
  // While an irrevocable section runs, no optimistic transaction commits:
  // the serial section increments a plain (uninstrumented) counter pair and
  // optimistic observers must never see it torn.
  var<long> a(0), b(0);
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::thread serial_thread([&] {
    for (int i = 0; i < 300; ++i) {
      irrevocably([&] {
        a.store(a.load() + 1);
        b.store(b.load() + 1);
      });
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        const auto pair = atomically(GetParam(), [&] {
          return std::pair<long, long>(a.load(), b.load());
        });
        if (pair.first != pair.second) torn.fetch_add(1);
      }
    });
  }
  serial_thread.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(a.load(), 300);
  EXPECT_EQ(b.load(), 300);
}

TEST_P(TmConcurrent, OnCommitHandlersFireExactlyOncePerCommit) {
  constexpr int kThreads = 4;
  constexpr int kIters = 1000;
  var<long> x(0);
  std::atomic<long> fired{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        atomically(GetParam(), [&] {
          x.store(x.load() + 1);
          on_commit([&] { fired.fetch_add(1); });
        });
      }
    });
  }
  for (auto& th : threads) th.join();
  // Retried attempts discard their handlers; only real commits fire.
  EXPECT_EQ(fired.load(), static_cast<long>(kThreads) * kIters);
  EXPECT_EQ(x.load(), static_cast<long>(kThreads) * kIters);
}

TEST_P(TmConcurrent, DisjointWritesDoNotConflictSemantically) {
  // Threads write disjoint vars; all writes must land (aborts may occur from
  // orec aliasing but retries must resolve them).
  constexpr int kThreads = 4;
  constexpr int kVarsPerThread = 64;
  std::vector<std::unique_ptr<var<int>>> vars;
  for (int i = 0; i < kThreads * kVarsPerThread; ++i)
    vars.push_back(std::make_unique<var<int>>(0));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kVarsPerThread; ++i) {
        atomically(GetParam(),
                   [&] { vars[t * kVarsPerThread + i]->store(t + 1); });
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t)
    for (int i = 0; i < kVarsPerThread; ++i)
      EXPECT_EQ(vars[t * kVarsPerThread + i]->load(), t + 1);
}

TEST(TmConcurrentMixed, BackendsInteroperateOnSharedData) {
  // Different threads using different optimistic backends against the same
  // orec table must still serialize correctly.  The orec family only: an
  // eager default runs each request as named (NOrec never shares data with
  // it).
  const test::ScopedDefaultBackend pin(Backend::EagerSTM);
  var<long> counter(0);
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  for (Backend b : {Backend::EagerSTM, Backend::HTM})
    threads.emplace_back([&, b] {
      for (int i = 0; i < kIters; ++i)
        atomically(b, [&] { counter.store(counter.load() + 1); });
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.load(), 2L * kIters);
}

}  // namespace
}  // namespace tmcv::tm

// Unit tests for the TM runtime's low-level pieces: orec encoding and
// striping, the version clock, and the thread registry.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "backend_param.h"
#include "tm/api.h"
#include "tm/clock.h"
#include "tm/descriptor.h"
#include "tm/orec.h"
#include "tm/registry.h"
#include "tm/var.h"

namespace tmcv::tm {
namespace {

// Run one committing transaction on the calling thread.
void run_one_commit() {
  var<int> x(0);
  atomically(Backend::EagerSTM, [&] { x.store(1); });
}

TEST(Orec, EncodingRoundTrips) {
  for (std::uint64_t v : {0ull, 1ull, 42ull, (1ull << 40)}) {
    const OrecWord w = make_version(v);
    EXPECT_FALSE(orec_is_locked(w));
    EXPECT_EQ(orec_version(w), v);
  }
  for (std::uint64_t slot : {0ull, 7ull, 511ull}) {
    const OrecWord w = make_locked(slot);
    EXPECT_TRUE(orec_is_locked(w));
    EXPECT_EQ(orec_owner_slot(w), slot);
  }
}

TEST(Orec, MappingIsDeterministic) {
  int x = 0;
  EXPECT_EQ(&orec_for(&x), &orec_for(&x));
}

TEST(Orec, NearbyWordsSpread) {
  // Adjacent 8-byte words should rarely share a stripe.
  std::uint64_t words[64];
  std::set<const Orec*> stripes;
  for (auto& w : words) stripes.insert(&orec_for(&w));
  EXPECT_GT(stripes.size(), 48u);  // near-perfect spread expected
}

TEST(Orec, TableIsZeroInitialized) {
  // A fresh stripe reads as unlocked version <= current clock.
  const OrecWord w = orec_at(12345).load();
  if (!orec_is_locked(w)) {
    EXPECT_LE(orec_version(w), global_clock().now());
  }
}

TEST(Orec, WriteThroughAbortReleasesAFreshVersion) {
  // An aborted write-through transaction must not hand its stripe back with
  // the pre-lock word: a reader that loaded the speculative value between
  // its two orec loads would then accept it (ABA).  An eager default runs
  // each request as named (a NOrec default would touch no orec).
  const test::ScopedDefaultBackend pin(Backend::EagerSTM);
  for (Backend b : {Backend::EagerSTM, Backend::HTM}) {
    std::atomic<std::uint64_t> word{7};
    const Orec& o = orec_for(&word);
    const OrecWord before = o.load();
    ASSERT_FALSE(orec_is_locked(before));
    OrecWord after_abort = 0;
    bool aborted = false;
    atomically(b, [&] {
      if (aborted) {
        after_abort = o.load();
        return;
      }
      descriptor().write_word(&word, 8);
      aborted = true;
      retry_txn();
    });
    EXPECT_EQ(word.load(), 7u);  // the undo log restored the value
    EXPECT_FALSE(orec_is_locked(after_abort));
    EXPECT_GT(orec_version(after_abort), orec_version(before));
  }
}

TEST(VersionClock, TickIsMonotonicAndUnique) {
  // Uncontended ticks always win their CAS: strictly increasing, never
  // adopted from another committer.
  VersionClock& clock = global_clock();
  const VersionClock::Tick a = clock.tick();
  const VersionClock::Tick b = clock.tick();
  EXPECT_FALSE(a.reused);
  EXPECT_FALSE(b.reused);
  EXPECT_LT(a.time, b.time);
  EXPECT_GE(clock.now(), b.time);
}

TEST(VersionClock, ConcurrentTicksGv4Invariants) {
  // GV4 pass-on-failure weakens global uniqueness -- a losing committer
  // adopts the winner's timestamp -- but keeps what validation relies on:
  // ticks a thread *won* are globally unique, and every thread's sequence
  // of commit timestamps is still strictly increasing (an adopted value
  // comes from a CAS that observed something >= our previous stamp).
  VersionClock& clock = global_clock();
  constexpr int kThreads = 4;
  constexpr int kTicks = 2000;
  std::vector<std::vector<VersionClock::Tick>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      seen[t].reserve(kTicks);
      for (int i = 0; i < kTicks; ++i) seen[t].push_back(clock.tick());
    });
  }
  for (auto& th : threads) th.join();
  std::set<std::uint64_t> won;
  std::size_t won_count = 0;
  for (const auto& v : seen) {
    for (std::size_t i = 1; i < v.size(); ++i)
      ASSERT_LT(v[i - 1].time, v[i].time);
    for (const VersionClock::Tick& t : v) {
      if (t.reused) continue;
      ++won_count;
      won.insert(t.time);
    }
  }
  EXPECT_EQ(won.size(), won_count);  // non-adopted ticks globally unique
  EXPECT_GE(clock.now(), *won.rbegin());
}

TEST(Registry, ThreadsGetDistinctSlots) {
  // Each thread's descriptor occupies its own slot while alive.
  constexpr int kThreads = 8;
  std::vector<std::uint64_t> slots(kThreads);
  std::vector<std::thread> threads;
  std::atomic<int> ready{0};
  std::atomic<bool> release{false};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      slots[t] = descriptor().slot();
      ready.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  }
  while (ready.load() < kThreads) std::this_thread::yield();
  std::set<std::uint64_t> unique(slots.begin(), slots.end());
  EXPECT_EQ(unique.size(), static_cast<std::size_t>(kThreads));
  release.store(true);
  for (auto& th : threads) th.join();
}

TEST(Registry, SlotsAreRecycledAfterThreadExit) {
  std::uint64_t first_slot = 0;
  std::thread t1([&] { first_slot = descriptor().slot(); });
  t1.join();
  // The slot is free again; a new thread can claim a slot no larger than
  // the high-water mark grew to.
  std::uint64_t second_slot = kMaxThreads;
  std::thread t2([&] { second_slot = descriptor().slot(); });
  t2.join();
  EXPECT_LE(second_slot, registry().high_water());
  EXPECT_LT(second_slot, kMaxThreads);
}

TEST(Registry, DescriptorPoolSurvivesThreadChurn) {
  // Many short-lived threads: descriptors must recycle cleanly (no slot
  // leaks, no crashes in cross-thread scans racing the churn).
  std::atomic<bool> stop{false};
  std::thread scanner([&] {
    // Simulates the serial lock / epoch collector reading descriptors
    // while threads come and go.
    while (!stop.load()) {
      const std::uint64_t n = registry().high_water();
      for (std::uint64_t s = 0; s < n; ++s) {
        if (const TxDescriptor* d = registry().descriptor(s))
          (void)d->activity();
      }
    }
  });
  for (int round = 0; round < 30; ++round) {
    std::vector<std::thread> burst;
    for (int t = 0; t < 8; ++t)
      burst.emplace_back([] { run_one_commit(); });
    for (auto& th : burst) th.join();
  }
  stop.store(true);
  scanner.join();
  // High-water mark stays bounded by the peak concurrency, not the total
  // thread count -- proof the pool recycles.
  EXPECT_LT(registry().high_water(), 64u);
}

TEST(Registry, RetiredStatsSurviveThreadExit) {
  stats_reset();
  std::thread t([] { run_one_commit(); });
  t.join();
  // The thread's descriptor is gone; its counters must have been folded
  // into the retired accumulator.
  EXPECT_GE(stats_snapshot().commits, 1u);
}

}  // namespace
}  // namespace tmcv::tm

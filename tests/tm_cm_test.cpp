// Contention management: the GV4 pass-on-failure commit clock,
// conflict-streak serial escalation (and recovery after the contention
// clears), abort-reason accounting, and the HTM
// attempt-budget hysteresis.
#include <gtest/gtest.h>

#include "backend_fixture.h"  // orec/HTM-specific: pin the eager default

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "tm/api.h"
#include "tm/clock.h"
#include "tm/cm.h"
#include "tm/var.h"

namespace tmcv::tm {
namespace {

// Restores the conflict-streak knob even when an ASSERT unwinds the test.
struct StreakLimitGuard {
  std::uint32_t saved = cm_conflict_streak_limit();
  ~StreakLimitGuard() { cm_set_conflict_streak_limit(saved); }
};

TEST(TmCm, Gv4ClockInvariants) {
  // Hammer a private clock from 8 threads.  GV4 gives up global uniqueness
  // for adopted ticks, but must keep: (a) per-thread commit timestamps
  // strictly increasing, (b) ticks a thread won itself globally unique,
  // (c) the clock's final value equal to the number of won ticks (only a
  // successful CAS advances it).
  VersionClock clock;
  constexpr int kThreads = 8;
  constexpr int kTicks = 4000;
  std::vector<std::vector<VersionClock::Tick>> seen(kThreads);
  std::atomic<int> start{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      seen[t].reserve(kTicks);
      start.fetch_add(1);
      while (start.load() < kThreads) {
      }
      for (int i = 0; i < kTicks; ++i) seen[t].push_back(clock.tick());
    });
  }
  for (auto& th : threads) th.join();
  std::set<std::uint64_t> won;
  std::uint64_t won_count = 0;
  for (const auto& v : seen) {
    for (std::size_t i = 1; i < v.size(); ++i)
      ASSERT_LT(v[i - 1].time, v[i].time);
    for (const VersionClock::Tick& t : v) {
      if (t.reused) continue;
      ++won_count;
      won.insert(t.time);
    }
  }
  EXPECT_EQ(won.size(), won_count);
  EXPECT_EQ(clock.now(), won_count);
}

TEST(TmCm, ForcedConflictNoLivelockAndReasonsSum) {
  // 8 threads increment ONE variable: worst-case write-write contention.
  // Every increment must land (no lost updates, no livelock) and the
  // abort-reason breakdown must account for every abort.
  stats_reset();
  constexpr int kThreads = 8;
  constexpr int kIncrements = 300;
  var<std::uint64_t> x(0);
  std::atomic<int> start{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      start.fetch_add(1);
      while (start.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < kIncrements; ++i)
        atomically(Backend::EagerSTM, [&] { x.store(x.load() + 1); });
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(x.load(), static_cast<std::uint64_t>(kThreads) * kIncrements);
  const Stats s = stats_snapshot();
  EXPECT_EQ(s.aborts, s.aborts_conflict() + s.aborts_capacity() +
                          s.aborts_syscall() + s.aborts_explicit() +
                          s.aborts_retry_wait());
  EXPECT_EQ(s.aborts_capacity(), 0u);
  EXPECT_EQ(s.aborts_syscall(), 0u);
}

TEST(TmCm, SerialEscalationAfterKConflictsAndRecovery) {
  // A holder parks inside an eager transaction with x's stripe locked; the
  // victim's attempts take conflict aborts until the streak limit trips and
  // it escalates to the serial lock (long before the 64-attempt budget).
  // Once the holder leaves, the victim completes serially -- and after the
  // contention clears, further transactions run optimistically again.
  StreakLimitGuard guard;
  cm_set_conflict_streak_limit(4);
  stats_reset();
  var<std::uint64_t> x(0);
  std::atomic<bool> holder_in_txn{false};
  std::atomic<bool> release_holder{false};
  std::thread holder([&] {
    atomically(Backend::EagerSTM, [&] {
      x.store(1);  // eager: locks x's stripe until commit
      holder_in_txn.store(true);
      while (!release_holder.load()) std::this_thread::yield();
    });
  });
  while (!holder_in_txn.load()) std::this_thread::yield();
  std::thread victim([&] {
    atomically(Backend::EagerSTM, [&] { x.store(x.load() + 1); });
    // Recovery: the streak was cleared by the commit, so uncontended
    // follow-ups stay optimistic.
    for (int i = 0; i < 8; ++i)
      atomically(Backend::EagerSTM, [&] { x.store(x.load() + 1); });
  });
  // The victim cannot finish until the holder leaves; wait for its streak
  // to trip the escalation counter, then release the holder.
  while (stats_snapshot().cm_serial_escalations == 0)
    std::this_thread::yield();
  release_holder.store(true);
  holder.join();
  victim.join();
  EXPECT_EQ(x.load(), 10u);
  const Stats s = stats_snapshot();
  EXPECT_GE(s.aborts_conflict(), 4u);
  EXPECT_EQ(s.cm_serial_escalations, 1u);
  EXPECT_EQ(s.serial_fallbacks, 1u);  // recovery ran optimistically
}

TEST(TmCm, ExplicitAbortsDoNotFeedTheConflictStreak) {
  // retry_txn() is user-directed, not contention: even with a tiny streak
  // limit it must not push the transaction into the serial lock.
  StreakLimitGuard guard;
  cm_set_conflict_streak_limit(2);
  stats_reset();
  var<int> x(0);
  int attempts = 0;
  atomically(Backend::EagerSTM, [&] {
    x.store(attempts);
    if (++attempts <= 10) retry_txn();
  });
  EXPECT_EQ(x.load(), 10);
  const Stats s = stats_snapshot();
  EXPECT_EQ(s.aborts_explicit(), 10u);
  EXPECT_EQ(s.serial_fallbacks, 0u);
  EXPECT_EQ(s.cm_serial_escalations, 0u);
}

TEST(TmCm, HtmHysteresisShrinksAndRecovers) {
  // Fallback pressure halves the hardware attempt budget down to a floor of
  // one; sustained hardware commits decay it back one level per
  // kHtmRecoveryCommits; stats_reset restores the full budget outright.
  stats_reset();
  EXPECT_EQ(htm_attempt_budget(), kHtmAttemptsBeforeSerial);
  note_htm_fallback();
  EXPECT_EQ(htm_attempt_budget(), kHtmAttemptsBeforeSerial / 2);
  note_htm_fallback();
  EXPECT_EQ(htm_attempt_budget(), kHtmAttemptsBeforeSerial / 4);
  note_htm_fallback();
  EXPECT_EQ(htm_attempt_budget(), kHtmAttemptsBeforeSerial / 8);
  note_htm_fallback();  // saturates at the floor
  EXPECT_EQ(htm_attempt_budget(), kHtmAttemptsBeforeSerial / 8);
  for (int level = 3; level > 0; --level) {
    for (int i = 0; i < 64; ++i) note_htm_commit();
    EXPECT_EQ(htm_attempt_budget(),
              kHtmAttemptsBeforeSerial >> (level - 1));
  }
  note_htm_fallback();
  stats_reset();
  EXPECT_EQ(htm_attempt_budget(), kHtmAttemptsBeforeSerial);
}

}  // namespace
}  // namespace tmcv::tm

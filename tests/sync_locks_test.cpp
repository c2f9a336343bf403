// Mutual-exclusion tests for every lock in sync/locks.h, plus LockSync
// context behaviour.
#include <gtest/gtest.h>

#include <mutex>
#include <thread>
#include <vector>

#include "sync/locks.h"
#include "sync/sync_context.h"

namespace tmcv {
namespace {

// Hammer a plain counter under the lock; any mutual-exclusion failure shows
// up as a lost update.
template <typename Lock>
void expect_mutual_exclusion() {
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  Lock lock;
  long counter = 0;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        lock.lock();
        counter = counter + 1;
        lock.unlock();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, static_cast<long>(kThreads) * kIters);
}

TEST(TasLock, MutualExclusion) { expect_mutual_exclusion<TasLock>(); }
TEST(FutexLock, MutualExclusion) { expect_mutual_exclusion<FutexLock>(); }

TEST(TasLock, TryLockSemantics) {
  TasLock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(FutexLock, TryLockSemantics) {
  FutexLock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(FutexLock, ComposesWithUniqueLock) {
  FutexLock lock;
  {
    std::unique_lock<FutexLock> guard(lock);
    EXPECT_TRUE(guard.owns_lock());
  }
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(LockSync, ReleasesAndReacquiresSingleLock) {
  std::mutex m;
  m.lock();
  LockSync sync(m);
  EXPECT_FALSE(sync.is_transactional());
  sync.end_block();
  EXPECT_TRUE(m.try_lock());  // sync released it
  m.unlock();
  sync.begin_block();
  EXPECT_FALSE(m.try_lock());  // sync re-acquired it
  m.unlock();
}

TEST(LockSync, NestedLocksReleasedInnermostFirst) {
  // Track release order via a log.
  struct LoggingLock {
    std::vector<int>* log;
    int id;
    void lock() { log->push_back(+id); }
    void unlock() { log->push_back(-id); }
  };
  std::vector<int> log;
  LoggingLock outer{&log, 1}, inner{&log, 2};
  LockSync sync;
  sync.push(LockRef::of(outer));
  sync.push(LockRef::of(inner));
  sync.end_block();    // expect unlock inner (-2) then outer (-1)
  sync.begin_block();  // expect lock outer (+1) then inner (+2)
  const std::vector<int> expected{-2, -1, +1, +2};
  EXPECT_EQ(log, expected);
  EXPECT_EQ(sync.lock_count(), 2u);
}

TEST(NoSync, IsANoOp) {
  NoSync sync;
  EXPECT_FALSE(sync.is_transactional());
  sync.end_block();
  sync.begin_block();
  SUCCEED();
}

}  // namespace
}  // namespace tmcv

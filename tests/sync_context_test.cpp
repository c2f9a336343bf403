// Lock-based synchronization contexts (sync/sync_context.h): LockSync
// releases and re-acquires the locks it describes, NoSync does nothing.
#include <gtest/gtest.h>

#include <mutex>
#include <vector>

#include "sync/sync_context.h"

namespace tmcv {
namespace {

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

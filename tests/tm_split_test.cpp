// Early commit (ENDSYNCBLOCK) and split-transaction machinery (§4.2/§4.3):
// the TM-side mechanics that make WAIT-inside-a-transaction possible.
#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "backend_param.h"
#include "tm/api.h"
#include "tm/txn_sync.h"
#include "tm/var.h"

namespace tmcv::tm {
namespace {

class TmSplit : public test::BackendParamTest {};

INSTANTIATE_TEST_SUITE_P(AllBackends, TmSplit,
                         ::testing::Values(Backend::EagerSTM, Backend::HTM,
                                           Backend::NOrec),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST_P(TmSplit, EndSyncBlockPublishesFirstHalf) {
  var<int> x(0);
  atomically(GetParam(), [&] {
    x.store(1);
    TxnSync sync;
    sync.end_block();
    // The first half committed: its write is globally visible and we are no
    // longer inside a transaction.
    EXPECT_FALSE(in_txn());
    EXPECT_EQ(x.load_plain(), 1);
    sync.begin_block();  // irrevocable continuation by default
    EXPECT_TRUE(in_txn());
    EXPECT_EQ(descriptor().state(), TxState::Serial);
    x.store(2);
  });
  EXPECT_EQ(x.load(), 2);
  EXPECT_FALSE(in_txn());
}

TEST_P(TmSplit, EarlyCommitRunsOnCommitHandlers) {
  int fired = 0;
  atomically(GetParam(), [&] {
    on_commit([&] { ++fired; });
    TxnSync sync;
    sync.end_block();
    EXPECT_EQ(fired, 1);  // handler ran at the early commit, not at the end
    sync.begin_block();
  });
  EXPECT_EQ(fired, 1);
}

TEST_P(TmSplit, SplitDoneSkipsFinalCommit) {
  // CPS-style completion: the closure ends with the transaction already
  // closed and split_done marked; atomically() must accept that.
  var<int> x(0);
  atomically(GetParam(), [&] {
    x.store(7);
    TxnSync sync;
    sync.end_block();
    atomically(GetParam(), [&] { x.store(x.load() + 1); });  // continuation
    descriptor().mark_split_done();
  });
  EXPECT_EQ(x.load(), 8);
  EXPECT_FALSE(in_txn());
  EXPECT_FALSE(descriptor().split_done());
}

TEST_P(TmSplit, SavedDepthRestored) {
  atomically(GetParam(), [&] {
    atomically(GetParam(), [&] {
      atomically(GetParam(), [&] {
        EXPECT_EQ(descriptor().depth(), 3u);
        TxnSync sync;
        sync.end_block();
        EXPECT_EQ(descriptor().saved_depth(), 3u);
        sync.begin_block();
        // The continuation resumes at the same flat-nesting depth (§4.3:
        // "it must set the counter appropriately").
        EXPECT_EQ(descriptor().depth(), 3u);
      });
    });
  });
  EXPECT_FALSE(in_txn());
}

TEST_P(TmSplit, AbortBeforeSplitRetriesWholeBody) {
  // An abort during the first half must re-run the entire closure -- nothing
  // was published.  We emulate a one-time conflict with an explicit retry.
  var<int> x(0);
  int first_half_runs = 0;
  atomically(GetParam(), [&] {
    ++first_half_runs;
    x.store(first_half_runs);
    if (first_half_runs == 1) retry_txn();
    TxnSync sync;
    sync.end_block();
    sync.begin_block();
  });
  EXPECT_EQ(first_half_runs, 2);
  EXPECT_EQ(x.load(), 2);
}

TEST_P(TmSplit, SerialContinuationSurvivesConflictingWriters) {
  // Once the continuation runs irrevocably nothing can abort it, even if
  // other threads hammer the same data (they wait on the serial lock).
  var<long> x(0);
  std::thread contender;
  atomically(GetParam(), [&] {
    TxnSync sync;
    sync.end_block();
    sync.begin_block();  // serial from here on
    contender = std::thread([&] {
      for (int i = 0; i < 100; ++i)
        atomically([&] { x.store(x.load() + 1); });
    });
    // The contender cannot begin while we hold the serial lock; our updates
    // proceed conflict-free.
    for (int i = 0; i < 100; ++i) x.store(x.load() + 1);
  });
  contender.join();
  EXPECT_EQ(x.load(), 200);
}

TEST_P(TmSplit, OptimisticContinuationMode) {
  // TxnSync(false): continuation resumes optimistically.  Valid when the
  // continuation provably never aborts (single-threaded here).
  var<int> x(0);
  atomically(GetParam(), [&] {
    x.store(1);
    TxnSync sync(/*irrevocable_continuation=*/false);
    sync.end_block();
    sync.begin_block();
    EXPECT_EQ(descriptor().state(), TxState::Optimistic);
    x.store(2);
  });
  EXPECT_EQ(x.load(), 2);
}

TEST(TmSplitGuards, AccessAfterSplitWaitIsRejected) {
  // After a CPS wait completes the split, further transactional access in
  // the original closure is a programming error caught by an assertion.
  // (Death tests are expensive; we verify the flag protocol instead.)
  atomically([&] {
    TxnSync sync;
    sync.end_block();
    atomically([&] {});  // continuation
    descriptor().mark_split_done();
    EXPECT_TRUE(descriptor().split_done());
  });
  EXPECT_FALSE(descriptor().split_done());
}

}  // namespace
}  // namespace tmcv::tm

// Single-threaded semantics of the TM runtime: var access, commit/abort,
// nesting, handlers, return values, irrevocability, backends.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend_param.h"
#include "tm/api.h"
#include "tm/serial.h"
#include "tm/var.h"

namespace tmcv::tm {
namespace {

class TmBackends : public test::BackendParamTest {};

INSTANTIATE_TEST_SUITE_P(AllBackends, TmBackends,
                         ::testing::Values(Backend::EagerSTM, Backend::HTM,
                                           Backend::NOrec),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST_P(TmBackends, PlainAccessOutsideTransaction) {
  var<int> x(7);
  EXPECT_EQ(x.load(), 7);
  x.store(9);
  EXPECT_EQ(x.load(), 9);
  EXPECT_EQ(x.load_plain(), 9);
}

TEST_P(TmBackends, SimpleTransactionCommits) {
  var<int> x(0);
  atomically(GetParam(), [&] { x.store(x.load() + 1); });
  EXPECT_EQ(x.load(), 1);
}

TEST_P(TmBackends, ReadYourOwnWrite) {
  var<int> x(1);
  int seen = 0;
  atomically(GetParam(), [&] {
    x.store(42);
    seen = x.load();
  });
  EXPECT_EQ(seen, 42);
  EXPECT_EQ(x.load(), 42);
}

TEST_P(TmBackends, MultipleWritesLastWins) {
  var<int> x(0);
  atomically(GetParam(), [&] {
    x.store(1);
    x.store(2);
    x.store(3);
  });
  EXPECT_EQ(x.load(), 3);
}

TEST_P(TmBackends, TransactionReturnsValue) {
  var<int> x(20);
  const int doubled = atomically(GetParam(), [&] { return x.load() * 2; });
  EXPECT_EQ(doubled, 40);
}

TEST_P(TmBackends, FlatNestingCommitsTogether) {
  var<int> x(0), y(0);
  atomically(GetParam(), [&] {
    x.store(1);
    atomically(GetParam(), [&] { y.store(2); });
    EXPECT_TRUE(in_txn());
    EXPECT_EQ(y.load(), 2);  // nested write visible within the flat nest
  });
  EXPECT_EQ(x.load(), 1);
  EXPECT_EQ(y.load(), 2);
}

TEST_P(TmBackends, UserExceptionAbortsAndPropagates) {
  var<int> x(5);
  EXPECT_THROW(atomically(GetParam(),
                          [&] {
                            x.store(99);
                            throw std::runtime_error("boom");
                          }),
               std::runtime_error);
  // The speculative write must have been rolled back.
  EXPECT_EQ(x.load(), 5);
  EXPECT_FALSE(in_txn());
}

// The serial lock, the ladder's last rung, is all-or-nothing too: a closure
// that escalates and then throws leaves memory as it found it and the lock
// free.  HTM escalates on its capacity overflow; the STMs once the closure
// has spent their attempt budget on self-aborts.
TEST_P(TmBackends, EscalatedAttemptRollsBackOnException) {
  stats_reset();
  constexpr std::size_t kVars = TxDescriptor::kHtmWriteCapacity + 8;
  std::vector<std::unique_ptr<var<int>>> vars;
  for (std::size_t i = 0; i < kVars; ++i)
    vars.push_back(std::make_unique<var<int>>(0));
  bool escalated = false;
  EXPECT_THROW(atomically(GetParam(),
                          [&] {
                            for (auto& v : vars) v->store(v->load() + 1);
                            if (descriptor().state() != TxState::Serial)
                              retry_txn();
                            escalated = true;
                            throw std::runtime_error("after escalating");
                          }),
               std::runtime_error);
  EXPECT_TRUE(escalated);
  for (const auto& v : vars) EXPECT_EQ(v->load_plain(), 0);
  EXPECT_FALSE(in_txn());
  EXPECT_FALSE(serial_lock().held());
  Stats s = stats_snapshot();
  EXPECT_EQ(s.serial_fallbacks, 1u);
  EXPECT_EQ(s.serial_commits, 0u);
  if (GetParam() == Backend::HTM)
    EXPECT_EQ(s.aborts_capacity(), 1u);
  else
    EXPECT_EQ(s.aborts_explicit(), static_cast<std::uint64_t>(
                                       kStmAttemptsBeforeSerial + 1));
  // The next transaction runs and commits as usual.
  atomically(GetParam(), [&] { vars[0]->store(7); });
  EXPECT_EQ(vars[0]->load_plain(), 7);
  s = stats_snapshot();
  EXPECT_EQ(s.serial_commits, 0u);
}

TEST_P(TmBackends, OnCommitRunsAfterCommit) {
  var<int> x(0);
  int handler_saw = -1;
  atomically(GetParam(), [&] {
    x.store(8);
    on_commit([&] {
      EXPECT_FALSE(in_txn());  // handlers run post-commit
      handler_saw = x.load();
    });
  });
  EXPECT_EQ(handler_saw, 8);
}

TEST_P(TmBackends, OnCommitDiscardedOnUserAbort) {
  var<int> x(0);
  bool handler_ran = false;
  try {
    atomically(GetParam(), [&] {
      on_commit([&] { handler_ran = true; });
      throw std::runtime_error("abort");
    });
  } catch (const std::runtime_error&) {
  }
  EXPECT_FALSE(handler_ran);
}

TEST_P(TmBackends, OnCommitImmediateOutsideTransaction) {
  bool ran = false;
  on_commit([&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST_P(TmBackends, OnAbortRunsOnlyOnAbort) {
  bool compensated = false;
  try {
    atomically(GetParam(), [&] {
      on_abort([&] { compensated = true; });
      throw std::runtime_error("abort");
    });
  } catch (const std::runtime_error&) {
  }
  EXPECT_TRUE(compensated);

  compensated = false;
  atomically(GetParam(), [&] { on_abort([&] { compensated = true; }); });
  EXPECT_FALSE(compensated);
}

TEST_P(TmBackends, HandlersRunInRegistrationOrder) {
  std::vector<int> order;
  atomically(GetParam(), [&] {
    on_commit([&] { order.push_back(1); });
    on_commit([&] { order.push_back(2); });
    on_commit([&] { order.push_back(3); });
  });
  const std::vector<int> expected{1, 2, 3};
  EXPECT_EQ(order, expected);
}

TEST_P(TmBackends, NestedHandlersDeferToOutermostCommit) {
  var<int> x(0);
  bool ran_at_inner_end = false;
  atomically(GetParam(), [&] {
    atomically(GetParam(), [&] {
      on_commit([&] { ran_at_inner_end = true; });
    });
    // Flat nesting: the inner "commit" is not a real commit.
    EXPECT_FALSE(ran_at_inner_end);
    x.store(1);
  });
  EXPECT_TRUE(ran_at_inner_end);
}

TEST_P(TmBackends, VarSupportsPointers) {
  int a = 1, b = 2;
  var<int*> p(&a);
  atomically(GetParam(), [&] { p.store(&b); });
  EXPECT_EQ(*p.load(), 2);
}

TEST_P(TmBackends, VarSupportsSmallStructs) {
  struct Pair {
    std::int32_t a;
    std::int32_t b;
  };
  var<Pair> v(Pair{1, 2});
  atomically(GetParam(), [&] { v.store(Pair{3, 4}); });
  const Pair got = v.load();
  EXPECT_EQ(got.a, 3);
  EXPECT_EQ(got.b, 4);
}

TEST_P(TmBackends, BoxHoldsLargeStruct) {
  struct Wide {
    std::uint64_t a, b, c;
    std::int32_t d;
  };
  box<Wide> v(Wide{1, 2, 3, 4});
  atomically(GetParam(), [&] {
    Wide w = v.load();
    EXPECT_EQ(w.a, 1u);
    EXPECT_EQ(w.d, 4);
    w.a = 100;
    w.d = -7;
    v.store(w);
  });
  const Wide got = v.load_plain();
  EXPECT_EQ(got.a, 100u);
  EXPECT_EQ(got.b, 2u);
  EXPECT_EQ(got.c, 3u);
  EXPECT_EQ(got.d, -7);
}

TEST_P(TmBackends, BoxRollsBackOnAbort) {
  struct Pair {
    std::uint64_t x, y;
  };
  box<Pair> v(Pair{10, 20});
  try {
    atomically(GetParam(), [&] {
      v.store(Pair{99, 98});
      throw std::runtime_error("abort");
    });
  } catch (const std::runtime_error&) {
  }
  const Pair got = v.load_plain();
  EXPECT_EQ(got.x, 10u);
  EXPECT_EQ(got.y, 20u);
}

TEST_P(TmBackends, ArrayCells) {
  tm::array<int, 8> arr;
  atomically(GetParam(), [&] {
    for (std::size_t i = 0; i < arr.size(); ++i)
      arr.store(i, static_cast<int>(i * i));
  });
  for (std::size_t i = 0; i < arr.size(); ++i)
    EXPECT_EQ(arr.load(i), static_cast<int>(i * i));
}

TEST(TmIrrevocable, RunsAndCommits) {
  var<int> x(0);
  irrevocably([&] {
    EXPECT_TRUE(in_txn());
    x.store(5);
  });
  EXPECT_EQ(x.load(), 5);
  EXPECT_FALSE(in_txn());
}

TEST(TmIrrevocable, NestsInsideItself) {
  var<int> x(0);
  irrevocably([&] {
    irrevocably([&] { x.store(1); });
    EXPECT_EQ(x.load(), 1);
  });
  EXPECT_EQ(x.load(), 1);
}

TEST(TmIrrevocable, AtomicallyNestsInsideSerial) {
  var<int> x(0);
  irrevocably([&] {
    atomically([&] { x.store(3); });  // flat: runs within the serial section
    EXPECT_EQ(x.load(), 3);
  });
  EXPECT_EQ(x.load(), 3);
}

TEST(TmIrrevocable, ReturnsValue) {
  var<int> x(21);
  EXPECT_EQ(irrevocably([&] { return x.load() * 2; }), 42);
}

TEST(TmExplicitRetry, EscalatesToSerialAndCompletes) {
  // A transaction that always self-aborts optimistically must still finish,
  // via the serial fallback.
  var<int> x(0);
  int attempts = 0;
  atomically(Backend::EagerSTM, [&] {
    ++attempts;
    if (descriptor().state() == TxState::Optimistic) retry_txn();
    x.store(1);
  });
  EXPECT_EQ(x.load(), 1);
  EXPECT_GT(attempts, kStmAttemptsBeforeSerial);
  EXPECT_GT(stats_snapshot().serial_fallbacks, 0u);
}

TEST(TmDefaults, DefaultBackendIsSettable) {
  const Backend prior = default_backend();
  set_default_backend(Backend::HTM);
  EXPECT_EQ(default_backend(), Backend::HTM);
  var<int> x(0);
  atomically([&] { x.store(1); });
  EXPECT_EQ(x.load(), 1);
  set_default_backend(prior);
}

TEST(TmStats, CountsCommitsAndReads) {
  stats_reset();
  var<int> x(0);
  atomically(Backend::EagerSTM, [&] { x.store(x.load() + 1); });
  const Stats s = stats_snapshot();
  EXPECT_GE(s.commits, 1u);
  EXPECT_GE(s.reads, 1u);
  EXPECT_GE(s.writes, 1u);
  EXPECT_FALSE(s.to_string().empty());
}

TEST(TmStats, ReadOnlyCommitCounted) {
  stats_reset();
  var<int> x(3);
  atomically(Backend::EagerSTM, [&] { (void)x.load(); });
  EXPECT_GE(stats_snapshot().ro_commits, 1u);
}

}  // namespace
}  // namespace tmcv::tm

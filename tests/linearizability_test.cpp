// Linearizability of the transactional containers, checked on real
// recorded concurrent executions with a Wing & Gong search, plus unit
// tests of the checker itself on known histories.
#include <gtest/gtest.h>

#include <chrono>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "sched/linearizability.h"
#include "tm/api.h"
#include "tmds/tx_queue.h"
#include "tmds/tx_stack.h"

namespace tmcv::sched {
namespace {

using tm::Backend;

constexpr int kOpEnq = 0;
constexpr int kOpDeq = 1;  // result: value, or kEmpty
constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
constexpr std::uint64_t kOk = 0;

struct SeqQueue {
  std::deque<std::uint64_t> items;
  std::uint64_t apply(int opcode, std::uint64_t arg) {
    if (opcode == kOpEnq) {
      items.push_back(arg);
      return kOk;
    }
    if (items.empty()) return kEmpty;
    const std::uint64_t v = items.front();
    items.pop_front();
    return v;
  }
};

struct SeqStack {
  std::vector<std::uint64_t> items;
  std::uint64_t apply(int opcode, std::uint64_t arg) {
    if (opcode == kOpEnq) {  // push
      items.push_back(arg);
      return kOk;
    }
    if (items.empty()) return kEmpty;
    const std::uint64_t v = items.back();
    items.pop_back();
    return v;
  }
};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---- checker unit tests on hand-written histories ----

TEST(Checker, AcceptsSequentialHistory) {
  std::vector<LinOp> h{
      {0, 1, kOpEnq, 7, kOk},
      {2, 3, kOpDeq, 0, 7},
  };
  EXPECT_TRUE(is_linearizable(h, SeqQueue{}));
}

TEST(Checker, RejectsValueFromNowhere) {
  std::vector<LinOp> h{
      {0, 1, kOpEnq, 7, kOk},
      {2, 3, kOpDeq, 0, 9},  // 9 was never enqueued
  };
  EXPECT_FALSE(is_linearizable(h, SeqQueue{}));
}

TEST(Checker, RejectsRealTimeOrderViolation) {
  // Deq responded (with EMPTY) strictly before Enq was invoked, yet a
  // second Deq later returns the value -- fine.  But a Deq that returns
  // the value *before* the Enq was invoked is impossible.
  std::vector<LinOp> h{
      {10, 11, kOpEnq, 7, kOk},
      {0, 1, kOpDeq, 0, 7},  // finished before the enqueue began
  };
  EXPECT_FALSE(is_linearizable(h, SeqQueue{}));
}

TEST(Checker, AcceptsOverlappingOpsEitherOrder) {
  // Concurrent Enq and Deq: both orders legal; Deq may see 7 or EMPTY.
  for (std::uint64_t deq_result : {std::uint64_t{7}, kEmpty}) {
    std::vector<LinOp> h{
        {0, 10, kOpEnq, 7, kOk},
        {1, 9, kOpDeq, 0, deq_result},
    };
    EXPECT_TRUE(is_linearizable(h, SeqQueue{})) << deq_result;
  }
}

TEST(Checker, RejectsFifoViolation) {
  std::vector<LinOp> h{
      {0, 1, kOpEnq, 1, kOk},
      {2, 3, kOpEnq, 2, kOk},
      {4, 5, kOpDeq, 0, 2},  // queue must yield 1 first
  };
  EXPECT_FALSE(is_linearizable(h, SeqQueue{}));
  // The same history IS a legal stack (LIFO).
  EXPECT_TRUE(is_linearizable(h, SeqStack{}));
}

TEST(Checker, RejectsDoubleDequeueOfSameValue) {
  std::vector<LinOp> h{
      {0, 1, kOpEnq, 5, kOk},
      {2, 3, kOpDeq, 0, 5},
      {4, 5, kOpDeq, 0, 5},  // consumed twice
  };
  EXPECT_FALSE(is_linearizable(h, SeqQueue{}));
}

// ---- recorded executions of the real containers ----

template <typename Structure>
std::vector<LinOp> record_history(Structure& s, int threads,
                                  int ops_per_thread, std::uint64_t seed) {
  std::vector<std::vector<LinOp>> per_thread(threads);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      Xoshiro256 rng(seed * 97 + t);
      for (int i = 0; i < ops_per_thread; ++i) {
        LinOp op;
        const bool is_push = rng.next_below(2) == 0;
        op.opcode = is_push ? kOpEnq : kOpDeq;
        op.arg = is_push ? (static_cast<std::uint64_t>(t) * 1000 + i + 1) : 0;
        op.invoke_ns = now_ns();
        if (is_push) {
          s.insert(op.arg);
          op.result = kOk;
        } else {
          std::uint64_t out = 0;
          op.result = s.remove(out) ? out : kEmpty;
        }
        op.response_ns = now_ns();
        per_thread[t].push_back(op);
      }
    });
  }
  for (auto& t : pool) t.join();
  std::vector<LinOp> all;
  for (auto& v : per_thread) all.insert(all.end(), v.begin(), v.end());
  return all;
}

struct QueueAdapter {
  tmds::TxQueue<std::uint64_t> q;
  void insert(std::uint64_t v) { q.enqueue(v); }
  bool remove(std::uint64_t& out) { return q.dequeue(out); }
};

struct StackAdapter {
  tmds::TxStack<std::uint64_t> s;
  void insert(std::uint64_t v) { s.push(v); }
  bool remove(std::uint64_t& out) { return s.pop(out); }
};

class LinearizabilityRecorded
    : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, LinearizabilityRecorded,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST_P(LinearizabilityRecorded, TxQueueHistoriesLinearizeToFifo) {
  const Backend saved = tm::default_backend();
  for (Backend b :
       {Backend::EagerSTM, Backend::HTM, Backend::NOrec}) {
    tm::set_default_backend(b);
    QueueAdapter adapter;
    const auto history =
        record_history(adapter, /*threads=*/3, /*ops=*/4, GetParam());
    EXPECT_TRUE(is_linearizable(history, SeqQueue{}))
        << "backend " << tm::to_string(b) << " seed " << GetParam();
  }
  tm::set_default_backend(saved);
}

TEST_P(LinearizabilityRecorded, TxStackHistoriesLinearizeToLifo) {
  const Backend saved = tm::default_backend();
  for (Backend b :
       {Backend::EagerSTM, Backend::HTM, Backend::NOrec}) {
    tm::set_default_backend(b);
    StackAdapter adapter;
    const auto history =
        record_history(adapter, /*threads=*/3, /*ops=*/4, GetParam());
    EXPECT_TRUE(is_linearizable(history, SeqStack{}))
        << "backend " << tm::to_string(b) << " seed " << GetParam();
  }
  tm::set_default_backend(saved);
}

}  // namespace
}  // namespace tmcv::sched

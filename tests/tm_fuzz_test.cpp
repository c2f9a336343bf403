// Differential fuzzing of the TM backends: random transactional programs
// executed under each backend must produce exactly the state and read
// results of a plain sequential reference executor -- including programs
// where a fraction of transactions abort (their effects must vanish
// entirely).  Deterministic seeds make failures reproducible.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "backend_param.h"
#include "tm/api.h"
#include "tm/var.h"
#include "util/rng.h"

namespace tmcv::tm {
namespace {

constexpr std::size_t kCells = 64;

enum class OpKind : std::uint8_t { Read, Write, ReadModifyWrite };

struct Op {
  OpKind kind;
  std::size_t index;
  std::uint64_t operand;
};

struct Txn {
  std::vector<Op> ops;
  bool aborts = false;  // throws after executing all ops
  // Random nesting: wrap the middle of the op list in a nested atomically.
  bool nested = false;
};

struct Program {
  std::vector<Txn> txns;
};

Program generate(std::uint64_t seed, std::size_t txn_count) {
  Xoshiro256 rng(seed);
  Program prog;
  prog.txns.resize(txn_count);
  for (Txn& txn : prog.txns) {
    const std::size_t op_count = 1 + rng.next_below(12);
    txn.ops.reserve(op_count);
    for (std::size_t i = 0; i < op_count; ++i) {
      Op op;
      const auto dice = rng.next_below(3);
      op.kind = dice == 0   ? OpKind::Read
                : dice == 1 ? OpKind::Write
                            : OpKind::ReadModifyWrite;
      op.index = rng.next_below(kCells);
      op.operand = rng.next();
      txn.ops.push_back(op);
    }
    txn.aborts = rng.next_below(5) == 0;   // 20% of txns abort
    txn.nested = rng.next_below(4) == 0;   // 25% use flat nesting
  }
  return prog;
}

struct RunResult {
  std::vector<std::uint64_t> cells;
  std::uint64_t read_checksum = 0;

  bool operator==(const RunResult&) const = default;
};

// Plain sequential reference: committed transactions apply, aborted ones
// vanish (including their read checksums -- a rolled-back txn's reads never
// "happened").
RunResult run_reference(const Program& prog) {
  RunResult r;
  r.cells.assign(kCells, 0);
  for (const Txn& txn : prog.txns) {
    if (txn.aborts) continue;
    for (const Op& op : txn.ops) {
      switch (op.kind) {
        case OpKind::Read:
          r.read_checksum ^= r.cells[op.index] * 0x9e3779b97f4a7c15ull + 1;
          break;
        case OpKind::Write:
          r.cells[op.index] = op.operand;
          break;
        case OpKind::ReadModifyWrite:
          r.cells[op.index] = r.cells[op.index] * 31 + op.operand;
          break;
      }
    }
  }
  return r;
}

struct FuzzAbort {};

RunResult run_tm(const Program& prog, Backend backend) {
  // Under a NOrec default every explicit request runs NOrec: pin the
  // default so the run exercises the backend it names.
  const test::ScopedDefaultBackend pin(backend);
  std::vector<std::unique_ptr<var<std::uint64_t>>> cells;
  for (std::size_t i = 0; i < kCells; ++i)
    cells.push_back(std::make_unique<var<std::uint64_t>>(0));
  std::uint64_t checksum = 0;

  auto run_ops = [&](const std::vector<Op>& ops, std::size_t begin,
                     std::size_t end, std::uint64_t& local_checksum) {
    for (std::size_t i = begin; i < end; ++i) {
      const Op& op = ops[i];
      switch (op.kind) {
        case OpKind::Read:
          local_checksum ^=
              cells[op.index]->load() * 0x9e3779b97f4a7c15ull + 1;
          break;
        case OpKind::Write:
          cells[op.index]->store(op.operand);
          break;
        case OpKind::ReadModifyWrite:
          cells[op.index]->store(cells[op.index]->load() * 31 + op.operand);
          break;
      }
    }
  };

  for (const Txn& txn : prog.txns) {
    try {
      atomically(backend, [&] {
        // Stage the checksum transactionally: if this txn aborts, its
        // reads must not contaminate the global checksum.
        std::uint64_t local = 0;
        const std::size_t n = txn.ops.size();
        if (txn.nested && n >= 2) {
          run_ops(txn.ops, 0, n / 2, local);
          atomically(backend,
                     [&] { run_ops(txn.ops, n / 2, n, local); });
        } else {
          run_ops(txn.ops, 0, n, local);
        }
        if (txn.aborts) throw FuzzAbort{};
        checksum ^= local;
      });
    } catch (const FuzzAbort&) {
      // Rolled back; nothing happened.
    }
  }

  RunResult r;
  r.cells.reserve(kCells);
  for (std::size_t i = 0; i < kCells; ++i)
    r.cells.push_back(cells[i]->load_plain());
  r.read_checksum = checksum;
  return r;
}

class TmFuzz : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, TmFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST_P(TmFuzz, AllBackendsMatchReference) {
  const Program prog = generate(GetParam(), /*txn_count=*/200);
  const RunResult expected = run_reference(prog);
  for (Backend b : {Backend::EagerSTM, Backend::HTM, Backend::NOrec}) {
    const RunResult got = run_tm(prog, b);
    EXPECT_EQ(got, expected) << "backend " << to_string(b) << " seed "
                             << GetParam();
  }
}

TEST(TmFuzzAborted, NoAbortedWriteSurvivesLargePrograms) {
  // All-abort program: the state must remain untouched on every backend.
  Program prog = generate(1234, 300);
  for (Txn& t : prog.txns) t.aborts = true;
  for (Backend b : {Backend::EagerSTM, Backend::HTM, Backend::NOrec}) {
    const RunResult got = run_tm(prog, b);
    for (std::uint64_t v : got.cells) EXPECT_EQ(v, 0u);
    EXPECT_EQ(got.read_checksum, 0u);
  }
}

TEST(TmFuzzAborted, AllCommitMatchesReferenceExactly) {
  Program prog = generate(777, 300);
  for (Txn& t : prog.txns) t.aborts = false;
  const RunResult expected = run_reference(prog);
  for (Backend b : {Backend::EagerSTM, Backend::HTM, Backend::NOrec})
    EXPECT_EQ(run_tm(prog, b), expected) << to_string(b);
}

}  // namespace
}  // namespace tmcv::tm

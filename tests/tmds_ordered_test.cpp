// Ordered tmds family (skiplist / BST / striped counter):
// sequential semantics against a std::map oracle, multi-thread
// conservation, range-scan snapshot consistency under concurrent writers,
// abort rollback of structural links, and counter exactness -- all run
// under the eager/HTM/NOrec backend matrix.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "backend_param.h"
#include "tm/api.h"
#include "tm/epoch.h"
#include "tmds/tx_bst.h"
#include "tmds/tx_counter.h"
#include "tmds/tx_skiplist.h"
#include "util/rng.h"

namespace tmcv::tmds {
namespace {

using tm::Backend;
using Key = std::uint64_t;
using Val = std::uint64_t;

class OrderedBackends : public test::BackendParamTest {
 protected:
  void TearDown() override {
    BackendParamTest::TearDown();
    tm::gc_collect();
  }
};

INSTANTIATE_TEST_SUITE_P(AllBackends, OrderedBackends,
                         ::testing::Values(Backend::EagerSTM, Backend::HTM,
                                           Backend::NOrec),
                         [](const auto& info) {
                           return std::string(tm::to_string(info.param));
                         });

// Full ascending dump via range() -- the scan API is itself under test.
// The visitor mutates non-transactional state, so the reset must sit inside
// the same transaction as the scan (flat nesting): if the scan aborts and
// re-executes, the accumulator restarts with it.
template <typename S>
std::vector<std::pair<Key, Val>> dump(const S& s) {
  std::vector<std::pair<Key, Val>> out;
  tm::atomically([&] {
    out.clear();
    s.range(0, ~Key{0}, [&](Key k, Val v) {
      out.emplace_back(k, v);
      return true;
    });
  });
  return out;
}

template <typename S>
void expect_matches_oracle(const S& s, const std::map<Key, Val>& oracle) {
  const auto got = dump(s);
  ASSERT_EQ(got.size(), oracle.size());
  ASSERT_EQ(s.size(), oracle.size());
  auto it = oracle.begin();
  for (const auto& [k, v] : got) {
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
  }
}

// ---- sequential semantics vs std::map ----

template <typename S>
void oracle_mixed_ops() {
  S s;
  std::map<Key, Val> oracle;
  Xoshiro256 rng(0x0DDB1A5E5ull);
  constexpr int kOps = 2000;
  constexpr Key kSpace = 256;
  for (int i = 0; i < kOps; ++i) {
    const Key k = rng.next() % kSpace;
    switch (rng.next() % 4) {
      case 0: {  // insert/overwrite
        const Val v = rng.next();
        const bool fresh = s.insert(k, v);
        EXPECT_EQ(fresh, oracle.find(k) == oracle.end());
        oracle[k] = v;
        break;
      }
      case 1: {  // erase
        const bool erased = s.erase(k);
        EXPECT_EQ(erased, oracle.erase(k) == 1);
        break;
      }
      case 2: {  // get
        Val v = 0;
        const bool hit = s.get(k, v);
        const auto it = oracle.find(k);
        ASSERT_EQ(hit, it != oracle.end());
        if (hit) {
          EXPECT_EQ(v, it->second);
        }
        break;
      }
      default: {  // lower_bound
        Key ok = 0;
        Val ov = 0;
        const bool found = s.lower_bound(k, ok, ov);
        const auto it = oracle.lower_bound(k);
        ASSERT_EQ(found, it != oracle.end());
        if (found) {
          EXPECT_EQ(ok, it->first);
          EXPECT_EQ(ov, it->second);
        }
        break;
      }
    }
    if (i % 500 == 499) expect_matches_oracle(s, oracle);
  }
  expect_matches_oracle(s, oracle);
  tm::gc_collect();
}

TEST_P(OrderedBackends, SkipListMatchesMapOracle) {
  oracle_mixed_ops<TxSkipList<Key, Val>>();
}

TEST_P(OrderedBackends, BstMatchesMapOracle) {
  oracle_mixed_ops<TxBst<Key, Val>>();
}

// ---- lower_bound / range edges ----

template <typename S>
void lower_bound_edges() {
  S s;
  Key ok = 0;
  Val ov = 0;
  EXPECT_FALSE(s.lower_bound(0, ok, ov));  // empty
  s.insert(10, 100);
  s.insert(20, 200);
  s.insert(30, 300);
  ASSERT_TRUE(s.lower_bound(5, ok, ov));  // below min
  EXPECT_EQ(ok, 10u);
  ASSERT_TRUE(s.lower_bound(20, ok, ov));  // exact hit
  EXPECT_EQ(ok, 20u);
  EXPECT_EQ(ov, 200u);
  ASSERT_TRUE(s.lower_bound(21, ok, ov));  // gap
  EXPECT_EQ(ok, 30u);
  EXPECT_FALSE(s.lower_bound(31, ok, ov));  // above max
  // Range window [15, 30): exactly {20}.
  std::vector<Key> seen;
  EXPECT_EQ(s.range(15, 30, [&](Key k, Val) {
    seen.push_back(k);
    return true;
  }), 1u);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], 20u);
  // Early stop: visit exactly one of the three.
  EXPECT_EQ(s.range(0, 100, [&](Key, Val) { return false; }), 1u);
}

TEST_P(OrderedBackends, SkipListLowerBoundAndRangeEdges) {
  lower_bound_edges<TxSkipList<Key, Val>>();
}

TEST_P(OrderedBackends, BstLowerBoundAndRangeEdges) {
  lower_bound_edges<TxBst<Key, Val>>();
}

// ---- abort rollback of structural links ----

template <typename S>
void abort_rolls_back_structure() {
  S s;
  std::map<Key, Val> oracle;
  for (Key k = 0; k < 40; k += 2) {
    s.insert(k, k + 1);
    oracle[k] = k + 1;
  }
  try {
    tm::atomically([&] {
      // Structural churn across the whole window: fresh towers/subtrees,
      // unlinks, overwrites -- then abort the nest.
      for (Key k = 1; k < 40; k += 2) s.insert(k, 7);
      for (Key k = 0; k < 40; k += 4) s.erase(k);
      s.insert(2, 999);
      throw std::runtime_error("abort");
    });
  } catch (const std::runtime_error&) {
  }
  // Every link the aborted nest touched must be exactly as before.
  expect_matches_oracle(s, oracle);
  tm::gc_collect();
}

TEST_P(OrderedBackends, SkipListAbortRollsBackLinks) {
  abort_rolls_back_structure<TxSkipList<Key, Val>>();
}

TEST_P(OrderedBackends, BstAbortRollsBackLinks) {
  abort_rolls_back_structure<TxBst<Key, Val>>();
}

// ---- multi-thread conservation ----

template <typename S>
void concurrent_conservation() {
  S s;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 400;
  constexpr Key kSpace = 128;
  std::atomic<std::int64_t> net_inserts{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(0xC0FFEEull + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const Key k = rng.next() % kSpace;
        if (rng.next() % 2 == 0) {
          if (s.insert(k, k)) net_inserts.fetch_add(1);
        } else {
          if (s.erase(k)) net_inserts.fetch_sub(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  // Sum of committed inserts minus committed erases == live size.
  ASSERT_GE(net_inserts.load(), 0);
  EXPECT_EQ(s.size(), static_cast<std::size_t>(net_inserts.load()));
  // The surviving keys are strictly ascending and unique (no torn links).
  const auto got = dump(s);
  EXPECT_EQ(got.size(), s.size());
  for (std::size_t i = 1; i < got.size(); ++i)
    EXPECT_LT(got[i - 1].first, got[i].first);
  tm::gc_collect();
}

TEST_P(OrderedBackends, SkipListConcurrentConservation) {
  concurrent_conservation<TxSkipList<Key, Val>>();
}

TEST_P(OrderedBackends, BstConcurrentConservation) {
  concurrent_conservation<TxBst<Key, Val>>();
}

// ---- range-scan consistency under concurrent writers ----

template <typename S>
void range_scan_snapshot_consistency() {
  S s;
  constexpr Key kKeys = 16;
  constexpr Val kUnit = 10;
  for (Key k = 0; k < kKeys; ++k) s.insert(k, kUnit);
  std::atomic<bool> stop{false};
  std::atomic<int> anomalies{0};
  std::thread scanner([&] {
    while (!stop.load()) {
      Val total = 0;
      std::size_t seen = 0;
      // Reset-inside-the-transaction idiom: the visitor accumulates into
      // plain locals, so the zeroing must re-run if the scan re-executes.
      tm::atomically([&] {
        total = 0;
        seen = 0;
        s.range(0, kKeys, [&](Key, Val v) {
          total += v;
          ++seen;
          return true;
        });
      });
      // Writers move units between keys but never change the total or the
      // population; any other observation is a torn snapshot.
      if (total != kKeys * kUnit || seen != kKeys) anomalies.fetch_add(1);
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      Xoshiro256 rng(0xBEEF0ull + w);
      for (int i = 0; i < 600; ++i) {
        const Key from = rng.next() % kKeys;
        const Key to = rng.next() % kKeys;
        tm::atomically([&] {
          Val a = 0, b = 0;
          if (!s.get(from, a) || !s.get(to, b) || from == to || a == 0)
            return;
          s.insert(from, a - 1);
          s.insert(to, b + 1);
        });
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true);
  scanner.join();
  EXPECT_EQ(anomalies.load(), 0);
  // Final books balance exactly (quiescent, but use the same idiom).
  Val total = 0;
  tm::atomically([&] {
    total = 0;
    s.range(0, kKeys, [&](Key, Val v) {
      total += v;
      return true;
    });
  });
  EXPECT_EQ(total, kKeys * kUnit);
  tm::gc_collect();
}

TEST_P(OrderedBackends, SkipListRangeScanConsistentUnderWriters) {
  range_scan_snapshot_consistency<TxSkipList<Key, Val>>();
}

TEST_P(OrderedBackends, BstRangeScanConsistentUnderWriters) {
  range_scan_snapshot_consistency<TxBst<Key, Val>>();
}

// ---- cross-structure composition ----

TEST_P(OrderedBackends, ComposedTransferBetweenStructures) {
  // Move a key between a skiplist and a BST atomically; an observer
  // transaction must see it in exactly one of the two.
  TxSkipList<Key, Val> a;
  TxBst<Key, Val> b;
  a.insert(42, 1);
  std::atomic<bool> stop{false};
  std::atomic<int> anomalies{0};
  std::thread observer([&] {
    while (!stop.load()) {
      const int visible = tm::atomically([&] {
        Val v = 0;
        int count = 0;
        if (a.get(42, v)) ++count;
        if (b.get(42, v)) ++count;
        return count;
      });
      if (visible != 1) anomalies.fetch_add(1);
    }
  });
  for (int i = 0; i < 400; ++i) {
    tm::atomically([&] {
      Val v = 0;
      if (a.get(42, v)) {
        a.erase(42);
        b.insert(42, v);
      } else if (b.get(42, v)) {
        b.erase(42);
        a.insert(42, v);
      }
    });
  }
  stop.store(true);
  observer.join();
  EXPECT_EQ(anomalies.load(), 0);
  tm::gc_collect();
}

// ---- deterministic skiplist heights ----

TEST(TmdsOrdered, SkipListHeightsAreDeterministicAndGeometric) {
  using SL = TxSkipList<Key, Val>;
  constexpr int kKeys = 4096;
  int at_least_two = 0;
  for (Key k = 0; k < kKeys; ++k) {
    const std::size_t h = SL::height_of(k);
    ASSERT_GE(h, 1u);
    ASSERT_LE(h, SL::kMaxLevel);
    EXPECT_EQ(h, SL::height_of(k));  // pure function of the key
    if (h >= 2) ++at_least_two;
  }
  // P(height >= 2) = 1/2: allow wide slack, reject degenerate hashes.
  EXPECT_GT(at_least_two, kKeys / 4);
  EXPECT_LT(at_least_two, 3 * kKeys / 4);
}

TEST_P(OrderedBackends, SkipListEraseReinsertIsShapeStable) {
  // Deleting and re-inserting a key rebuilds the identical towers, so a
  // replayed schedule cannot skew the structure: observable here as
  // byte-identical dumps plus the deterministic height function.
  TxSkipList<Key, Val> s;
  for (Key k = 0; k < 200; ++k) s.insert(k, k);
  const auto before = dump(s);
  for (Key k = 0; k < 200; k += 3) s.erase(k);
  for (Key k = 0; k < 200; k += 3) s.insert(k, k);
  EXPECT_EQ(dump(s), before);
  tm::gc_collect();
}

// ---- counters ----

TEST_P(OrderedBackends, StripedCounterExactUnderConcurrency) {
  TxStripedCounter<8> c;
  constexpr int kThreads = 4;
  constexpr int kAdds = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kAdds; ++i) c.add(t % 2 == 0 ? 2 : -1);
    });
  }
  for (auto& th : threads) th.join();
  // 2 threads adding +2, 2 adding -1, kAdds each.
  EXPECT_EQ(c.value(), 2 * kAdds * 2 - 2 * kAdds);
}

TEST_P(OrderedBackends, CounterRollsBackWithEnclosingTransaction) {
  TxStripedCounter<4> sc;
  sc.add(5);
  try {
    tm::atomically([&] {
      sc.add(100);
      throw std::runtime_error("abort");
    });
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(sc.value(), 5);
}

TEST_P(OrderedBackends, StripedCounterReadIsConsistentSnapshot) {
  // Writers keep the striped total invariant (+1 here, -1 there); a reader
  // summing the stripes transactionally must always see the invariant.
  TxStripedCounter<8> c;
  std::atomic<bool> stop{false};
  std::atomic<int> anomalies{0};
  std::thread reader([&] {
    while (!stop.load()) {
      if (c.value() != 0) anomalies.fetch_add(1);
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&] {
      for (int i = 0; i < 400; ++i) {
        tm::atomically([&] {
          c.add(+3);
          c.add(-3);
        });
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(anomalies.load(), 0);
  EXPECT_EQ(c.value(), 0);
}

}  // namespace
}  // namespace tmcv::tmds

// Conflict-attribution tests: key packing, site interning, the sharded
// lock-free counter table, and the end-to-end completeness contract (pair
// counts sum to aborts_conflict over the same measurement window).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/attribution.h"
#include "obs/trace.h"
#include "tm/api.h"
#include "tm/var.h"

namespace obs = tmcv::obs;


namespace {

class ObsAttrTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_attribution_enabled(false);
    obs::attr_reset();
  }
  void TearDown() override {
    obs::set_attribution_enabled(false);
    obs::attr_reset();
  }
};

TEST_F(ObsAttrTest, KeyPackingRoundTrips) {
  const std::uint64_t sr =
      obs::attr_pack_site_reason(42, obs::kAttrReasonCapacity);
  EXPECT_NE(sr, 0u);  // the tag bit keeps every key nonzero
  EXPECT_EQ(obs::attr_key_site(sr), 42);
  EXPECT_EQ(obs::attr_key_reason(sr), obs::kAttrReasonCapacity);

  const std::uint64_t pr =
      obs::attr_pack_pair(7, 9, obs::kAttrReasonConflict);
  EXPECT_NE(pr, 0u);
  EXPECT_EQ(obs::attr_pair_victim(pr), 7);
  EXPECT_EQ(obs::attr_pair_attacker(pr), 9);
  EXPECT_EQ(obs::attr_key_reason(pr), obs::kAttrReasonConflict);

  const std::uint64_t st = obs::attr_pack_stripe(12345);
  EXPECT_NE(st, 0u);
  EXPECT_EQ(obs::attr_stripe_index(st), 12345u);
}

TEST_F(ObsAttrTest, SiteInterningIsIdempotentByContent) {
  const std::uint16_t a = obs::intern_site("attr_test.alpha");
  const std::uint16_t b = obs::intern_site("attr_test.beta");
  EXPECT_NE(a, obs::kUnattributedSite);
  EXPECT_NE(b, obs::kUnattributedSite);
  EXPECT_NE(a, b);
  EXPECT_EQ(obs::intern_site("attr_test.alpha"), a);
  // Dedup is by content, not pointer: a transient buffer with the same
  // characters resolves to the existing id (and is never stored).
  const std::string alpha_copy = "attr_test.alpha";
  EXPECT_EQ(obs::intern_site(alpha_copy.c_str()), a);
  EXPECT_STREQ(obs::site_name(a), "attr_test.alpha");
  EXPECT_STREQ(obs::site_name(obs::kUnattributedSite), "(unattributed)");
  // Out-of-range ids degrade to the unattributed name, never UB.
  EXPECT_STREQ(obs::site_name(0xfffe), "(unattributed)");
}

TEST_F(ObsAttrTest, TableCountsFoldAndOverflowIsCounted) {
  obs::AttrTable<2> t;  // 4 slots per shard: small enough to overflow
  const std::uint64_t k1 = obs::kAttrKeyTag | 1;
  t.add(k1, 2);
  t.add(k1, 3);
  std::size_t entries = 0;
  std::uint64_t count1 = 0;
  t.for_each([&](std::uint64_t k, std::uint64_t c) {
    ++entries;
    if (k == k1) count1 = c;
  });
  EXPECT_EQ(entries, 1u);
  EXPECT_EQ(count1, 5u);
  EXPECT_EQ(t.overflow(), 0u);

  // Fill this thread's shard (all adds from one thread land in one shard),
  // then overflow it: the excess is counted, not silently dropped.
  t.add(obs::kAttrKeyTag | 2);
  t.add(obs::kAttrKeyTag | 3);
  t.add(obs::kAttrKeyTag | 4);
  t.add(obs::kAttrKeyTag | 5, 7);
  EXPECT_EQ(t.overflow(), 7u);
  t.add(k1, 1);  // existing keys still count while the shard is full
  count1 = 0;
  t.for_each([&](std::uint64_t k, std::uint64_t c) {
    if (k == k1) count1 = c;
  });
  EXPECT_EQ(count1, 6u);

  t.reset();
  entries = 0;
  t.for_each([&](std::uint64_t, std::uint64_t) { ++entries; });
  EXPECT_EQ(entries, 0u);
  EXPECT_EQ(t.overflow(), 0u);
}

TEST_F(ObsAttrTest, ShardReplicasSumAcrossThreads) {
  obs::AttrTable<4> t;
  constexpr int kThreads = 8;
  constexpr int kAdds = 1000;
  const std::uint64_t key = obs::kAttrKeyTag | 77;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&] {
      for (int n = 0; n < kAdds; ++n) t.add(key);
    });
  for (auto& th : threads) th.join();
  // The key may live in several shards (one per recording thread's shard);
  // the replica counts must sum to the true total.
  std::uint64_t total = 0;
  t.for_each([&](std::uint64_t k, std::uint64_t c) {
    EXPECT_EQ(k, key);
    total += c;
  });
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kAdds);
  EXPECT_EQ(t.overflow(), 0u);
}

TEST_F(ObsAttrTest, RecordingIsGatedByRuntimeFlag) {
  obs::attr_record_abort(1, obs::kAttrReasonConflict);
  obs::attr_record_conflict(1, 2, 3);
  obs::attr_record_escalation(1);
  obs::AttributionSnapshot s = obs::attribution_snapshot();
  EXPECT_TRUE(s.abort_sites.empty());
  EXPECT_TRUE(s.conflict_pairs.empty());
  EXPECT_TRUE(s.hot_stripes.empty());

  obs::set_attribution_enabled(true);
  obs::attr_record_conflict(1, 2, 3);
  obs::set_attribution_enabled(false);
  s = obs::attribution_snapshot();
  ASSERT_EQ(s.conflict_pairs.size(), 1u);
  EXPECT_EQ(obs::attr_pair_victim(s.conflict_pairs[0].key), 1);
  EXPECT_EQ(obs::attr_pair_attacker(s.conflict_pairs[0].key), 2);
  EXPECT_EQ(s.conflict_pairs[0].count, 1u);
  ASSERT_EQ(s.hot_stripes.size(), 1u);
  EXPECT_EQ(obs::attr_stripe_index(s.hot_stripes[0].key), 3u);
  EXPECT_EQ(obs::attr_conflicts_total(s), 1u);
}

TEST_F(ObsAttrTest, DeltaSubtractsByKey) {
  obs::set_attribution_enabled(true);
  obs::attr_record_conflict(1, 2, 5);
  obs::attr_record_conflict(1, 2, 5);
  const obs::AttributionSnapshot before = obs::attribution_snapshot();
  obs::attr_record_conflict(1, 2, 5);
  obs::attr_record_conflict(3, 4, 6);
  obs::set_attribution_enabled(false);
  const obs::AttributionSnapshot now = obs::attribution_snapshot();
  const obs::AttributionSnapshot d = obs::attribution_delta(now, before);
  EXPECT_EQ(obs::attr_conflicts_total(d), 2u);
  std::uint64_t pair12 = 0, pair34 = 0;
  for (const obs::AttrEntry& e : d.conflict_pairs) {
    if (obs::attr_pair_victim(e.key) == 1) pair12 = e.count;
    if (obs::attr_pair_victim(e.key) == 3) pair34 = e.count;
  }
  EXPECT_EQ(pair12, 1u);
  EXPECT_EQ(pair34, 1u);
}

// The completeness contract end-to-end: hammer one variable from several
// threads with attribution on; every conflict abort must land in the pair
// table, so the pair counts sum EXACTLY to aborts_conflict (unknown
// attackers fall back to site 0 rather than being skipped), and the
// per-reason abort-site counts mirror the tmcv::tm::Stats reason counters.
TEST_F(ObsAttrTest, ConflictPairsSumToAbortsConflict) {
  tmcv::tm::stats_reset();
  obs::attr_reset();
  obs::set_attribution_enabled(true);

  tmcv::tm::var<std::uint64_t> hot(0);
  constexpr int kThreads = 4;
  constexpr int kTxns = 4000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kTxns; ++i)
        tmcv::tm::atomically([&] {
          TMCV_TXN_SITE("attr_test.hot_rmw");
          hot.store(hot.load() + 1);
        });
    });
  for (auto& th : threads) th.join();
  obs::set_attribution_enabled(false);

  std::uint64_t sum = 0;
  tmcv::tm::atomically([&] { sum = hot.load(); });
  EXPECT_EQ(sum, static_cast<std::uint64_t>(kThreads) * kTxns);

  const obs::AttributionSnapshot snap = obs::attribution_snapshot();
  EXPECT_EQ(snap.dropped, 0u);
#if TMCV_TRACE
  const tmcv::tm::Stats st = tmcv::tm::stats_snapshot();
  EXPECT_EQ(obs::attr_conflicts_total(snap), st.aborts_conflict());
  std::uint64_t by_reason[6] = {};
  for (const obs::AttrEntry& e : snap.abort_sites) {
    const std::uint16_t r = obs::attr_key_reason(e.key);
    ASSERT_LT(r, 6u);
    by_reason[r] += e.count;
  }
  EXPECT_EQ(by_reason[obs::kAttrReasonConflict], st.aborts_conflict());
  EXPECT_EQ(by_reason[obs::kAttrReasonCapacity], st.aborts_capacity());
  EXPECT_EQ(by_reason[obs::kAttrReasonSyscall], st.aborts_syscall());
  EXPECT_EQ(by_reason[obs::kAttrReasonExplicit], st.aborts_explicit());
  EXPECT_EQ(by_reason[obs::kAttrReasonRetryWait], st.aborts_retry_wait());
  if (st.aborts_conflict() > 0) {
    bool victim_labeled = false;
    for (const obs::AttrEntry& e : snap.conflict_pairs)
      if (std::string(obs::site_name(obs::attr_pair_victim(e.key))) ==
          "attr_test.hot_rmw")
        victim_labeled = true;
    EXPECT_TRUE(victim_labeled)
        << "no conflict pair names the labeled victim site";
  }
#else
  // Hooks compiled out: nothing must have been recorded.
  EXPECT_EQ(obs::attr_conflicts_total(snap), 0u);
#endif
}

}  // namespace

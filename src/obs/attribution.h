// Conflict attribution: WHO aborts WHOM, and WHERE -- the capture half.
//
// The trace rings and histograms (PR 2) answer "how much"; this layer
// answers "where contention comes from": which transaction sites conflict
// with which, and on which orec stripes.  Three sharded, lock-free counter
// tables accumulate
//
//   * (victim site x abort reason)      -- every abort, any reason
//   * (victim site x attacker site)     -- conflict aborts, attacker read
//                                          from the owning descriptor of the
//                                          locked orec (approximate: the
//                                          owner may have moved on by the
//                                          time we read its site; the
//                                          stripe/victim half is exact)
//   * per-orec-stripe conflict heatmap  -- which stripes the fights are on
//
// A "site" is a static label interned once per call site by the
// TMCV_TXN_SITE("name") macro, which publishes the id into the calling
// thread's TM descriptor; unlabeled transactions attribute to site 0,
// "(unattributed)".  Attribution is complete, not sampled: with the runtime
// gate on, every conflict abort lands in the pair table (a full table
// increments the overflow counter instead of silently dropping), so the pair
// counts sum to aborts_conflict exactly.
//
// Gating follows trace.h's two-level scheme: every call site in tm/ is
// inside `#if TMCV_TRACE` (a disabled build has zero obs symbols in the hot
// archives), and recording additionally checks the kAttrBit runtime flag
// (obs::set_attribution_enabled), so compiled-in-but-disabled costs one
// relaxed load + branch per abort -- aborts are already off the fast path.
//
// Like trace.h, this header is dependency-free capture machinery with inline
// globals: the TM runtime records without a link edge back to tmcv_obs.  The
// fold/top-N/export half (AttributionSnapshot) lives in attribution.cpp
// inside the obs library.
#pragma once

#ifndef TMCV_TRACE
#define TMCV_TRACE 1
#endif

#include <atomic>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <vector>

#include "obs/trace.h"
#include "util/cacheline.h"

namespace tmcv::obs {

// ---------------------------------------------------------------------------
// Site interning
// ---------------------------------------------------------------------------

// Site 0 is reserved for unlabeled transactions (and unknown attackers).
inline constexpr std::uint16_t kMaxSites = 256;
inline constexpr std::uint16_t kUnattributedSite = 0;

namespace detail {

struct SiteTable {
  std::mutex mu;
  // Interned names must be string literals (or otherwise immortal): the
  // table stores the pointers, never copies.  TMCV_TXN_SITE guarantees this.
  const char* names[kMaxSites] = {"(unattributed)"};
  std::uint16_t count = 1;
};

inline SiteTable& site_table() {
  static SiteTable t;
  return t;
}

}  // namespace detail

// Intern `name` (an immortal string), returning its site id.  Idempotent by
// string content; a full table returns kUnattributedSite rather than grow.
// Cold: called once per call site through a function-local static.
inline std::uint16_t intern_site(const char* name) {
  detail::SiteTable& t = detail::site_table();
  std::lock_guard<std::mutex> lock(t.mu);
  for (std::uint16_t i = 1; i < t.count; ++i)
    if (std::strcmp(t.names[i], name) == 0) return i;
  if (t.count == kMaxSites) return kUnattributedSite;
  t.names[t.count] = name;
  return t.count++;
}

// Name for a site id ("(unattributed)" for 0 or out-of-range ids).  The
// returned pointer is immortal.
inline const char* site_name(std::uint16_t id) {
  detail::SiteTable& t = detail::site_table();
  std::lock_guard<std::mutex> lock(t.mu);
  // The kMaxSites bound is implied by count <= kMaxSites, but spelling it
  // out lets the compiler see the array access is in range.
  if (id >= kMaxSites || id >= t.count) return t.names[0];
  return t.names[id];
}

// ---------------------------------------------------------------------------
// Reason vocabulary
// ---------------------------------------------------------------------------

// 0..4 mirror tm::TxAbort::Reason numerically (asserted in descriptor.cpp);
// 5 is the CM's conflict-streak serial escalation (not an abort reason, but
// the same (site x cause) shape).
inline constexpr std::uint16_t kAttrReasonConflict = 0;
inline constexpr std::uint16_t kAttrReasonCapacity = 1;
inline constexpr std::uint16_t kAttrReasonSyscall = 2;
inline constexpr std::uint16_t kAttrReasonExplicit = 3;
inline constexpr std::uint16_t kAttrReasonRetryWait = 4;
inline constexpr std::uint16_t kAttrReasonEscalation = 5;

[[nodiscard]] constexpr const char* attr_reason_name(
    std::uint16_t r) noexcept {
  switch (r) {
    case kAttrReasonConflict:
      return "conflict";
    case kAttrReasonCapacity:
      return "capacity";
    case kAttrReasonSyscall:
      return "syscall";
    case kAttrReasonExplicit:
      return "explicit";
    case kAttrReasonRetryWait:
      return "retry_wait";
    case kAttrReasonEscalation:
      return "serial_escalation";
  }
  return "?";
}

// Stripe sentinel: "conflict detected, stripe unknown" (failed validation
// where the culprit orec was not captured).
inline constexpr std::uint32_t kAttrNoStripe = ~0u;

// ---------------------------------------------------------------------------
// Sharded lock-free counter table
// ---------------------------------------------------------------------------

// Fixed-capacity open-addressed table of (key -> count), sharded by thread
// so concurrent recorders do not fight over one cache line per hot key.  A
// key may therefore live in several shards; for_each visits every replica
// and the fold (attribution.cpp) merges by key.  Keys are nonzero by
// construction (the pack_* helpers set a tag bit); 0 means empty.  A shard
// that fills up counts into `overflow` instead of dropping silently, so
// completeness stays checkable.  reset() is quiescent-only.
template <unsigned SlotsLog2>
class AttrTable {
 public:
  static constexpr std::size_t kShards = 8;
  static constexpr std::size_t kSlots = std::size_t{1} << SlotsLog2;

  void add(std::uint64_t key, std::uint64_t n = 1) noexcept {
    Shard& sh = shards_[shard_index()];
    std::size_t h = hash(key) & (kSlots - 1);
    for (std::size_t probes = 0; probes < kSlots; ++probes) {
      Slot& s = sh.slots[h];
      std::uint64_t cur = s.key.load(std::memory_order_relaxed);
      if (cur == 0) {
        // Claim the empty slot; a lost CAS means someone else claimed it
        // (maybe with our key) -- re-examine the same slot.
        if (!s.key.compare_exchange_strong(cur, key,
                                           std::memory_order_relaxed,
                                           std::memory_order_relaxed)) {
          --probes;
          continue;
        }
        cur = key;
      }
      if (cur == key) {
        s.count.fetch_add(n, std::memory_order_relaxed);
        return;
      }
      h = (h + 1) & (kSlots - 1);
    }
    sh.overflow.fetch_add(n, std::memory_order_relaxed);
  }

  // Visit every live (key, count) replica across all shards.  Counts are
  // relaxed loads: exact at quiescence, monotone approximations while
  // recorders run.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Shard& sh : shards_)
      for (const Slot& s : sh.slots) {
        const std::uint64_t k = s.key.load(std::memory_order_relaxed);
        if (k == 0) continue;
        const std::uint64_t c = s.count.load(std::memory_order_relaxed);
        if (c != 0) fn(k, c);
      }
  }

  [[nodiscard]] std::uint64_t overflow() const noexcept {
    std::uint64_t total = 0;
    for (const Shard& sh : shards_)
      total += sh.overflow.load(std::memory_order_relaxed);
    return total;
  }

  // Zero everything.  Call at quiescence only (a concurrent add could split
  // a key/count pair).
  void reset() noexcept {
    for (Shard& sh : shards_) {
      for (Slot& s : sh.slots) {
        s.key.store(0, std::memory_order_relaxed);
        s.count.store(0, std::memory_order_relaxed);
      }
      sh.overflow.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> key{0};
    std::atomic<std::uint64_t> count{0};
  };
  struct alignas(kCacheLine) Shard {
    Slot slots[kSlots];
    std::atomic<std::uint64_t> overflow{0};
  };

  [[nodiscard]] static std::size_t hash(std::uint64_t k) noexcept {
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdULL;
    k ^= k >> 33;
    return static_cast<std::size_t>(k);
  }

  [[nodiscard]] static std::size_t shard_index() noexcept {
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t mine =
        next.fetch_add(1, std::memory_order_relaxed);
    return mine % kShards;
  }

  Shard shards_[kShards];
};

// ---------------------------------------------------------------------------
// Key packing (tag bit keeps every key nonzero)
// ---------------------------------------------------------------------------

inline constexpr std::uint64_t kAttrKeyTag = 1ull << 63;

[[nodiscard]] constexpr std::uint64_t attr_pack_site_reason(
    std::uint16_t site, std::uint16_t reason) noexcept {
  return kAttrKeyTag | (std::uint64_t{site} << 16) | reason;
}
[[nodiscard]] constexpr std::uint16_t attr_key_site(std::uint64_t k) noexcept {
  return static_cast<std::uint16_t>(k >> 16);
}
[[nodiscard]] constexpr std::uint16_t attr_key_reason(
    std::uint64_t k) noexcept {
  return static_cast<std::uint16_t>(k & 0xffff);
}

[[nodiscard]] constexpr std::uint64_t attr_pack_pair(
    std::uint16_t victim, std::uint16_t attacker,
    std::uint16_t reason) noexcept {
  return kAttrKeyTag | (std::uint64_t{victim} << 32) |
         (std::uint64_t{attacker} << 16) | reason;
}
[[nodiscard]] constexpr std::uint16_t attr_pair_victim(
    std::uint64_t k) noexcept {
  return static_cast<std::uint16_t>(k >> 32);
}
[[nodiscard]] constexpr std::uint16_t attr_pair_attacker(
    std::uint64_t k) noexcept {
  return static_cast<std::uint16_t>(k >> 16);
}

[[nodiscard]] constexpr std::uint64_t attr_pack_stripe(
    std::uint32_t stripe) noexcept {
  return kAttrKeyTag | stripe;
}
[[nodiscard]] constexpr std::uint32_t attr_stripe_index(
    std::uint64_t k) noexcept {
  return static_cast<std::uint32_t>(k & 0xffffffffu);
}

// ---------------------------------------------------------------------------
// Process-wide tables + record hooks
// ---------------------------------------------------------------------------

namespace detail {

// Sizes: sites x reasons is tiny; pairs are quadratic in *labeled* sites
// but sparse in practice; stripes see at most one key per contended orec.
inline AttrTable<9>& abort_site_table() {
  static AttrTable<9> t;
  return t;
}
inline AttrTable<10>& conflict_pair_table() {
  static AttrTable<10> t;
  return t;
}
inline AttrTable<12>& stripe_table() {
  static AttrTable<12> t;
  return t;
}

}  // namespace detail

// Record one abort of any reason (victim side).  Call sites live in
// tm/descriptor.cpp under #if TMCV_TRACE.
inline void attr_record_abort(std::uint16_t victim_site,
                              std::uint16_t reason) noexcept {
  if (!attribution_enabled()) return;
  detail::abort_site_table().add(attr_pack_site_reason(victim_site, reason));
}

// Record one conflict abort: victim x attacker pair plus the stripe heat
// (skipped for kAttrNoStripe).  Unknown attackers pass kUnattributedSite, so
// pair counts still sum to aborts_conflict.
inline void attr_record_conflict(std::uint16_t victim_site,
                                 std::uint16_t attacker_site,
                                 std::uint32_t stripe) noexcept {
  if (!attribution_enabled()) return;
  detail::conflict_pair_table().add(
      attr_pack_pair(victim_site, attacker_site, kAttrReasonConflict));
  if (stripe != kAttrNoStripe)
    detail::stripe_table().add(attr_pack_stripe(stripe));
}

// Record one conflict-streak serial escalation (tm/cm.cpp).
inline void attr_record_escalation(std::uint16_t site) noexcept {
  if (!attribution_enabled()) return;
  detail::abort_site_table().add(
      attr_pack_site_reason(site, kAttrReasonEscalation));
}

// Zero all three tables (quiescent-only; benches call this next to
// tm::stats_reset so attribution sums match the same measurement window).
inline void attr_reset() noexcept {
  detail::abort_site_table().reset();
  detail::conflict_pair_table().reset();
  detail::stripe_table().reset();
}

// ---------------------------------------------------------------------------
// Fold / export (implemented in attribution.cpp, library tmcv_obs)
// ---------------------------------------------------------------------------

struct AttrEntry {
  std::uint64_t key;
  std::uint64_t count;
};

// Merged-by-key view of the three tables, each sorted by count descending
// (ties by key, so snapshots are deterministic at quiescence).  `dropped`
// sums the overflow counters: nonzero means the tables were too small for
// the workload and the top-N lists may be incomplete.
struct AttributionSnapshot {
  std::vector<AttrEntry> abort_sites;     // attr_pack_site_reason keys
  std::vector<AttrEntry> conflict_pairs;  // attr_pack_pair keys
  std::vector<AttrEntry> hot_stripes;     // attr_pack_stripe keys
  std::uint64_t dropped = 0;
};

[[nodiscard]] AttributionSnapshot attribution_snapshot();

// Keyed element-wise `now - before` (activity between two snapshots).
[[nodiscard]] AttributionSnapshot attribution_delta(
    const AttributionSnapshot& now, const AttributionSnapshot& before);

// Sum of conflict-pair counts: the completeness check against
// tm::Stats::aborts_conflict() (equal at quiescence when `dropped` is 0).
[[nodiscard]] std::uint64_t attr_conflicts_total(
    const AttributionSnapshot& s) noexcept;

}  // namespace tmcv::obs

// ---------------------------------------------------------------------------
// TMCV_TXN_SITE: label the enclosing transaction(s) started by this thread
// ---------------------------------------------------------------------------
//
// Place at the top of a transaction body (or just before tm::atomically):
//
//   tm::atomically([&] {
//     TMCV_TXN_SITE("queue.push");
//     ...
//   });
//
// The name must be a string literal (interned by pointer-stable content,
// once, via a function-local static).  The id is published into the thread's
// descriptor with one relaxed store per execution; begin_top clears it, so a
// label never leaks into the next, unlabeled transaction.  The _HINT variant
// sets the label only when none is present yet -- library-internal
// transactions (condvar queue operations) use it so they never stomp a
// user's label on an ambient transaction.
//
// With TMCV_TRACE=0 both macros compile to nothing.
#if TMCV_TRACE
#include "tm/descriptor.h"
#define TMCV_TXN_SITE(name_literal)                          \
  do {                                                       \
    static const std::uint16_t tmcv_site_id_ =               \
        ::tmcv::obs::intern_site(name_literal);              \
    ::tmcv::tm::descriptor().set_txn_site(tmcv_site_id_);    \
  } while (0)
#define TMCV_TXN_SITE_HINT(name_literal)                         \
  do {                                                           \
    static const std::uint16_t tmcv_site_id_ =                   \
        ::tmcv::obs::intern_site(name_literal);                  \
    ::tmcv::tm::descriptor().set_txn_site_hint(tmcv_site_id_);   \
  } while (0)
#else
#define TMCV_TXN_SITE(name_literal) \
  do {                              \
  } while (0)
#define TMCV_TXN_SITE_HINT(name_literal) \
  do {                                   \
  } while (0)
#endif

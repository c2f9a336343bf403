// Live wait-for graph and stuck-thread diagnosis, built on the sync
// layer's always-on wait-point registry (sync/waitpoint.h).
//
// The sync layer answers "thread T is parked, reason R, target X, since
// tick S"; this layer turns those per-thread slots into the three
// diagnostic surfaces ISSUE-level tooling needs:
//
//   * a consistent thread snapshot (`/threads`): every claimed slot,
//     seqlock-validated so a row is either a stable parked state with an
//     exact age or marked running -- never a torn mix;
//   * a waiter -> holder edge set (`/waitgraph`): condvar waiters point at
//     their condvar's last notifier site, serial quiescers at the
//     transaction they are draining.  Edges whose holder is itself a
//     waiter form a functional graph; cycles are detected and counted (a
//     wait cycle is a deadlock in the making);
//   * a lost-wakeup heuristic: a condvar waiter whose park episode has
//     outlived `stuck_windows` probe ticks, whose condvar was being
//     notified before the episode began but saw ZERO notifies during it,
//     while the process kept committing transactions, is flagged a
//     suspect.  The episode id is the slot's odd seq value (unique per
//     park), so a wake-and-repark never carries stale state over.
//
// The probe (`waitgraph_probe`) is the time-series recorder's per-tick
// hook: allocation-free after first use, single caller (the sampler under
// its own mutex), and the only writer of episode state -- the JSON
// builders read the last probe's verdicts but never advance them, so a
// curl cannot perturb the detector.  With the recorder stopped the
// suspect list stays empty (ages and edges still work).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sync/waitpoint.h"

namespace tmcv::obs {

// One claimed wait slot, seqlock-validated.  `waiting == false` rows are
// live threads that are currently running (or whose slot could not be read
// stably); their reason/target/age fields are zero.
struct ThreadRow {
  std::uint32_t slot = 0;                // wait-slot index
  std::uint32_t os_tid = 0;
  std::uint32_t tm_slot = 0xffffffffu;   // TM registry slot, if bound
  bool waiting = false;
  WaitReason reason = WaitReason::kNone;
  std::uint16_t site = 0;                // waiter's own txn site label
  std::uint32_t detail = 0;              // reason-specific (stripe / slot)
  const void* target = nullptr;          // reason-specific identity
  std::uint64_t episode = 0;             // odd seq value; park episode id
  std::uint64_t age_ns = 0;              // now - park start
};

// One waiter -> holder edge.  Exactly one per waiting row: `holder` is an
// index into rows when the blocker resolved to a live thread, else -1 with
// `holder_site` naming the site the waiter is blocked on (condvar: the
// last notifier's site; otherwise the site captured at publish time).
struct WaitEdge {
  std::uint32_t waiter = 0;
  std::int32_t holder = -1;
  std::uint16_t holder_site = 0;
  WaitReason reason = WaitReason::kNone;
  bool in_cycle = false;
};

// Fixed-capacity snapshot (about 50 KiB: heap- or static-allocate, do not
// put one on a small stack).
struct WaitGraph {
  std::uint32_t thread_count = 0;
  std::uint32_t edge_count = 0;
  std::uint32_t cycle_threads = 0;   // threads participating in wait cycles
  std::uint32_t suspect_count = 0;   // lost-wakeup suspects (row indices)
  std::uint64_t now_ticks = 0;       // TSC at snapshot
  ThreadRow rows[kMaxWaitSlots];
  WaitEdge edges[kMaxWaitSlots];
  std::uint32_t suspects[kMaxWaitSlots];
};

// Fill `g` with a consistent snapshot: rows, edges, cycles, and the last
// probe's suspect verdicts.  Thread-safe; does not advance episode state.
void waitgraph_collect(WaitGraph& g);

// Per-tick digest for the time-series recorder (TsSample wait fields).
struct WaitProbe {
  std::uint64_t stall_ns = 0;         // park time accumulated this interval
  std::uint64_t stall_top_reason = 0; // WaitReason index with the largest
                                      // share of stall_ns (0 = none)
  std::uint64_t max_wait_age_ms = 0;  // oldest currently-parked thread
  std::uint64_t stuck_age_ms = 0;     // oldest STUCK thread (see header)
  std::uint64_t wait_cycles = 0;      // threads in waiter->holder cycles
  std::uint64_t threads_waiting = 0;
};

// Take one probe: snapshot the slots, advance per-episode suspect state,
// and diff the stall table against the previous probe.  Allocation-free
// after first call; intended for a single periodic caller (the recorder's
// sampler); concurrent callers are safe but split the interval deltas.
[[nodiscard]] WaitProbe waitgraph_probe();

// Consecutive probe ticks a park episode must outlive before it can be
// judged stuck (lost-wakeup condition (a)).  Default 2.
void set_stuck_windows(std::uint32_t n) noexcept;
[[nodiscard]] std::uint32_t stuck_windows() noexcept;

// Forget episode state and probe baselines (bench phase hygiene; tests).
void waitgraph_reset() noexcept;

// ---------------------------------------------------------------------------
// Stall attribution: the (reason x site) park-time table, resolved.
// ---------------------------------------------------------------------------

struct StallEntry {
  WaitReason reason = WaitReason::kNone;
  std::uint16_t site = 0;
  std::uint64_t ticks = 0;
  std::uint64_t ns = 0;  // to_ns(ticks), converted entry-wise
};

struct StallSnapshot {
  std::vector<StallEntry> entries;  // nonzero cells only
  // Two ledgers, both exact: total_ticks is the sync layer's independently
  // maintained grand total (== sum of entry ticks for every accepted
  // snapshot), and total_ns is the sum of the entry-wise ns conversions
  // (so JSON consumers can re-add entries and match exactly).
  std::uint64_t total_ticks = 0;
  std::uint64_t total_ns = 0;
};

[[nodiscard]] StallSnapshot stall_snapshot();

// ---------------------------------------------------------------------------
// Exporters.
// ---------------------------------------------------------------------------

// `/threads`: every claimed slot with reason, target, site, age.
[[nodiscard]] std::string threads_json();

// `/waitgraph` and the flight recorder's "waitgraph" section: threads +
// edges + suspects + the stall table (trace_report --validate checks that
// edges reference listed threads and that the stall ledgers agree).
[[nodiscard]] std::string waitgraph_json();

}  // namespace tmcv::obs

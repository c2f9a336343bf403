// TM runtime statistics.
//
// Each descriptor owns one Stats and is its only writer (counters::bump);
// the registry folds every descriptor's counters into a process-wide
// snapshot with relaxed loads (and retires them when a thread exits).  They
// power the benchmark reports and the dedup-anomaly diagnosis.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>

#include "util/counters.h"

namespace tmcv::tm {

// Dimensions of the per-backend abort matrix below.  Kept as plain
// constants (not the Backend / TxAbort::Reason enums) so stats.h stays
// header-light; descriptor.cpp static_asserts they match the enums.
inline constexpr std::size_t kStatsBackends = 3;      // eager htm norec
inline constexpr std::size_t kStatsAbortReasons = 5;  // conflict capacity syscall explicit retry_wait

// Label helper for the reason axis (exporters and tools); the backend axis
// uses backend_label(static_cast<Backend>(i)).
[[nodiscard]] const char* stats_abort_reason_label(std::size_t i) noexcept;

struct Stats : counters::Family<Stats> {
  // The first four fields are the read/write fast-path counters: keep them
  // together so the per-access increments touch a single cache line.
  std::uint64_t reads = 0;               // instrumented word reads
  std::uint64_t read_dedup_hits = 0;     // reads coalesced into an existing
                                         // read-set entry (filter or scan)
  std::uint64_t read_dedup_appends = 0;  // read-set entries actually logged
  std::uint64_t writes = 0;              // instrumented word writes

  std::uint64_t commits = 0;           // outermost commits (any backend)
  std::uint64_t ro_commits = 0;        // read-only commits
  std::uint64_t aborts = 0;            // aborts + retries
  std::uint64_t extensions = 0;        // successful timestamp extensions
  std::uint64_t serial_commits = 0;    // irrevocable/relaxed sections
  std::uint64_t serial_fallbacks = 0;  // optimistic -> serial escalations
  std::uint64_t handlers_run = 0;      // onCommit handlers executed

  // Contention-management instrumentation.
  std::uint64_t clock_cas_reuses = 0;       // GV4 adopted (pass-on-failure)
                                            // commit timestamps
  std::uint64_t cm_backoffs = 0;            // inter-retry backoff episodes
  std::uint64_t cm_serial_escalations = 0;  // serial fallbacks forced by the
                                            // conflict-streak limit

  // Fast-path instrumentation (log index, wake batching).
  std::uint64_t log_index_rehashes = 0;  // redo/lock index growth events
  std::uint64_t handlers_registered = 0; // deferred onCommit handler allocs
  std::uint64_t handlers_inline = 0;     // on_commit_fn/on_abort_fn handlers
                                         // logged (no per-call allocation)
  std::uint64_t deferred_wakes = 0;      // semaphores queued in a wake batch
  std::uint64_t wake_batches = 0;        // wake-batch flushes at commit

  // NOrec backend instrumentation.
  std::uint64_t norec_commits = 0;       // writing NOrec commits
  std::uint64_t norec_validations = 0;   // value-revalidation passes
  std::uint64_t norec_val_failures = 0;  // revalidations that found a change

  // Quiesced backend switches (tm::set_default_backend), counted on the switching
  // thread's descriptor.
  std::uint64_t backend_switches = 0;

  // Per-backend abort-reason matrix: aborts_by_backend[backend][reason],
  // axes labeled by backend_label / stats_abort_reason_label.  Sums to
  // `aborts`; its reason columns are the aborts_<reason>() totals below.
  std::uint64_t aborts_by_backend[kStatsBackends][kStatsAbortReasons] = {};

  // Aborts for one reason over every backend (a matrix column): conflict
  // (validation/acquisition), capacity (HTM overflow), syscall (fence in
  // hardware), explicit (retry_txn), retry_wait (self-aborts).
  [[nodiscard]] std::uint64_t aborts_for(std::size_t reason) const noexcept {
    std::uint64_t n = 0;
    for (const auto& row : aborts_by_backend) n += row[reason];
    return n;
  }
  std::uint64_t aborts_conflict() const noexcept { return aborts_for(0); }
  std::uint64_t aborts_capacity() const noexcept { return aborts_for(1); }
  std::uint64_t aborts_syscall() const noexcept { return aborts_for(2); }
  std::uint64_t aborts_explicit() const noexcept { return aborts_for(3); }
  std::uint64_t aborts_retry_wait() const noexcept { return aborts_for(4); }

  // Read-set dedup hit rate over all logged-or-coalesced reads (0 when no
  // instrumented reads ran).
  [[nodiscard]] double dedup_hit_rate() const noexcept {
    const std::uint64_t total = read_dedup_hits + read_dedup_appends;
    return total ? static_cast<double>(read_dedup_hits) /
                       static_cast<double>(total)
                 : 0.0;
  }

  // Visit every counter as (name, member pointer), the matrix included:
  // single source of truth for counters.h and the exporters (src/obs).
  // Visit order is export order: the matrix comes where its aborts_<reason>
  // columns are exported, though it is declared last.
  template <typename Fn>
  static constexpr void for_each_field(Fn&& fn) {
    fn("reads", &Stats::reads);
    fn("read_dedup_hits", &Stats::read_dedup_hits);
    fn("read_dedup_appends", &Stats::read_dedup_appends);
    fn("writes", &Stats::writes);
    fn("commits", &Stats::commits);
    fn("ro_commits", &Stats::ro_commits);
    fn("aborts", &Stats::aborts);
    fn("extensions", &Stats::extensions);
    fn("serial_commits", &Stats::serial_commits);
    fn("serial_fallbacks", &Stats::serial_fallbacks);
    fn("handlers_run", &Stats::handlers_run);
    fn("aborts_by_backend", &Stats::aborts_by_backend);
    fn("clock_cas_reuses", &Stats::clock_cas_reuses);
    fn("cm_backoffs", &Stats::cm_backoffs);
    fn("cm_serial_escalations", &Stats::cm_serial_escalations);
    fn("log_index_rehashes", &Stats::log_index_rehashes);
    fn("handlers_registered", &Stats::handlers_registered);
    fn("handlers_inline", &Stats::handlers_inline);
    fn("deferred_wakes", &Stats::deferred_wakes);
    fn("wake_batches", &Stats::wake_batches);
    fn("norec_commits", &Stats::norec_commits);
    fn("norec_validations", &Stats::norec_validations);
    fn("norec_val_failures", &Stats::norec_val_failures);
    fn("backend_switches", &Stats::backend_switches);
  }

  // Every exported scalar as fn(name, value), in visitor order: the scalar
  // fields, and in the matrix's place its reason columns as
  // aborts_<reason>.  The exporters and to_string() print through it.
  template <typename Fn>
  void for_each_scalar(Fn&& fn) const {
    for_each_field([&](const char* name, auto field) {
      if constexpr (std::is_array_v<
                        std::remove_reference_t<decltype(this->*field)>>) {
        for (std::size_t r = 0; r < kStatsAbortReasons; ++r)
          fn(std::string("aborts_") + stats_abort_reason_label(r),
             aborts_for(r));
      } else {
        fn(std::string(name), this->*field);
      }
    });
  }

  // "name=value" for every non-zero scalar.
  [[nodiscard]] std::string to_string() const;
};

// Fold all live descriptors' counters (plus retired threads') into one view,
// minus the fold recorded by the last stats_reset().  Safe to call while
// threads run and exit: the registry serializes the live->retired fold
// against this scan, so no thread is double-counted or lost, and every field
// is monotonic between resets (live counters are read with relaxed loads).
[[nodiscard]] Stats stats_snapshot();

// Record the current fold as the zero point of later snapshots.  Writes no
// descriptor: each descriptor's counters keep exactly one writer.
void stats_reset();

}  // namespace tmcv::tm

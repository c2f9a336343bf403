// The NOrec backend (Dalessandro/Spear/Scott, PPoPP 2010).
//
// Reads load the value directly and log (addr, value); consistency is the
// single global commit counter not having moved since the transaction's
// snapshot.  When it has moved, the read log is revalidated BY VALUE: each
// address is re-read and compared, so writes that restored the old value
// ("silent stores") don't abort anyone.  Writes buffer in the shared redo
// log (redo_append); commit CASes the counter even->odd, writes back while
// holding it, and releases with +2.  No ownership records are touched, so
// an uncontended read costs one data load plus one shared counter load --
// no stripe hash, no orec probe, no recheck.
//
// Opacity note (docs/BACKENDS.md): value-based validation admits reading a
// value that is torn ACROSS addresses mid-write-back; the counter check
// after the value load (read_word fast path) closes that window, because a
// write-back holds the counter odd for its whole duration.
#include "tm/algs/norec.h"

#include "tm/descriptor.h"
#include "util/cacheline.h"

namespace tmcv::tm {

namespace {

CacheAligned<std::atomic<std::uint64_t>> g_norec_clock;

}  // namespace

namespace algs {

std::atomic<std::uint64_t>& norec_clock() noexcept { return *g_norec_clock; }

}  // namespace algs

std::uint64_t TxDescriptor::read_norec_slow(
    const std::atomic<std::uint64_t>* addr) {
  // The counter moved since our snapshot: revalidate the log forward, then
  // retry the read against the new snapshot (the NOrec analogue of the
  // orec family's timestamp extension, so it counts as one).
  for (;;) {
    const std::uint64_t value = addr->load(std::memory_order_acquire);
    if (algs::norec_clock().load(std::memory_order_acquire) == start_time_) {
      counters::bump(stats_.reads);
      norec_reads_.push_back(NorecReadEntry{addr, value});
      return value;
    }
    norec_validate();
    counters::bump(stats_.extensions);
  }
}

std::uint64_t TxDescriptor::norec_validate() {
  counters::bump(stats_.norec_validations);
  auto& clk = algs::norec_clock();
  for (;;) {
    // Wait out any in-flight write-back, then compare every logged value
    // against memory.  The trailing counter recheck makes the scan atomic:
    // if it still reads t, no write-back overlapped the comparisons.
    const std::uint64_t t = algs::norec_begin_snapshot();
    for (const NorecReadEntry& e : norec_reads_) {
      if (e.addr->load(std::memory_order_acquire) != e.value) {
        counters::bump(stats_.norec_val_failures);
        abort_restart(TxAbort::Reason::Conflict);
      }
    }
    if (clk.load(std::memory_order_acquire) == t) {
      start_time_ = t;
      return t;
    }
    // A commit raced the scan; run it again at the newer snapshot.
  }
}

bool TxDescriptor::reads_valid_norec() const noexcept {
  // Non-aborting, non-advancing variant for retry_and_wait: report whether
  // the snapshot still holds without moving start_time_ (the const
  // reads_valid contract).
  auto& clk = algs::norec_clock();
  for (;;) {
    const std::uint64_t t = algs::norec_begin_snapshot();
    if (t == start_time_) return true;  // counter never moved: trivially valid
    for (const NorecReadEntry& e : norec_reads_)
      if (e.addr->load(std::memory_order_acquire) != e.value) return false;
    if (clk.load(std::memory_order_acquire) == t) return true;
  }
}

void TxDescriptor::commit_norec() {
  if (redo_log_.empty()) {
    // Read-only: every read was validated against an unmoved counter at the
    // time it was logged, and read-only transactions need no write-back.
    counters::bump(stats_.ro_commits);
    reset_logs();
    return;
  }
  auto& clk = algs::norec_clock();
  std::uint64_t t = start_time_;
  while (!clk.compare_exchange_weak(t, t + 1, std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
    // The counter moved past our snapshot (or a write-back is in flight):
    // revalidate forward to a fresh even snapshot and retry the CAS there.
    // norec_validate aborts on a value mismatch and leaves start_time_ at
    // the returned snapshot otherwise.
    t = norec_validate();
  }
  // Counter is odd: this thread owns the write-back window.  Replay the
  // redo log in program order (last write wins) and release with +2.
  for (const RedoEntry& w : redo_log_)
    w.addr->store(w.value, std::memory_order_release);
  clk.store(t + 2, std::memory_order_release);
  counters::bump(stats_.norec_commits);
  reset_logs();
  bump_commit_signal();
}

}  // namespace tmcv::tm

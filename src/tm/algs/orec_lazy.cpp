// LazySTM (TL2-style) commit protocol: commit-time orec acquisition,
// write-back on success.  Its write barrier is NOrec's redo-log append
// (TxDescriptor::redo_append): the buffering is the same, and NOrec just
// never touches the orecs at commit.
#include <algorithm>

#include "tm/descriptor.h"
#include "tm/clock.h"

namespace tmcv::tm {

void TxDescriptor::commit_lazy() {
  if (redo_log_.empty()) {
    counters::bump(stats_.ro_commits);
    reset_logs();
    return;
  }
  // Acquire every written stripe, one lock per orec.  Duplicate stripes need
  // no side table: the orec word itself records ownership, and the
  // acquisition protocol starts with the load that reveals it -- a stripe we
  // already hold is skipped by the locked_by_me check below for free (the
  // old per-entry lock-index maintenance disappears entirely).
  //
  // Small write sets (the overwhelmingly common case) acquire in encounter
  // order: the whole commit window is a handful of stores, so the polite
  // wait below comfortably outlives any cycle partner and the bounded wait
  // turns ordering hazards into (at worst) one abort.  Large write sets are
  // first deduped and sorted into a global acquisition order, so long
  // commit windows chase each other's locks in one direction and cannot
  // form cyclic polite waits.
  const bool sorted_acquire = redo_log_.size() > kSortedAcquireThreshold;
  if (sorted_acquire) {
    acquire_scratch_.clear();
    for (const RedoEntry& w : redo_log_)
      acquire_scratch_.push_back(&orec_for(w.addr));
    std::sort(acquire_scratch_.begin(), acquire_scratch_.end());
    acquire_scratch_.erase(
        std::unique(acquire_scratch_.begin(), acquire_scratch_.end()),
        acquire_scratch_.end());
  }
  const std::size_t n_stripes =
      sorted_acquire ? acquire_scratch_.size() : redo_log_.size();
  for (std::size_t i = 0; i < n_stripes; ++i) {
    Orec* o =
        sorted_acquire ? acquire_scratch_[i] : &orec_for(redo_log_[i].addr);
    for (;;) {
      OrecWord cur = o->load(std::memory_order_acquire);
      if (orec_is_locked(cur)) {
        if (orec_locked_by_me(cur)) break;  // duplicate stripe: already ours
        // Polite acquisition: commit-time lock holds are short (write-back
        // plus release), so a bounded wait usually outlives the holder and
        // turns what was an instant abort into a brief pause.
        cur = wait_for_orec_unlock(*o);
        if (orec_is_locked(cur)) {
          note_conflict_orec(*o, cur);
          abort_restart(TxAbort::Reason::Conflict);
        }
        continue;  // re-run the protocol against the fresh word
      }
      if (orec_version(cur) > start_time_) {
        if (!extend()) abort_restart(TxAbort::Reason::Conflict);
        continue;
      }
      if (o->compare_exchange_strong(cur, make_locked(slot_),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
        note_lock(o, cur);
        break;
      }
    }
  }
  const VersionClock::Tick t = global_clock().tick();
  counters::bump(stats_.clock_cas_reuses, t.reused);
  if ((t.reused || t.time != start_time_ + 1) && !reads_valid_orec())
    abort_restart(TxAbort::Reason::Conflict);
  for (const RedoEntry& w : redo_log_)
    w.addr->store(w.value, std::memory_order_release);
  for (const LockEntry& e : lock_set_)
    e.orec->store(make_version(t.time), std::memory_order_release);
  reset_logs();
  bump_commit_signal();
}

}  // namespace tmcv::tm

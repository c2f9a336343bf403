// EagerSTM write barrier and commit protocol (also used by the HTM
// emulation, which layers capacity and syscall aborts on top).
// Encounter-time locking, write-through with an undo log: write_word_slow and
// commit_top route Backend::EagerSTM and Backend::HTM here.
#include "tm/descriptor.h"
#include "tm/clock.h"

namespace tmcv::tm {

void TxDescriptor::write_eager(std::atomic<std::uint64_t>* addr,
                               std::uint64_t value) {
  Orec& o = orec_for(addr);
  for (;;) {
    OrecWord cur = o.load(std::memory_order_acquire);
    if (orec_locked_by_me(cur)) break;  // stripe already owned
    if (orec_is_locked(cur)) {
      note_conflict_orec(o, cur);
      abort_restart(TxAbort::Reason::Conflict);
    }
    if (orec_version(cur) > start_time_) {
      if (backend_ == Backend::HTM) {
        note_conflict_orec(o, cur);  // extend() captures its own culprit
        abort_restart(TxAbort::Reason::Conflict);
      }
      if (!extend()) abort_restart(TxAbort::Reason::Conflict);
      continue;
    }
    if (backend_ == Backend::HTM && lock_set_.size() >= kHtmWriteCapacity)
      abort_restart(TxAbort::Reason::Capacity);
    if (o.compare_exchange_strong(cur, make_locked(slot_),
                                  std::memory_order_acq_rel,
                                  std::memory_order_acquire)) {
      lock_set_.push_back(&o);
      break;
    }
    // CAS lost a race; re-examine the new word.
  }
  undo_log_.push_back(UndoEntry{addr, addr->load(std::memory_order_relaxed)});
  addr->store(value, std::memory_order_release);
}

void TxDescriptor::commit_eager() {
  if (lock_set_.empty()) {
    // Read-only: the per-read validation already proved consistency at
    // start_time_; nothing to publish.
    counters::bump(stats_.ro_commits);
    reset_logs();
    return;
  }
  const VersionClock::Tick t = global_clock().tick();
  counters::bump(stats_.clock_cas_reuses, t.reused);
  // If we won the tick and nobody committed since our snapshot, reads are
  // trivially valid; a reused tick means someone DID commit concurrently,
  // so the skip is never sound then (see VersionClock::tick).
  if ((t.reused || t.time != start_time_ + 1) && !reads_valid_orec())
    abort_restart(TxAbort::Reason::Conflict);
  for (Orec* o : lock_set_)
    o->store(make_version(t.time), std::memory_order_release);
  reset_logs();
  bump_commit_signal();
}

}  // namespace tmcv::tm

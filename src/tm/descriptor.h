// Per-thread transaction descriptor: the engine behind tm::atomically.
//
// One descriptor exists per thread (thread_local).  It implements NOrec
// (tm/algs/norec.h), the process default and the straight-line path of
// every barrier.  NOrec's redo log is the paper's §4.2 redo-log case.  Two
// more optimistic backends share an orec table and version clock, selected
// per transaction by branching on backend_:
//
//   EagerSTM -- the paper's "Westmere" configuration: GCC ml_wt stand-in.
//               Encounter-time locking, write-through with an undo log.
//   HTM      -- the paper's "Haswell" configuration: best-effort bounded
//               transactions.  Eager execution with hard capacity limits,
//               no timestamp extension (first conflict aborts), explicit
//               abort on syscall-like actions; the retry loop escalates
//               to the serial lock after a few attempts (RTM + lock-elision
//               stand-in).
//
// plus the Serial state: irrevocable/relaxed transactions, and the serial
// attempt the retry loop escalates to, which undo-logs its writes so it can
// still roll back.
//
// Aborts are signalled by throwing TxAbort after the descriptor has rolled
// back; the retry loop lives in tm::atomically (api.h).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "tm/algs/norec.h"
#include "tm/clock.h"
#include "tm/cm.h"
#include "tm/orec.h"
#include "tm/stats.h"
#include "util/assert.h"

namespace tmcv {
class BinarySemaphore;
}  // namespace tmcv

namespace tmcv::tm {

enum class Backend : std::uint8_t {
  EagerSTM,
  HTM,
  // NOrec (Dalessandro/Spear/Scott): no ownership records at all.  Reads
  // are validated by value against a single global commit counter; writes
  // buffer in the redo log and write back while holding the counter.
  NOrec,
};

[[nodiscard]] const char* to_string(Backend b) noexcept;

// Lowercase flag/metrics label ("eager", "htm", "norec").
[[nodiscard]] const char* backend_label(Backend b) noexcept;

// Parse a lowercase label back to a Backend; false on unknown input.
[[nodiscard]] bool backend_from_label(const char* s, Backend& out) noexcept;

// TxAbort (the abort token) lives in tm/cm.h alongside the attempt budgets
// and the contention-management policy.

enum class TxState : std::uint8_t { Idle, Optimistic, Serial };

class TxDescriptor {
 public:
  TxDescriptor();
  ~TxDescriptor() = default;

  TxDescriptor(const TxDescriptor&) = delete;
  TxDescriptor& operator=(const TxDescriptor&) = delete;

  // Descriptors are pooled, never destroyed while the process runs: the
  // serial lock's quiescence scan and the epoch collector dereference other
  // threads' descriptors through the registry, so their storage must stay
  // valid.  attach/detach bind a pooled descriptor to the current thread.
  void attach();
  void detach();

  // ---- lifecycle (driven by tm::atomically / tm::irrevocably) ----

  [[nodiscard]] TxState state() const noexcept { return state_; }
  [[nodiscard]] bool in_txn() const noexcept { return state_ != TxState::Idle; }
  [[nodiscard]] Backend backend() const noexcept { return backend_; }
  [[nodiscard]] std::uint32_t depth() const noexcept { return depth_; }
  [[nodiscard]] std::uint64_t slot() const noexcept { return slot_; }

  // Begin a top-level optimistic transaction (waits out any serial section).
  void begin_top(Backend b, std::uint32_t depth = 1);

  // Flat nesting bookkeeping for nested atomically() blocks.
  void push_nested() noexcept { ++depth_; }
  void pop_nested() noexcept {
    TMCV_DEBUG_ASSERT(depth_ > 1);
    --depth_;
  }

  // Commit the top-level transaction (validate, publish, run handlers).
  // Throws TxAbort if validation fails (after rolling back).
  void commit_top();

  // Roll back and throw TxAbort (requires can_roll_back()).  `retry_signal`
  // rides along on a RetryWait abort (see retry_and_wait).
  [[noreturn]] void abort_restart(TxAbort::Reason reason,
                                  std::uint64_t retry_signal = 0);

  // An optimistic attempt, or a serial one that undo-logs its writes (the
  // retry loop's escalated attempt): the states abort_restart can undo.
  [[nodiscard]] bool can_roll_back() const noexcept {
    return state_ == TxState::Optimistic ||
           (state_ == TxState::Serial && serial_undo_);
  }

  // Harris-style retry (paper §6/§7): validate the snapshot, roll back,
  // and throw a RetryWait abort carrying the current commit-signal value;
  // the retry loop sleeps until some writing commit bumps the signal, then
  // re-runs the closure.  Coarse (any commit wakes) but lost-wakeup-free:
  // the signal is observed before validation, so no commit that could have
  // changed the predicate is missed.  In an escalated serial attempt it
  // undoes the writes and gives the serial lock back.
  [[noreturn]] void retry_and_wait();

  // ---- serial / irrevocable ----

  // `undo`: the retry loop escalated here, so the section logs an undo
  // entry per write and can roll back like the optimistic attempts before
  // it.  Irrevocable sections (tm::irrevocably, a split WAIT's
  // continuation) pass false: they commit whatever ran.
  void begin_serial(std::uint32_t depth = 1, bool undo = false);
  void commit_serial();

  // ---- early commit & split transactions (WAIT support, paper §3.2/§4.2) --

  // ENDSYNCBLOCK inside a transaction: commit *now*, at any depth.  Saves the
  // depth so the continuation can be resumed at the same nesting level.
  // Throws TxAbort if the commit-time validation fails (the enclosing
  // atomically retries the whole body, which is correct: nothing published).
  void end_sync_block();

  // BEGINSYNCBLOCK for the continuation: a fresh transaction at the saved
  // depth.  `irrevocable` selects the §4.3 "run the continuation
  // irrevocably" mode that permits the traditional (non-CPS) interface.
  void begin_sync_block(bool irrevocable);

  [[nodiscard]] std::uint32_t saved_depth() const noexcept {
    return saved_depth_;
  }

  // Split-completion protocol: when a CPS wait fully handles the second half
  // itself, it marks the split done; commit_top then becomes a no-op once.
  void mark_split_done() noexcept { split_done_ = true; }
  [[nodiscard]] bool split_done() const noexcept { return split_done_; }

  // ---- data access ----

  // Defined inline below: the NOrec read and write barriers and the eager
  // read fast path (orec probe, value load, recheck, dedup-filter hit)
  // compile into the caller; everything else calls the out-of-line
  // protocol.
  [[nodiscard]] std::uint64_t read_word(const std::atomic<std::uint64_t>* addr);
  void write_word(std::atomic<std::uint64_t>* addr, std::uint64_t value);

  // ---- handlers (REGISTERHANDLER of Algorithms 5/6) ----

  // Deferred until after the outermost commit; discarded on abort.  Runs
  // immediately when no transaction is active.
  void on_commit(std::function<void()> fn);

  // Run if the transaction aborts (compensation); discarded on commit.
  void on_abort(std::function<void()> fn);

  // Allocation-free handler registration: a plain function pointer plus a
  // context pointer, appended to a reserved POD log per kind (no heap once
  // warmed up).  The condvar wait paths register their handlers this way,
  // and a std::function whose capture exceeds the small-buffer limit
  // heap-allocates on every registration -- measurable on the wait fast
  // path.  These handlers run in registration order, before any
  // std::function handlers of the same kind.
  using HandlerFn = void (*)(void*);
  void on_commit_fn(HandlerFn fn, void* ctx);
  void on_abort_fn(HandlerFn fn, void* ctx);

  // ---- batched wakeups ----
  //
  // Queue a semaphore post for the outermost commit.  The batch is a plain
  // per-descriptor vector (reused across transactions: no allocation in
  // steady state, no std::function) flushed with one coalesced
  // BinarySemaphore::post_batch after publication; a rollback clears it, so
  // a discarded notify releases nothing.  Posts immediately when no
  // transaction is active.  This is the allocation-free fast path behind
  // CondVar::notify_{one,n,all,best}.
  void defer_wake(BinarySemaphore* sem);

  // Abort if executing inside a hardware transaction: models the fact that a
  // syscall (futex wait/wake) inside RTM aborts the transaction (§3.2).
  void syscall_fence();

  // ---- quiescence (used by SerialLock) ----

  [[nodiscard]] std::uint64_t activity() const noexcept {
    return activity_.load(std::memory_order_seq_cst);
  }

  // ---- epoch GC support (see tm/epoch.h) ----

  [[nodiscard]] std::uint64_t announced_epoch() const noexcept {
    return epoch_.load(std::memory_order_seq_cst);
  }

  // ---- stats & contention management ----
  // Only the owning thread writes stats (counters::bump); other threads
  // read them with counters::load.
  Stats& stats() noexcept { return stats_; }
  ContentionManager& cm() noexcept { return cm_; }

  // ---- conflict attribution (obs/attribution.h) ----
  //
  // The TMCV_TXN_SITE macro publishes an interned site id here; abort paths
  // read the *attacker's* site through the registry to build (victim,
  // attacker) conflict pairs.  The store is relaxed and the cross-thread
  // read racy-but-approximate by design: the owner may have moved on by the
  // time the victim looks, in which case the victim attributes to whatever
  // transaction the attacker runs now (or site 0 once idle).  Cleared by
  // begin_top so a label never outlives its transaction.
  void set_txn_site(std::uint16_t site) noexcept {
    attr_site_.store(site, std::memory_order_relaxed);
  }
  // Library-internal labels (condvar queue ops) must not stomp a user label
  // on an ambient transaction: set only when unlabeled.
  void set_txn_site_hint(std::uint16_t site) noexcept {
    if (attr_site_.load(std::memory_order_relaxed) == 0)
      attr_site_.store(site, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint16_t txn_site() const noexcept {
    return attr_site_.load(std::memory_order_relaxed);
  }

  // Jittered backoff between optimistic retries (the one tuned policy, via
  // the contention manager), with stats/obs accounting.
  void backoff_for_retry() noexcept;

  // HTM emulation capacities (exposed for tests/benchmarks).
  static constexpr std::size_t kHtmReadCapacity = 1024;
  static constexpr std::size_t kHtmWriteCapacity = 64;

 private:
  struct ReadEntry {
    const Orec* orec;
    OrecWord seen;  // unlocked orec word observed at read time
  };
  struct UndoEntry {
    std::atomic<std::uint64_t>* addr;
    std::uint64_t old_value;
  };
  struct RedoEntry {
    std::atomic<std::uint64_t>* addr;
    std::uint64_t value;
  };
  // NOrec read log: value-based, not version-based.  Revalidation re-reads
  // every address and compares values, so a stripe-aliasing dedup filter
  // does not apply (two addresses in one stripe hold different values).
  struct NorecReadEntry {
    const std::atomic<std::uint64_t>* addr;
    std::uint64_t value;
  };

  // ---- read-set dedup filter ----
  //
  // read_optimistic logs each orec stripe (almost always) once per
  // transaction, so the read set is O(stripes) instead of O(reads) and
  // validation/extension revalidate a stripe once instead of per read.
  // Membership is decided by a direct-mapped tag cache keyed by orec index.
  // A tag packs the 16-bit orec index with the low 48 bits of log_epoch_
  // into one word, so a probe is a single compare, stale entries (from any
  // earlier transaction) can never match, and the whole cache is
  // invalidated by bumping log_epoch_ -- never a memset.
  //
  // The note path (note_read below) is deliberately BRANCH-FREE: hit/miss
  // is data-dependent and mispredicts heavily if branched on (measured ~2x
  // on the read fast path), so the filter slot is overwritten
  // unconditionally, the log append writes unconditionally into reserved
  // slack, and the end pointer advances by !hit.  (A 2-way MRU variant was
  // measured ~20% slower end-to-end: the cmov chain and second way's
  // load/store cost more than the aliasing they prevent.)  The price is
  // approximate dedup: when two live stripes alias one slot their reads
  // re-append on each alternation, and duplicate read-set entries are
  // benign -- they just get validated twice, exactly as every read did
  // before dedup.  There is no scan or Bloom fallback: a miss costs
  // nothing beyond keeping the already-written slack entry.
  static constexpr std::size_t kReadFilterSlots = 512;  // 4 KiB
  static constexpr std::uint64_t kFilterEpochMask = (1ull << 48) - 1;

  // Branch-free dedup note + append (see the filter comment above).
  void note_read(const Orec* o, OrecWord seen, std::uint64_t idx) noexcept {
    const std::uint64_t tag = (idx << 48) | epoch_tag_;
    std::uint64_t& slot = read_filter_[idx & (kReadFilterSlots - 1)];
    const bool hit = slot == tag;
    slot = tag;
    counters::bump(stats_.read_dedup_hits, hit);
    if (rs_end_ == rs_cap_) [[unlikely]] read_set_grow();
    rs_end_->orec = o;  // unconditional store into reserved slack;
    rs_end_->seen = seen;
    rs_end_ += !hit;  // ...kept only on a miss
  }

  // Doubles the read-set buffer (cold).
  void read_set_grow();

  // Non-optimistic reads (Idle / Serial).
  [[nodiscard]] std::uint64_t read_word_slow(
      const std::atomic<std::uint64_t>* addr);

  // Every write but an optimistic NOrec one: Idle, Serial, the orec family
  // and HTM.
  void write_word_slow(std::atomic<std::uint64_t>* addr, std::uint64_t value);

  // ---- redo-log hash index ----
  //
  // Open-addressed, inline-storage map from a key pointer to a log index,
  // making find_redo O(1) for large write sets (a linear read-after-write
  // scan is O(n^2)).  Small write sets never build it: find_redo scans the
  // log directly until it outgrows kRedoIndexThreshold entries -- a handful
  // of contiguous compares beats per-write hash maintenance.  Slots
  // are invalidated wholesale by epoch stamping: a slot belongs to the
  // current transaction iff its stamp equals the descriptor's log_epoch_,
  // so clearing between transactions is a single counter increment, never a
  // memset.  Entries are never deleted within a transaction (logs only
  // grow), so probe chains stay valid; growth rehashes live slots.
  class LogIndex {
   public:
    static constexpr std::uint32_t kNpos = ~0u;

    void reset(std::uint64_t epoch) noexcept {
      epoch_ = epoch;
      live_ = 0;
    }

    [[nodiscard]] std::uint32_t find(const void* key) const noexcept {
      if (slots_.empty()) return kNpos;
      for (std::uint32_t h = hash(key) & mask_;; h = (h + 1) & mask_) {
        const Slot& s = slots_[h];
        if (s.stamp != epoch_) return kNpos;  // empty for this transaction
        if (s.key == key) return s.idx;
      }
    }

    // Insert or overwrite: the redo log is append-only (repeated writes to
    // one word coexist in it), so an index hit must be redirected at the
    // newest entry.  Returns true when the table grew (so callers can count
    // rehashes).
    bool upsert(const void* key, std::uint32_t idx) {
      bool grew = false;
      if (slots_.empty()) {
        grow(kInitialSlots);
        grew = true;
      } else if ((live_ + 1) * 4 > (mask_ + 1) * 3) {  // load factor 3/4
        grow((mask_ + 1) * 2);
        grew = true;
      }
      for (std::uint32_t h = hash(key) & mask_;; h = (h + 1) & mask_) {
        Slot& s = slots_[h];
        if (s.stamp != epoch_) {
          s = Slot{key, idx, epoch_};
          ++live_;
          return grew;
        }
        if (s.key == key) {
          s.idx = idx;
          return grew;
        }
      }
    }

   private:
    struct Slot {
      const void* key;
      std::uint32_t idx;
      std::uint64_t stamp;
    };
    static constexpr std::uint32_t kInitialSlots = 64;

    [[nodiscard]] static std::uint32_t hash(const void* key) noexcept {
      const auto bits = reinterpret_cast<std::uintptr_t>(key) >> 3;
      return static_cast<std::uint32_t>(
          (static_cast<std::uint64_t>(bits) * 0x9e3779b97f4a7c15ULL) >> 32);
    }

    void place(const void* key, std::uint32_t idx) noexcept {
      std::uint32_t h = hash(key) & mask_;
      while (slots_[h].stamp == epoch_) h = (h + 1) & mask_;
      slots_[h] = Slot{key, idx, epoch_};
    }

    void grow(std::uint32_t target) {
      std::vector<Slot> old = std::move(slots_);
      slots_.assign(target, Slot{nullptr, 0, 0});
      mask_ = target - 1;
      for (const Slot& s : old)
        if (s.stamp == epoch_) place(s.key, s.idx);
    }

    std::vector<Slot> slots_;
    std::uint32_t mask_ = 0;
    std::uint32_t live_ = 0;
    std::uint64_t epoch_ = 0;
  };

  // Backend-specific paths.  write_word, commit_top and reads_valid branch
  // on backend_ to reach them, as read_word does; the bodies live in
  // tm/algs/{orec_eager,norec}.cpp.
  [[nodiscard]] std::uint64_t read_optimistic(
      const std::atomic<std::uint64_t>* addr);
  void write_eager(std::atomic<std::uint64_t>* addr, std::uint64_t value);
  // NOrec's redo-log write barrier (defined inline below).
  void redo_append(std::atomic<std::uint64_t>* addr, std::uint64_t value);
  void commit_eager();
  void commit_norec();
  void rollback() noexcept;

  // NOrec slow read: the counter moved since the last snapshot, so
  // revalidate the value log and retry the read at the new snapshot.
  [[nodiscard]] std::uint64_t read_norec_slow(
      const std::atomic<std::uint64_t>* addr);

  // NOrec revalidation: waits out any in-flight write-back, re-reads the
  // value log, and returns the new (even) snapshot -- or aborts on a value
  // mismatch.  Advances start_time_ to the returned snapshot.
  std::uint64_t norec_validate();

  // Try to advance start_time_ to the current clock after validating the
  // read set; returns false on conflict.
  [[nodiscard]] bool extend();

  // Generic snapshot validity: the orec loop for the eager/HTM family,
  // a non-aborting value recheck for NOrec.  Must not abort or move
  // start_time_: retry_and_wait calls it before parking.
  [[nodiscard]] bool reads_valid() const noexcept;
  [[nodiscard]] bool reads_valid_orec() const noexcept;
  [[nodiscard]] bool reads_valid_norec() const noexcept;

  [[nodiscard]] bool orec_locked_by_me(OrecWord w) const noexcept {
    return orec_is_locked(w) && orec_owner_slot(w) == slot_;
  }
  [[nodiscard]] RedoEntry* find_redo(
      const std::atomic<std::uint64_t>* addr) noexcept;

  // Index the newest redo entry, or every live one when the write set has
  // just outgrown the linear scan (redo_append's cold tail).
  void index_redo_tail();

  void reset_logs() noexcept;
  void run_commit_handlers();
  void run_abort_handlers() noexcept;

  // Start a fresh logging epoch: invalidates the read filter and both log
  // indexes in O(1) and clears the per-transaction Bloom signature.
  void new_log_epoch() noexcept;

  // Post and clear the wake batch (commit path); aborts just clear it.
  void flush_wake_batch() noexcept;

  // Mark this thread visible-in-transaction for quiescence.
  void activity_begin() noexcept;
  void activity_end() noexcept;

  std::uint64_t slot_;
  TxState state_ = TxState::Idle;
  Backend backend_ = Backend::EagerSTM;
  std::uint32_t depth_ = 0;
  std::uint32_t saved_depth_ = 0;
  bool split_done_ = false;
  bool serial_undo_ = false;  // see begin_serial
  std::uint64_t start_time_ = 0;

  // Read set: a manually managed buffer instead of std::vector so note_read
  // can append branch-free (store into slack, conditionally advance).  The
  // invariant rs_end_ < rs_cap_ always leaves one writable slack slot.
  std::unique_ptr<ReadEntry[]> rs_storage_;
  ReadEntry* rs_base_ = nullptr;
  ReadEntry* rs_end_ = nullptr;
  ReadEntry* rs_cap_ = nullptr;

  // Stripes this transaction locked (ownership itself is recorded in the
  // orec word, so no index is maintained).
  std::vector<Orec*> lock_set_;
  std::vector<UndoEntry> undo_log_;
  std::vector<RedoEntry> redo_log_;
  std::vector<NorecReadEntry> norec_reads_;
  std::vector<std::function<void()>> commit_handlers_;
  std::vector<std::function<void()>> abort_handlers_;
  // POD handler logs (see on_commit_fn): cleared on both commit and abort,
  // drained before the std::function vectors above.
  struct FnHandler {
    HandlerFn fn;
    void* ctx;
  };
  std::vector<FnHandler> commit_fns_;
  std::vector<FnHandler> abort_fns_;
  std::vector<BinarySemaphore*> wake_batch_;

  // Dedup filter + log-index state (see the comments above).
  // log_epoch_ starts at 0 and is bumped before every top-level transaction,
  // so zero-initialized tags are never mistaken for live entries.
  // epoch_tag_ caches log_epoch_ & kFilterEpochMask so the per-read tag is
  // one shift and one OR.
  std::uint64_t read_filter_[kReadFilterSlots] = {};
  std::uint64_t log_epoch_ = 0;
  std::uint64_t epoch_tag_ = 0;
  LogIndex redo_index_;
  // find_redo scans the log linearly until it holds this many entries, then
  // builds redo_index_ once and switches to O(1) lookups.
  static constexpr std::size_t kRedoIndexThreshold = 16;
  bool redo_indexed_ = false;

  // HTM read footprint for the current attempt.  Counted per instrumented
  // read (pre-dedup): the emulated capacity models a footprint-limited
  // hardware buffer, and must not widen just because the software read set
  // got denser.
  std::size_t htm_reads_ = 0;

  void announce_epoch() noexcept;

  // Even = no optimistic transaction in flight; odd = in flight.
  std::atomic<std::uint64_t> activity_{0};

  // Global epoch observed at the last begin (epoch reclamation).
  std::atomic<std::uint64_t> epoch_{0};

  // Observability: TscClock ticks at the current attempt's begin (0 when
  // the obs layer is off).  Consumed by the commit/abort hooks to produce
  // txn duration histograms and trace events (src/obs).
  std::uint64_t txn_begin_ticks_ = 0;

  // Conflict attribution: the culprit orec noted by whichever detection
  // path fires last before an abort (stripe index + the owner slot encoded
  // in the locked word, or kNoConflictOrec when the culprit was unlocked /
  // unknown).  abort_restart consumes and clears both.  `mutable` because
  // reads_valid() is const but is a detection path.
  static constexpr std::uint64_t kNoConflictOrec = ~0ull;
  mutable std::uint64_t attr_stripe_ = kNoConflictOrec;
  mutable std::uint64_t attr_owner_slot_ = kNoConflictOrec;

  // Notes the orec a conflict was just detected on.  Callable unguarded
  // (contains no obs references); the body still compiles away with tracing
  // off so the abort paths stay byte-identical to the untraced build.
  void note_conflict_orec(const Orec& o, OrecWord w) const noexcept {
#if TMCV_TRACE
    attr_stripe_ = orec_index(o);
    attr_owner_slot_ = orec_is_locked(w) ? orec_owner_slot(w) : kNoConflictOrec;
#else
    (void)o;
    (void)w;
#endif
  }

  // Interned TMCV_TXN_SITE id for the transaction in flight (0 =
  // unattributed).  Atomic because abort paths of *other* threads read it
  // through the registry to name their attacker.
  std::atomic<std::uint16_t> attr_site_{0};

  Stats stats_;
  ContentionManager cm_;
};

inline TxDescriptor::RedoEntry* TxDescriptor::find_redo(
    const std::atomic<std::uint64_t>* addr) noexcept {
  if (!redo_indexed_) {
    // Small write set: scan newest-first (read-after-write usually targets
    // a recent store; entries are unique per address).
    for (auto it = redo_log_.rbegin(); it != redo_log_.rend(); ++it)
      if (it->addr == addr) return &*it;
    return nullptr;
  }
  const std::uint32_t i = redo_index_.find(addr);
  return i == LogIndex::kNpos ? nullptr : &redo_log_[i];
}

// The read barrier.  NOrec, the default backend, comes first: a
// read-after-write from the redo log, otherwise a plain value load that is
// consistent iff the global counter still matches the snapshot -- no orec
// probe, no recheck, no stripe hashing.  The eager path after it is
// straight-line for its common case (an unlocked, in-snapshot stripe
// already noted in the dedup filter): one orec probe, the value load, the
// recheck, one filter compare.  Anything unusual -- a moved NOrec counter,
// locked stripe, snapshot extension, HTM accounting, filter miss, Serial or
// Idle context -- leaves through an out-of-line call.
inline std::uint64_t TxDescriptor::read_word(
    const std::atomic<std::uint64_t>* addr) {
  if (state_ != TxState::Optimistic) [[unlikely]]
    return read_word_slow(addr);
  if (backend_ == Backend::NOrec) [[likely]] {
    if (!redo_log_.empty())
      if (const RedoEntry* e = find_redo(addr)) return e->value;
    const std::uint64_t value = addr->load(std::memory_order_acquire);
    if (algs::norec_clock().load(std::memory_order_acquire) == start_time_)
        [[likely]] {
      counters::bump(stats_.reads);
      norec_reads_.push_back({addr, value});
      return value;
    }
    return read_norec_slow(addr);
  }
  // HTM models a footprint cap on every read: keep the whole protocol
  // out-of-line.
  if (backend_ == Backend::HTM) [[unlikely]]
    return read_optimistic(addr);
  // Inline orec_for so the stripe index is computed once and shared between
  // the orec probe and the dedup filter.
  const auto bits = reinterpret_cast<std::uintptr_t>(addr) >> 3;
  const std::uint64_t idx =
      (static_cast<std::uint64_t>(bits) * 0x9e3779b97f4a7c15ULL) >>
      (64 - kOrecCountLog2);
  const Orec& o = detail::g_orecs[idx];
  const OrecWord seen = o.load(std::memory_order_acquire);
  const std::uint64_t value = addr->load(std::memory_order_acquire);
  if (orec_is_locked(seen) || o.load(std::memory_order_acquire) != seen ||
      orec_version(seen) > start_time_) [[unlikely]]
    return read_optimistic(addr);  // full protocol: own locks, extension...
  counters::bump(stats_.reads);
  // A filter hit skips the append: the logged word still matches the
  // current one, since any commit to this stripe after the first read
  // either fails the version check above or fails the extension's
  // revalidation -- skipping the duplicate entry loses no validation.
  note_read(&o, seen, idx);
  return value;
}

// The write barrier: an optimistic NOrec write is one redo-log append.
inline void TxDescriptor::write_word(std::atomic<std::uint64_t>* addr,
                                     std::uint64_t value) {
  if (state_ == TxState::Optimistic && backend_ == Backend::NOrec)
      [[likely]] {
    counters::bump(stats_.writes);
    redo_append(addr, value);
    return;
  }
  write_word_slow(addr, value);
}

// Append-only redo log: a repeated write appends a second entry instead of
// seeking and updating the first, so the store fast path is a plain
// push_back.  Lookups still resolve to the newest write -- find_redo scans
// newest-first and the index upsert repoints at the latest entry -- and
// commit write-back replays the log in program order, so the last write
// wins there too.  A duplicate entry costs one extra write-back store, far
// cheaper than a per-store lookup.
inline void TxDescriptor::redo_append(std::atomic<std::uint64_t>* addr,
                                      std::uint64_t value) {
  redo_log_.push_back(RedoEntry{addr, value});
  if (redo_indexed_ || redo_log_.size() > kRedoIndexThreshold) [[unlikely]]
    index_redo_tail();
}

// The process-wide epoch word (owned by the GC; announced by descriptors).
std::atomic<std::uint64_t>& gc_epoch_word() noexcept;

// Commit signal: a futex word bumped by every writing commit.  The retry
// mechanism sleeps on it; the waiter count lets committers skip the wake
// syscall when nobody waits.
std::atomic<std::uint32_t>& commit_signal_word() noexcept;
std::atomic<std::uint32_t>& retry_waiter_count() noexcept;

// Announce a writing commit to any retry-parked transactions (bump the
// signal, wake sleepers).  Called by every publishing commit path,
// including the backend bodies in tm/algs/.
void bump_commit_signal() noexcept;

// The calling thread's descriptor (created and registered on first use).
// The common case inlines to one thread-local pointer load: attach/detach
// keep the cached pointer in sync with the pooled descriptor's lifetime.
namespace detail {
extern constinit thread_local TxDescriptor* tls_descriptor;
}  // namespace detail

[[nodiscard]] TxDescriptor& descriptor_slow() noexcept;

[[nodiscard]] inline TxDescriptor& descriptor() noexcept {
  TxDescriptor* d = detail::tls_descriptor;
  if (d != nullptr) [[likely]]
    return *d;
  return descriptor_slow();
}

}  // namespace tmcv::tm

#include "tm/descriptor.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "obs/attribution.h"
#include "obs/hooks.h"
#include "sync/futex.h"
#include "sync/semaphore.h"
#include "tm/api.h"
#include "tm/registry.h"
#include "tm/serial.h"
#include "util/backoff.h"
#include "util/cacheline.h"

namespace tmcv::tm {

namespace {

// Initial log capacities: typical condvar transactions touch < 10 locations
// (paper §5.4), but application transactions can be larger.
constexpr std::size_t kInitialLogCapacity = 64;

VersionClock g_clock;
SerialLock g_serial;

}  // namespace

VersionClock& global_clock() noexcept { return g_clock; }
SerialLock& serial_lock() noexcept { return g_serial; }

const char* to_string(Backend b) noexcept {
  switch (b) {
    case Backend::EagerSTM:
      return "EagerSTM";
    case Backend::HTM:
      return "HTM";
    case Backend::NOrec:
      return "NOrec";
  }
  return "?";
}

// The stats matrix axes must track the enums they label: one row per
// backend, NOrec last.
static_assert(static_cast<std::size_t>(Backend::NOrec) + 1 == kStatsBackends);
static_assert(static_cast<std::size_t>(TxAbort::Reason::RetryWait) + 1 ==
              kStatsAbortReasons);

const char* backend_label(Backend b) noexcept {
  switch (b) {
    case Backend::EagerSTM:
      return "eager";
    case Backend::HTM:
      return "htm";
    case Backend::NOrec:
      return "norec";
  }
  return "?";
}

bool backend_from_label(const char* s, Backend& out) noexcept {
  if (std::strcmp(s, "eager") == 0)
    out = Backend::EagerSTM;
  else if (std::strcmp(s, "htm") == 0)
    out = Backend::HTM;
  else if (std::strcmp(s, "norec") == 0)
    out = Backend::NOrec;
  else
    return false;
  return true;
}

TxDescriptor::TxDescriptor() : slot_(0) {
  rs_storage_ = std::make_unique<ReadEntry[]>(kInitialLogCapacity);
  rs_base_ = rs_end_ = rs_storage_.get();
  rs_cap_ = rs_base_ + (kInitialLogCapacity - 1);  // one slack slot
  lock_set_.reserve(kInitialLogCapacity);
  undo_log_.reserve(kInitialLogCapacity);
  redo_log_.reserve(kInitialLogCapacity);
  wake_batch_.reserve(kInitialLogCapacity);
  commit_fns_.reserve(kInitialLogCapacity);
  abort_fns_.reserve(kInitialLogCapacity);
}

void TxDescriptor::attach() {
  slot_ = registry().register_thread(this);
  detail::tls_descriptor = this;
  // Stamp the registry slot into this thread's wait slot so waitgraph
  // edges (orec waiter -> owner slot, quiesce -> drained slot) resolve to
  // an OS thread id.
  waitpoint_bind_tm_slot(static_cast<std::uint32_t>(slot_));
}

void TxDescriptor::detach() {
  TMCV_ASSERT_MSG(state_ == TxState::Idle,
                  "thread exited with an open transaction");
  detail::tls_descriptor = nullptr;
  waitpoint_unbind_tm_slot();
  registry().unregister_thread(slot_, stats_);
  counters::reset(stats_);  // racing readers may still hold this slot
}

namespace {

// Descriptor pool: storage is recycled across threads but never freed, so
// cross-thread dereferences through the registry stay valid for the life
// of the process (quiescence scans, epoch collection).  The list itself is
// immortal too, so pooled descriptors stay reachable at exit.
std::atomic<bool> g_pool_lock{false};
std::vector<TxDescriptor*>& pool_storage() {
  static auto* instance = new std::vector<TxDescriptor*>;
  return *instance;
}

TxDescriptor* pool_acquire() {
  TxDescriptor* desc = nullptr;
  Backoff backoff;
  while (g_pool_lock.exchange(true, std::memory_order_acquire))
    backoff.wait();
  auto& pool = pool_storage();
  if (!pool.empty()) {
    desc = pool.back();
    pool.pop_back();
  }
  g_pool_lock.store(false, std::memory_order_release);
  if (desc == nullptr) desc = new TxDescriptor;  // intentionally immortal
  desc->attach();
  return desc;
}

void pool_release(TxDescriptor* desc) {
  desc->detach();
  Backoff backoff;
  while (g_pool_lock.exchange(true, std::memory_order_acquire))
    backoff.wait();
  pool_storage().push_back(desc);
  g_pool_lock.store(false, std::memory_order_release);
}

}  // namespace

namespace detail {
constinit thread_local TxDescriptor* tls_descriptor = nullptr;
}  // namespace detail

TxDescriptor& descriptor_slow() noexcept {
  struct Holder {
    TxDescriptor* desc;
    Holder() : desc(pool_acquire()) {}
    ~Holder() { pool_release(desc); }
  };
  thread_local Holder holder;
  return *holder.desc;
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

namespace {

std::atomic<std::uint64_t> g_gc_epoch{1};
CacheAligned<std::atomic<std::uint32_t>> g_commit_signal;
CacheAligned<std::atomic<std::uint32_t>> g_retry_waiters;

}  // namespace

void bump_commit_signal() noexcept {
  g_commit_signal->fetch_add(1, std::memory_order_seq_cst);
  if (g_retry_waiters->load(std::memory_order_seq_cst) > 0)
    futex_wake(&*g_commit_signal, -1);
}

std::atomic<std::uint64_t>& gc_epoch_word() noexcept { return g_gc_epoch; }

std::atomic<std::uint32_t>& commit_signal_word() noexcept {
  return *g_commit_signal;
}

std::atomic<std::uint32_t>& retry_waiter_count() noexcept {
  return *g_retry_waiters;
}

void TxDescriptor::announce_epoch() noexcept {
  // The store needs no seq_cst fence (it was an xchg on the begin fast
  // path): if the collector reads this slot before the store lands it sees
  // the previous -- smaller -- announcement, which epoch.cpp's gc_collect
  // treats as conservatively stale (it only delays frees, never makes them
  // unsafe).  The seq_cst activity_ RMW preceding every announcement keeps
  // the begin/quiescence ordering intact.
  epoch_.store(g_gc_epoch.load(std::memory_order_seq_cst),
               std::memory_order_release);
}

void TxDescriptor::activity_begin() noexcept {
  activity_.fetch_add(1, std::memory_order_seq_cst);  // even -> odd
  announce_epoch();
}

void TxDescriptor::activity_end() noexcept {
  activity_.fetch_add(1, std::memory_order_seq_cst);  // odd -> even
}

void TxDescriptor::begin_top(Backend b, std::uint32_t depth) {
  TMCV_ASSERT_MSG(state_ == TxState::Idle, "begin_top inside a transaction");
  // Publish intent first, then check the serial lock: this ordering pairs
  // with SerialLock::acquire (seq-odd first, quiescence scan second) so a
  // serial section can never overlap an optimistic transaction.
  for (;;) {
    activity_begin();
    if (!g_serial.held()) break;
    activity_end();
    g_serial.wait_until_free();
  }
  // Resolve the requested backend against the process default HERE, after
  // activity_begin: a backend switch (set_default_backend) drains
  // every in-flight optimistic transaction through the serial lock, so a
  // transaction that begins after the drain is guaranteed to observe the
  // new default -- no orec-family transaction can overlap a NOrec one.
  b = resolve_backend(b);
  state_ = TxState::Optimistic;
  backend_ = b;
  depth_ = depth;
  split_done_ = false;
  // NOrec snapshots the global commit counter (even value); the orec family
  // snapshots the version clock.
  if (b == Backend::NOrec) [[likely]]
    start_time_ = algs::norec_begin_snapshot();
  else
    start_time_ = g_clock.now();
  new_log_epoch();
#if TMCV_TRACE
  txn_begin_ticks_ = obs::region_begin();
  // Attribution state is per-transaction: clear the site label (so one
  // never leaks into the next, unlabeled transaction) and any stale
  // conflict-orec note.
  attr_site_.store(0, std::memory_order_relaxed);
  attr_stripe_ = kNoConflictOrec;
  attr_owner_slot_ = kNoConflictOrec;
#endif
}

void TxDescriptor::new_log_epoch() noexcept {
  ++log_epoch_;
  epoch_tag_ = log_epoch_ & kFilterEpochMask;
  redo_index_.reset(log_epoch_);
  redo_indexed_ = false;
  htm_reads_ = 0;
}

void TxDescriptor::commit_top() {
  if (state_ != TxState::Optimistic) [[unlikely]] {
    if (state_ == TxState::Serial) {
      commit_serial();
      return;
    }
    // A split (early-committed) transaction already completed; nothing to do.
    TMCV_ASSERT_MSG(split_done_, "commit_top outside a transaction");
    split_done_ = false;
    return;
  }
  if (backend_ == Backend::NOrec) [[likely]]
    commit_norec();
  else
    commit_eager();  // EagerSTM, HTM
  state_ = TxState::Idle;
  depth_ = 0;
  activity_end();
  counters::bump(stats_.commits);
  cm_.note_commit();
#if TMCV_TRACE
  obs::region_end(obs::Event::kTxnCommit, txn_begin_ticks_,
                  &obs::hist_txn_commit());
#endif
  run_commit_handlers();
}

void TxDescriptor::abort_restart(TxAbort::Reason reason,
                                 std::uint64_t retry_signal) {
  TMCV_ASSERT_MSG(can_roll_back(),
                  "irrevocable transactions cannot roll back");
  // A serial attempt counts on the row of the backend it escalated from.
  counters::bump(stats_.aborts_by_backend[static_cast<std::size_t>(backend_)]
                                         [static_cast<std::size_t>(reason)]);
  cm_.note_abort(reason);
#if TMCV_TRACE
  // Attribution reason codes mirror TxAbort::Reason numerically.
  static_assert(static_cast<std::uint16_t>(TxAbort::Reason::Conflict) ==
                obs::kAttrReasonConflict);
  static_assert(static_cast<std::uint16_t>(TxAbort::Reason::RetryWait) ==
                obs::kAttrReasonRetryWait);
  {
    const std::uint16_t victim = txn_site();
    obs::attr_record_abort(victim, static_cast<std::uint16_t>(reason));
    if (reason == TxAbort::Reason::Conflict) {
      // Name the attacker through the owning descriptor of the culprit orec
      // (racy-but-approximate: the owner may have moved on; the victim and
      // stripe halves are exact).  Conflicts with no captured orec (CAS
      // races) attribute to site 0 so the pair counts still sum to
      // aborts_conflict.
      std::uint16_t attacker = obs::kUnattributedSite;
      if (attr_owner_slot_ != kNoConflictOrec) {
        if (const TxDescriptor* a = registry().descriptor(attr_owner_slot_))
          attacker = a->txn_site();
      }
      const std::uint32_t stripe =
          attr_stripe_ == kNoConflictOrec
              ? obs::kAttrNoStripe
              : static_cast<std::uint32_t>(attr_stripe_);
      obs::attr_record_conflict(victim, attacker, stripe);
    }
    attr_stripe_ = kNoConflictOrec;
    attr_owner_slot_ = kNoConflictOrec;
  }
#endif
  rollback();
  run_abort_handlers();
  if (state_ == TxState::Serial)
    g_serial.release();
  else
    activity_end();
  state_ = TxState::Idle;
  depth_ = 0;
  counters::bump(stats_.aborts);
#if TMCV_TRACE
  obs::region_end(obs::Event::kTxnAbort, txn_begin_ticks_,
                  &obs::hist_txn_abort(),
                  static_cast<std::uint16_t>(reason));
#endif
  TxAbort abort{reason};
  abort.retry_signal = retry_signal;
  throw abort;
}

void TxDescriptor::retry_and_wait() {
  TMCV_ASSERT_MSG(can_roll_back(),
                  "retry_wait requires a transaction that can roll back "
                  "(irrevocable transactions cannot)");
  // Observe the signal BEFORE validating: any commit that could invalidate
  // the predicate decision lands after our snapshot and therefore bumps a
  // value we have already captured -- the sleep then returns immediately.
  // (A serial section holds the lock: nothing commits until it lets go.)
  const std::uint32_t observed =
      g_commit_signal->load(std::memory_order_seq_cst);
  if (state_ == TxState::Optimistic && !reads_valid())
    abort_restart(TxAbort::Reason::Conflict);
  abort_restart(TxAbort::Reason::RetryWait, observed);
}

void TxDescriptor::begin_serial(std::uint32_t depth, bool undo) {
  TMCV_ASSERT_MSG(state_ == TxState::Idle,
                  "cannot upgrade an active optimistic transaction; declare "
                  "irrevocability at the outermost begin");
#if TMCV_TRACE
  // The acquire below drains every in-flight optimistic transaction: its
  // duration is the serial-fallback stall the paper's §5 worries about.
  const std::uint64_t stall_t0 = obs::region_begin();
#endif
  g_serial.acquire(slot_);
#if TMCV_TRACE
  obs::region_end(obs::Event::kSerialFallback, stall_t0,
                  &obs::hist_serial_stall());
  txn_begin_ticks_ = obs::region_begin();
#endif
  announce_epoch();
  state_ = TxState::Serial;
  depth_ = depth;
  split_done_ = false;
  serial_undo_ = undo;
}

void TxDescriptor::commit_serial() {
  TMCV_ASSERT(state_ == TxState::Serial);
  undo_log_.clear();
  state_ = TxState::Idle;
  depth_ = 0;
  g_serial.release();
  counters::bump(stats_.commits);
  counters::bump(stats_.serial_commits);
  cm_.note_commit();
#if TMCV_TRACE
  obs::region_end(obs::Event::kTxnCommit, txn_begin_ticks_,
                  &obs::hist_txn_commit());
#endif
  bump_commit_signal();  // serial sections may have written anything
  run_commit_handlers();
}

// ---------------------------------------------------------------------------
// Early commit / split (ENDSYNCBLOCK / BEGINSYNCBLOCK)
// ---------------------------------------------------------------------------

void TxDescriptor::end_sync_block() {
  TMCV_ASSERT_MSG(in_txn(), "end_sync_block outside a transaction");
  saved_depth_ = depth_;
  // commit_top validates and publishes; on failure it throws TxAbort having
  // rolled everything back, so the enclosing retry loop re-runs the whole
  // body -- correct, since nothing (including the pre-WAIT enqueue) became
  // visible.
  commit_top();
}

void TxDescriptor::begin_sync_block(bool irrevocable) {
  TMCV_ASSERT_MSG(state_ == TxState::Idle,
                  "begin_sync_block inside a transaction");
  if (irrevocable)
    begin_serial(saved_depth_);
  else
    begin_top(backend_, saved_depth_);
}

// ---------------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------------

std::uint64_t TxDescriptor::read_word_slow(
    const std::atomic<std::uint64_t>* addr) {
  // Idle or Serial: read_word handles the Optimistic state inline.
  TMCV_ASSERT_MSG(state_ != TxState::Idle || !split_done_,
                  "transactional access after a split WAIT returned; put "
                  "post-wait work in the continuation");
  return addr->load(std::memory_order_acquire);
}

std::uint64_t TxDescriptor::read_optimistic(
    const std::atomic<std::uint64_t>* addr) {
  const Orec& o = orec_for(addr);
  for (;;) {
    const OrecWord seen = o.load(std::memory_order_acquire);
    if (orec_is_locked(seen)) {
      if (orec_locked_by_me(seen)) {
        // Eager/HTM write-through: our own speculative value is current.
        counters::bump(stats_.reads);
        return addr->load(std::memory_order_relaxed);
      }
      // Locked by a concurrent writer: conflict.
      note_conflict_orec(o, seen);
      abort_restart(TxAbort::Reason::Conflict);
    }
    const std::uint64_t value = addr->load(std::memory_order_acquire);
    if (o.load(std::memory_order_acquire) != seen) {
      // Orec changed while we read the value; re-run the protocol.
      continue;
    }
    if (orec_version(seen) > start_time_) {
      // Newer than our snapshot.  HTM has no extension (a real hardware
      // transaction would already have been killed by the coherence probe).
      if (backend_ == Backend::HTM) {
        note_conflict_orec(o, seen);  // extend() captures its own culprit
        abort_restart(TxAbort::Reason::Conflict);
      }
      if (!extend()) abort_restart(TxAbort::Reason::Conflict);
      continue;  // revalidated forward; retry against the new snapshot
    }
    // HTM capacity is a per-read footprint (pre-dedup): the emulated buffer
    // must not widen just because the software read set got denser.
    if (backend_ == Backend::HTM && ++htm_reads_ > kHtmReadCapacity)
      abort_restart(TxAbort::Reason::Capacity);
    counters::bump(stats_.reads);
    const auto idx = static_cast<std::uint64_t>(&o - detail::g_orecs);
    note_read(&o, seen, idx);
    return value;
  }
}

// ---------------------------------------------------------------------------
// Writes
// ---------------------------------------------------------------------------

void TxDescriptor::write_word_slow(std::atomic<std::uint64_t>* addr,
                                   std::uint64_t value) {
  switch (state_) {
    case TxState::Idle:
      TMCV_ASSERT_MSG(!split_done_,
                      "transactional access after a split WAIT returned; put "
                      "post-wait work in the continuation");
      addr->store(value, std::memory_order_release);
      return;
    case TxState::Serial:
      // The serial lock excludes every other transaction, so the undo
      // entry needs no orec: rollback restores it before the lock goes.
      if (serial_undo_)
        undo_log_.push_back(
            UndoEntry{addr, addr->load(std::memory_order_relaxed)});
      addr->store(value, std::memory_order_release);
      return;
    case TxState::Optimistic:
      break;
  }
  // An optimistic NOrec write never gets here: write_word appends it inline.
  counters::bump(stats_.writes);
  write_eager(addr, value);  // EagerSTM, HTM: write-through, undo log
}

// The eager write barrier and the commit protocols live in tm/algs/
// (orec_eager.cpp, norec.cpp).

// ---------------------------------------------------------------------------
// Commit / abort
// ---------------------------------------------------------------------------

void TxDescriptor::rollback() noexcept {
  // Write-through backends (eager, HTM) and the escalated serial attempt:
  // undo in reverse so overlapping writes restore the oldest value last.
  // NOrec publishes nothing speculatively and never locks a stripe or
  // appends to the undo log.
  for (auto it = undo_log_.rbegin(); it != undo_log_.rend(); ++it)
    it->addr->store(it->old_value, std::memory_order_release);
  if (!lock_set_.empty()) {
    // Every locked stripe was written through (write_eager logs the undo
    // entry right after locking).  A reader that loaded a speculative value
    // between its two orec loads would accept it if the stripe came back
    // with its pre-lock word (ABA).  Release with a fresh timestamp instead:
    // it exceeds every prior word, so that reader's recheck fails.
    const std::uint64_t t = g_clock.tick().time;
    for (Orec* o : lock_set_)
      o->store(make_version(t), std::memory_order_release);
  }
  // A discarded notify releases nothing: the wake batch dies with the
  // transaction (Algorithm 5/6 abort semantics).
  wake_batch_.clear();
  reset_logs();
}

bool TxDescriptor::extend() {
  const std::uint64_t now = g_clock.now();
  if (!reads_valid_orec()) return false;
  start_time_ = now;
  counters::bump(stats_.extensions);
  return true;
}

bool TxDescriptor::reads_valid() const noexcept {
  return backend_ == Backend::NOrec ? reads_valid_norec() : reads_valid_orec();
}

bool TxDescriptor::reads_valid_orec() const noexcept {
  for (const ReadEntry* e = rs_base_; e != rs_end_; ++e) {
    const OrecWord cur = e->orec->load(std::memory_order_acquire);
    if (cur == e->seen) continue;
    // A stripe we later locked ourselves is still valid: nobody else could
    // have changed it between our (validated) read and our lock.
    if (orec_locked_by_me(cur)) continue;
    // Note the failing stripe for attribution (mutable scratch; consumed by
    // abort_restart if the caller aborts on this result).
    note_conflict_orec(*e->orec, cur);
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Handlers & fences
// ---------------------------------------------------------------------------

namespace {

// Run and clear a fn-handler log.  The handlers run from a moved-out list,
// since one may start a transaction that registers more; the warmed buffer
// then goes back, so the log stops allocating after warm-up.
template <typename Log>
void drain_fns(Log& log) {
  Log fns = std::move(log);
  log.clear();
  for (const auto& h : fns) h.fn(h.ctx);
  fns.clear();
  if (log.empty()) log.swap(fns);
}

}  // namespace

void TxDescriptor::on_commit(std::function<void()> fn) {
  if (!in_txn()) {
    counters::bump(stats_.handlers_run);
    fn();
    return;
  }
  counters::bump(stats_.handlers_registered);
  commit_handlers_.push_back(std::move(fn));
}

void TxDescriptor::on_commit_fn(HandlerFn fn, void* ctx) {
  if (!in_txn()) {
    counters::bump(stats_.handlers_run);
    fn(ctx);
    return;
  }
  counters::bump(stats_.handlers_inline);
  commit_fns_.push_back(FnHandler{fn, ctx});
}

void TxDescriptor::on_abort_fn(HandlerFn fn, void* ctx) {
  if (!in_txn()) return;  // nothing to compensate outside a transaction
  counters::bump(stats_.handlers_inline);
  abort_fns_.push_back(FnHandler{fn, ctx});
}

void TxDescriptor::defer_wake(BinarySemaphore* sem) {
  if (!in_txn()) {
    sem->post();
    return;
  }
  counters::bump(stats_.deferred_wakes);
  wake_batch_.push_back(sem);
}

void TxDescriptor::flush_wake_batch() noexcept {
  if (wake_batch_.empty()) return;
  counters::bump(stats_.wake_batches);
  BinarySemaphore::post_batch(wake_batch_.data(), wake_batch_.size());
  wake_batch_.clear();
}

void TxDescriptor::on_abort(std::function<void()> fn) {
  if (!in_txn()) return;  // nothing to compensate outside a transaction
  abort_handlers_.push_back(std::move(fn));
}

void TxDescriptor::run_commit_handlers() {
  // Wakes first: they are plain futex posts (no user code, no reentrancy),
  // and a wait_at_commit handler queued behind them may block this thread.
  flush_wake_batch();
  abort_handlers_.clear();
  abort_fns_.clear();
  // The fn log drains before the std::function vector; both drain from a
  // moved-out list because handlers run post-commit with no transaction
  // active and may themselves start transactions (re-registering handlers).
  if (!commit_fns_.empty()) {
    counters::bump(stats_.handlers_run, commit_fns_.size());
    drain_fns(commit_fns_);
  }
  if (commit_handlers_.empty()) return;
  std::vector<std::function<void()>> handlers = std::move(commit_handlers_);
  commit_handlers_.clear();
  for (auto& h : handlers) {
    counters::bump(stats_.handlers_run);
    h();
  }
}

void TxDescriptor::run_abort_handlers() noexcept {
  commit_handlers_.clear();
  commit_fns_.clear();
  if (!abort_fns_.empty()) drain_fns(abort_fns_);
  std::vector<std::function<void()>> handlers = std::move(abort_handlers_);
  abort_handlers_.clear();
  for (auto& h : handlers) h();
}

void TxDescriptor::syscall_fence() {
  if (state_ == TxState::Optimistic && backend_ == Backend::HTM)
    abort_restart(TxAbort::Reason::Syscall);
}

// ---------------------------------------------------------------------------
// Log helpers
// ---------------------------------------------------------------------------

void TxDescriptor::read_set_grow() {
  // Doubles the buffer while preserving the slack-slot invariant
  // (rs_cap_ points one entry before the true end, so note_read's
  // unconditional store is always in bounds).
  const auto live = static_cast<std::size_t>(rs_end_ - rs_base_);
  const auto old_cap = static_cast<std::size_t>(rs_cap_ - rs_base_) + 1;
  const std::size_t new_cap = old_cap * 2;
  auto fresh = std::make_unique<ReadEntry[]>(new_cap);
  std::copy(rs_base_, rs_end_, fresh.get());
  rs_storage_ = std::move(fresh);
  rs_base_ = rs_storage_.get();
  rs_end_ = rs_base_ + live;
  rs_cap_ = rs_base_ + (new_cap - 1);
}

void TxDescriptor::index_redo_tail() {
  if (redo_indexed_) {
    const auto idx = static_cast<std::uint32_t>(redo_log_.size() - 1);
    if (redo_index_.upsert(redo_log_[idx].addr, idx))
      counters::bump(stats_.log_index_rehashes);
    return;
  }
  // The write set just outgrew the linear scan; index every live entry once
  // and switch find_redo to O(1) for the rest of the transaction.  (The
  // index was reset for this log epoch at begin, so plain inserts suffice.)
  for (std::uint32_t i = 0; i < redo_log_.size(); ++i)
    if (redo_index_.upsert(redo_log_[i].addr, i))
      counters::bump(stats_.log_index_rehashes);
  redo_indexed_ = true;
}

void TxDescriptor::backoff_for_retry() noexcept {
  counters::bump(stats_.cm_backoffs);
#if TMCV_TRACE
  const std::uint64_t t0 = obs::region_begin();
#endif
  cm_.backoff_before_retry();
#if TMCV_TRACE
  obs::region_end(obs::Event::kCmBackoff, t0, &obs::hist_cm_backoff());
#endif
}

void TxDescriptor::reset_logs() noexcept {
  counters::bump(stats_.read_dedup_appends,
                 static_cast<std::uint64_t>(rs_end_ - rs_base_));
  rs_end_ = rs_base_;
  lock_set_.clear();
  undo_log_.clear();
  redo_log_.clear();
  norec_reads_.clear();
}

}  // namespace tmcv::tm

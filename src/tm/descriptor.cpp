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
#include "util/rng.h"

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
    case Backend::LazySTM:
      return "LazySTM";
    case Backend::HTM:
      return "HTM";
    case Backend::NOrec:
      return "NOrec";
    case Backend::Hybrid:
      return "Hybrid";
  }
  return "?";
}

// The stats matrix axes must track the enums they label: one row per
// backend a descriptor runs, which excludes the trailing Hybrid request.
static_assert(static_cast<std::size_t>(Backend::Hybrid) == kStatsBackends);
static_assert(static_cast<std::size_t>(TxAbort::Reason::RetryWait) + 1 ==
              kStatsAbortReasons);

const char* backend_label(Backend b) noexcept {
  switch (b) {
    case Backend::EagerSTM:
      return "eager";
    case Backend::LazySTM:
      return "lazy";
    case Backend::HTM:
      return "htm";
    case Backend::NOrec:
      return "norec";
    case Backend::Hybrid:
      return "hybrid";
  }
  return "?";
}

bool backend_from_label(const char* s, Backend& out) noexcept {
  if (std::strcmp(s, "eager") == 0)
    out = Backend::EagerSTM;
  else if (std::strcmp(s, "lazy") == 0)
    out = Backend::LazySTM;
  else if (std::strcmp(s, "htm") == 0)
    out = Backend::HTM;
  else if (std::strcmp(s, "hybrid") == 0)
    out = Backend::Hybrid;
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
  // activity_begin: a quiesced backend switch (algs::set_backend) drains
  // every in-flight optimistic transaction through the serial lock, so a
  // transaction that begins after the drain is guaranteed to observe the
  // new default -- no orec-family transaction can overlap a NOrec one.
  b = resolve_backend(b);
  // Hybrid is a retry-loop request; a descriptor only runs its rungs.
  TMCV_DEBUG_ASSERT(b != Backend::Hybrid);
  state_ = TxState::Optimistic;
  backend_ = b;
  depth_ = depth;
  split_done_ = false;
  // NOrec snapshots the global commit counter (even value); the orec family
  // snapshots the version clock.
  start_time_ = b == Backend::NOrec ? algs::norec_begin_snapshot()
                                    : g_clock.now();
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
  if (state_ == TxState::Idle) {
    // A split (early-committed) transaction already completed; nothing to do.
    TMCV_ASSERT_MSG(split_done_, "commit_top outside a transaction");
    split_done_ = false;
    return;
  }
  if (state_ == TxState::Serial) {
    commit_serial();
    return;
  }
  if (backend_ == Backend::NOrec)
    commit_norec();
  else if (backend_ == Backend::LazySTM)
    commit_lazy();
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

void TxDescriptor::abort_restart(TxAbort::Reason reason) {
  TMCV_ASSERT(state_ == TxState::Optimistic);
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
      // stripe halves are exact).  Conflicts with no captured orec (chaos
      // aborts, CAS races) attribute to site 0 so the pair counts still sum
      // to aborts_conflict.
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
  state_ = TxState::Idle;
  depth_ = 0;
  activity_end();
  counters::bump(stats_.aborts);
#if TMCV_TRACE
  obs::region_end(obs::Event::kTxnAbort, txn_begin_ticks_,
                  &obs::hist_txn_abort(),
                  static_cast<std::uint16_t>(reason));
#endif
  throw TxAbort{reason};
}

void TxDescriptor::retry_and_wait() {
  const bool serial = state_ == TxState::Serial;
  TMCV_ASSERT_MSG(
      state_ == TxState::Optimistic || (serial && serial_undoable_),
      "retry_wait requires an optimistic transaction "
      "(irrevocable transactions cannot roll back)");
  // Observe the signal BEFORE validating: any commit that could invalidate
  // the predicate decision lands after our snapshot and therefore bumps a
  // value we have already captured -- the sleep then returns immediately.
  // (A serial section holds the lock: nothing commits until it lets go.)
  const std::uint32_t observed =
      g_commit_signal->load(std::memory_order_seq_cst);
  if (!serial && !reads_valid()) abort_restart(TxAbort::Reason::Conflict);
  rollback();  // serial: logs are empty, this only drops queued notifies
  run_abort_handlers();
  state_ = TxState::Idle;
  depth_ = 0;
  if (serial)
    g_serial.release();
  else
    activity_end();
  counters::bump(stats_.aborts);
  counters::bump(
      stats_.aborts_by_backend[static_cast<std::size_t>(backend_)][static_cast<
          std::size_t>(TxAbort::Reason::RetryWait)]);
#if TMCV_TRACE
  obs::attr_record_abort(txn_site(), obs::kAttrReasonRetryWait);
  obs::region_end(obs::Event::kTxnAbort, txn_begin_ticks_,
                  &obs::hist_txn_abort(),
                  static_cast<std::uint16_t>(TxAbort::Reason::RetryWait));
#endif
  TxAbort abort{TxAbort::Reason::RetryWait};
  abort.retry_signal = observed;
  throw abort;
}

void TxDescriptor::begin_serial(std::uint32_t depth, bool undoable) {
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
  serial_undoable_ = undoable;
}

void TxDescriptor::commit_serial() {
  TMCV_ASSERT(state_ == TxState::Serial);
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

void TxDescriptor::maybe_chaos_abort() {
  if (backend_ != Backend::HTM) return;
  const std::uint32_t rate = htm_chaos_per_million();
  if (rate == 0) return;
  thread_local Xoshiro256 rng(0xC4405u + slot_);
  if (rng.next_below(1000000) < rate) {
    counters::bump(stats_.htm_chaos_aborts);
    abort_restart(TxAbort::Reason::Conflict);
  }
}

std::uint64_t TxDescriptor::read_optimistic(
    const std::atomic<std::uint64_t>* addr) {
  maybe_chaos_abort();
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

void TxDescriptor::write_word(std::atomic<std::uint64_t>* addr,
                              std::uint64_t value) {
  switch (state_) {
    case TxState::Idle:
      TMCV_ASSERT_MSG(!split_done_,
                      "transactional access after a split WAIT returned; put "
                      "post-wait work in the continuation");
      addr->store(value, std::memory_order_release);
      return;
    case TxState::Serial:
      serial_undoable_ = false;
      addr->store(value, std::memory_order_release);
      return;
    case TxState::Optimistic:
      break;
  }
  counters::bump(stats_.writes);
  if (backend_ == Backend::EagerSTM || backend_ == Backend::HTM)
    write_eager(addr, value);  // write-through, undo log
  else
    write_lazy(addr, value);  // LazySTM, NOrec: redo log
}

// The write barriers and commit protocols live in tm/algs/ (orec_eager.cpp,
// orec_lazy.cpp, norec.cpp).

// ---------------------------------------------------------------------------
// Commit / abort
// ---------------------------------------------------------------------------

void TxDescriptor::rollback() noexcept {
  // Write-through backends (eager, HTM): undo in reverse so overlapping
  // writes restore the oldest value last.  Redo-log backends (lazy, NOrec)
  // publish nothing speculatively and never append to the undo log.
  for (auto it = undo_log_.rbegin(); it != undo_log_.rend(); ++it)
    it->addr->store(it->old_value, std::memory_order_release);
  if (undo_log_.empty()) {
    // Nothing was published: release stripes back to their pre-lock words.
    for (const LockEntry& e : lock_set_)
      e.orec->store(e.prior, std::memory_order_release);
  } else {
    // A reader that loaded a speculative value between its two orec loads
    // would accept it if the stripe came back with its pre-lock word (ABA).
    // Release with a fresh timestamp instead: it exceeds every prior word,
    // so that reader's recheck fails.
    const std::uint64_t t = g_clock.tick().time;
    for (const LockEntry& e : lock_set_)
      e.orec->store(make_version(t), std::memory_order_release);
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

namespace {

std::atomic<std::uint32_t> g_htm_chaos_per_million{0};

}  // namespace

void TxDescriptor::set_htm_chaos_per_million(std::uint32_t rate) noexcept {
  g_htm_chaos_per_million.store(rate, std::memory_order_release);
}

std::uint32_t TxDescriptor::htm_chaos_per_million() noexcept {
  return g_htm_chaos_per_million.load(std::memory_order_acquire);
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

void TxDescriptor::note_lock(Orec* o, OrecWord prior) {
  lock_set_.push_back(LockEntry{o, prior});
}

OrecWord TxDescriptor::wait_for_orec_unlock(Orec& o) noexcept {
  counters::bump(stats_.cm_waits);
#if TMCV_TRACE
  const std::uint64_t t0 = obs::region_begin();
#endif
  OrecWord cur = o.load(std::memory_order_acquire);
  // Publish the polite wait: target is the contested stripe, detail its
  // index, and the site is the OWNER's transaction label (who we wait FOR;
  // our own site is already on this descriptor).  Owner resolution is
  // best-effort by design -- the lock word can change hands mid-wait.
  std::uint16_t owner_site = 0;
  if (orec_is_locked(cur)) {
    if (const TxDescriptor* owner =
            registry().descriptor(orec_owner_slot(cur)))
      owner_site = owner->txn_site();
  }
  WaitScope wp(WaitReason::kOrec, &o, owner_site,
               static_cast<std::uint32_t>(orec_index(o)));
  for (std::uint32_t r = 0; r < kOrecWaitRounds && orec_is_locked(cur);
       ++r) {
    if (r < 2) {
      // Short jittered spins first: commit-time holds are usually a few
      // stores long, and jitter keeps simultaneous waiters from re-probing
      // in lockstep.
      const std::uint32_t spins = 1u + cm_.jitter(16u << r);
      for (std::uint32_t i = 0; i < spins; ++i) cpu_relax();
    } else {
      // Oversubscribed machines: the holder needs the CPU to finish.
      sched_yield();
    }
    cur = o.load(std::memory_order_acquire);
  }
#if TMCV_TRACE
  obs::region_end(obs::Event::kCmBackoff, t0, &obs::hist_cm_backoff());
#endif
  return cur;
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

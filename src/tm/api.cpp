#include "tm/api.h"

#include <atomic>
#include <cstdlib>

#include "sync/futex.h"
#include "tm/serial.h"
#include "util/assert.h"

namespace tmcv::tm {

namespace {

// NOrec is the default: the condvar transactions read a handful of words,
// so value validation is cheap, and commit-time write-back does not abort
// the other end of a queue the way encounter-time orec locking does
// (EXPERIMENTS.md, "NOrec default").
std::atomic<Backend> g_default_backend{Backend::NOrec};

// TMCV_DEFAULT_BACKEND=eager|htm|norec seeds the process-wide
// default before main() (the CI matrix uses eager to run the whole test
// suite on the orec family).  A plain store is safe here because no thread,
// hence no transaction, exists yet; every later change goes through
// set_default_backend.  Unknown values are ignored -- a typo'd env var must
// not change TM semantics silently mid-fleet, and the benches print the
// effective backend anyway.
struct EnvBackendInit {
  EnvBackendInit() {
    const char* v = std::getenv("TMCV_DEFAULT_BACKEND");
    if (v == nullptr || *v == '\0') return;
    Backend b{};
    if (backend_from_label(v, b))
      g_default_backend.store(b, std::memory_order_release);
  }
};
EnvBackendInit g_env_backend_init;

}  // namespace

void set_default_backend(Backend b) noexcept {
  TxDescriptor& d = descriptor();
  TMCV_ASSERT_MSG(!d.in_txn(), "cannot switch backends inside a transaction");
  if (default_backend() == b) return;
  // Piggyback on the serial lock's global stop: acquisition drains every
  // in-flight optimistic transaction, so when the new default is published
  // no transaction begun under the old resolution is still running, and
  // every later begin_top re-resolves against the new default.  The lock is
  // held across the store only (no user code), so the stall is one drain.
  serial_lock().acquire(d.slot());
  g_default_backend.store(b, std::memory_order_release);
  serial_lock().release();
  counters::bump(d.stats().backend_switches);
}

Backend default_backend() noexcept {
  return g_default_backend.load(std::memory_order_acquire);
}

Backend resolve_backend(Backend req) noexcept {
  if (default_backend() == Backend::NOrec) return Backend::NOrec;
  if (req == Backend::NOrec) return Backend::EagerSTM;
  return req;
}

namespace detail {

void retry_sleep(std::uint32_t observed) noexcept {
  auto& waiters = retry_waiter_count();
  waiters.fetch_add(1, std::memory_order_seq_cst);
  // If the signal already moved, futex_wait returns immediately; otherwise
  // the next writing commit wakes us.  Either way the caller re-runs its
  // closure and re-evaluates the predicate.
  futex_wait(&commit_signal_word(), observed);
  waiters.fetch_sub(1, std::memory_order_seq_cst);
}

}  // namespace detail

}  // namespace tmcv::tm

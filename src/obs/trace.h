// Lock-free event tracing: the capture half of the observability layer.
//
// Every thread owns a fixed-size ring of POD trace records; producers write
// with plain stores plus one release store of the head index, so the hot
// path takes no lock and allocates nothing after the first event.  Rings are
// registered in a process-wide table and never freed, so a serializer can
// drain the events of threads that have already exited (the same immortality
// discipline the TM descriptor pool uses).
//
// Two gates stack:
//   * Compile time: the TMCV_TRACE macro (CMake option, default ON).  When 0
//     every hook in tm/core/sync compiles away completely -- the hot path is
//     bit-identical to an untraced build (CI asserts no obs symbols leak
//     into those archives).
//   * Run time: a process-wide flag word.  With hooks compiled in but flags
//     clear, the entire cost of a hook is one relaxed load and one
//     predictable branch.
//
// Timestamps are raw TscClock ticks (util/timing.h); conversion to
// nanoseconds/microseconds happens at serialization time, never on the hot
// path.  The serializer (Chrome trace-event JSON, viewable in Perfetto) and
// the metrics registry live in src/obs/trace_io.cpp and metrics.cpp
// (library tmcv_obs); this header stays dependency-free so the TM runtime
// and the semaphores can emit events without a link edge back to obs.
#pragma once

#ifndef TMCV_TRACE
#define TMCV_TRACE 1
#endif

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "util/timing.h"

namespace tmcv::obs {

// ---------------------------------------------------------------------------
// Event vocabulary
// ---------------------------------------------------------------------------

enum class Event : std::uint16_t {
  kTxnCommit = 0,       // complete: one committed top-level transaction
  kTxnAbort,            // complete: begin -> abort; arg = TxAbort reason
  kSerialFallback,      // complete: serial-lock acquire stall on escalation
  kCvWait,              // complete: condvar enqueue -> wakeup
  kCvNotify,            // instant: a notify call; arg = waiters woken
  kSemWait,             // complete: semaphore wait, blocking path only
                        // (uncontended waits emit nothing by design)
  kSemPost,             // instant: semaphore post
  kSemPostBatch,        // instant: coalesced batch post; arg = batch size
  kSemSpin,             // complete: pre-park spin phase of a slow wait
                        // (whether or not it avoided the park)
  kCmBackoff,           // complete: contention-manager inter-retry
                        // backoff
  kEventTypeCount,
};

// Chrome trace-event name for an event type (stable, dot-namespaced).
[[nodiscard]] constexpr const char* event_name(Event e) noexcept {
  switch (e) {
    case Event::kTxnCommit:
      return "txn.commit";
    case Event::kTxnAbort:
      return "txn.abort";
    case Event::kSerialFallback:
      return "txn.serial_fallback";
    case Event::kCvWait:
      return "cv.wait";
    case Event::kCvNotify:
      return "cv.notify";
    case Event::kSemWait:
      return "sem.wait";
    case Event::kSemPost:
      return "sem.post";
    case Event::kSemPostBatch:
      return "sem.post_batch";
    case Event::kSemSpin:
      return "sem.spin";
    case Event::kCmBackoff:
      return "cm.backoff";
    case Event::kEventTypeCount:
      break;
  }
  return "?";
}

// Whether an event type is a duration ("X" phase) or an instant ("i").
[[nodiscard]] constexpr bool event_has_duration(Event e) noexcept {
  switch (e) {
    case Event::kTxnCommit:
    case Event::kTxnAbort:
    case Event::kSerialFallback:
    case Event::kCvWait:
    case Event::kSemWait:
    case Event::kSemSpin:
    case Event::kCmBackoff:
      return true;
    default:
      return false;
  }
}

// One trace record: 24 bytes of PODs, written with plain stores.
struct TraceEvent {
  std::uint64_t ts;    // TscClock ticks at event start
  std::uint64_t dur;   // ticks of duration (0 for instants)
  std::uint16_t type;  // Event
  std::uint16_t arg;   // small payload (reason, woken count, batch size...)
  std::uint32_t pad = 0;
};
static_assert(sizeof(TraceEvent) == 24);

// ---------------------------------------------------------------------------
// Runtime gates
// ---------------------------------------------------------------------------

// Bit 0: latency timing (histograms).  Bit 1: event capture (rings).
// Bit 2: conflict attribution (sharded counter tables, obs/attribution.h).
inline constexpr std::uint32_t kTimingBit = 1u;
inline constexpr std::uint32_t kTraceBit = 2u;
inline constexpr std::uint32_t kAttrBit = 4u;

namespace detail {
inline std::atomic<std::uint32_t> g_flags{0};
}  // namespace detail

[[nodiscard]] inline std::uint32_t flags() noexcept {
  return detail::g_flags.load(std::memory_order_relaxed);
}

inline void set_timing_enabled(bool on) noexcept {
  if (on)
    detail::g_flags.fetch_or(kTimingBit, std::memory_order_relaxed);
  else
    detail::g_flags.fetch_and(~kTimingBit, std::memory_order_relaxed);
}

inline void set_trace_enabled(bool on) noexcept {
  if (on)
    detail::g_flags.fetch_or(kTraceBit, std::memory_order_relaxed);
  else
    detail::g_flags.fetch_and(~kTraceBit, std::memory_order_relaxed);
}

inline void set_attribution_enabled(bool on) noexcept {
  if (on)
    detail::g_flags.fetch_or(kAttrBit, std::memory_order_relaxed);
  else
    detail::g_flags.fetch_and(~kAttrBit, std::memory_order_relaxed);
}

[[nodiscard]] inline bool timing_enabled() noexcept {
  return (flags() & kTimingBit) != 0;
}
[[nodiscard]] inline bool trace_enabled() noexcept {
  return (flags() & kTraceBit) != 0;
}
[[nodiscard]] inline bool attribution_enabled() noexcept {
  return (flags() & kAttrBit) != 0;
}

// Timestamp for a region start: 0 when the layer is entirely off, so the
// matching end-hook can skip with one test.  This is THE disabled-path cost:
// one relaxed load, one predictable branch.
[[nodiscard]] inline std::uint64_t region_begin() noexcept {
  return flags() != 0 ? TscClock::now() : 0;
}

// ---------------------------------------------------------------------------
// Per-thread ring buffer
// ---------------------------------------------------------------------------

class TraceRing {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 15;  // 768 KiB

  explicit TraceRing(std::uint32_t tid,
                     std::size_t capacity = kDefaultCapacity)
      : events_(new TraceEvent[capacity]), cap_(capacity), tid_(tid) {
    // Power-of-two capacity keeps the index computation a mask.
    while (cap_ & (cap_ - 1)) --cap_;
  }

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  void push(Event type, std::uint64_t ts, std::uint64_t dur,
            std::uint16_t arg) noexcept {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    TraceEvent& e = events_[h & (cap_ - 1)];
    e.ts = ts;
    e.dur = dur;
    e.type = static_cast<std::uint16_t>(type);
    e.arg = arg;
    head_.store(h + 1, std::memory_order_release);
  }

  // Events currently held (<= capacity).
  [[nodiscard]] std::size_t size() const noexcept {
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    return h < cap_ ? static_cast<std::size_t>(h) : cap_;
  }

  // Events overwritten because the ring was full (the ring keeps the most
  // recent `capacity` records; older ones are the overflow drops).
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    return h > cap_ ? h - cap_ : 0;
  }

  [[nodiscard]] std::uint64_t total_pushed() const noexcept {
    return head_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }
  [[nodiscard]] std::uint32_t tid() const noexcept { return tid_; }

  // Copy the retained events, oldest first.  Coherent when the owner thread
  // is quiescent (the supported serialization point); a concurrent writer
  // can at worst tear records that are about to be overwritten anyway.
  void snapshot(std::vector<TraceEvent>& out) const {
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    const std::uint64_t n = h < cap_ ? h : cap_;
    out.reserve(out.size() + static_cast<std::size_t>(n));
    for (std::uint64_t i = h - n; i < h; ++i)
      out.push_back(events_[i & (cap_ - 1)]);
  }

  void clear() noexcept { head_.store(0, std::memory_order_release); }

 private:
  std::unique_ptr<TraceEvent[]> events_;
  std::size_t cap_;
  std::uint32_t tid_;
  std::atomic<std::uint64_t> head_{0};
};

// ---------------------------------------------------------------------------
// Ring table (process-wide)
// ---------------------------------------------------------------------------

namespace detail {

struct RingTable {
  std::mutex mu;
  std::vector<std::unique_ptr<TraceRing>> rings;  // never shrunk
  std::uint32_t next_tid = 1;
};

inline RingTable& ring_table() {
  static RingTable table;
  return table;
}

// Cold: allocate + register this thread's ring.
inline TraceRing* acquire_ring() {
  RingTable& t = ring_table();
  std::lock_guard<std::mutex> lock(t.mu);
  t.rings.push_back(std::make_unique<TraceRing>(t.next_tid++));
  return t.rings.back().get();
}

inline TraceRing& my_ring() {
  thread_local TraceRing* ring = acquire_ring();
  return *ring;
}

}  // namespace detail

// Visit every ring ever registered (exited threads included).
template <typename Fn>
void for_each_ring(Fn&& fn) {
  detail::RingTable& t = detail::ring_table();
  std::lock_guard<std::mutex> lock(t.mu);
  for (const auto& r : t.rings) fn(*r);
}

// Drop all captured events (per-run reset; call at quiescence).
inline void trace_reset() noexcept {
  detail::RingTable& t = detail::ring_table();
  std::lock_guard<std::mutex> lock(t.mu);
  for (const auto& r : t.rings) r->clear();
}

// ---------------------------------------------------------------------------
// Emission hooks (call sites in tm/core/sync wrap these in #if TMCV_TRACE)
// ---------------------------------------------------------------------------

// Record a duration event started at `t0` (a region_begin() result; no-op
// when that returned 0 or capture is off).  Returns the tick count spent,
// or 0 when timing is entirely off -- callers feed it to a histogram.
inline std::uint64_t emit_complete(Event type, std::uint64_t t0,
                                   std::uint16_t arg = 0) noexcept {
  const std::uint32_t f = flags();
  if (f == 0 || t0 == 0) return 0;
  const std::uint64_t now = TscClock::now();
  const std::uint64_t dur = now > t0 ? now - t0 : 0;
  if (f & kTraceBit) detail::my_ring().push(type, t0, dur, arg);
  return dur;
}

inline void emit_instant(Event type, std::uint16_t arg = 0) noexcept {
  if ((flags() & kTraceBit) == 0) return;
  detail::my_ring().push(type, TscClock::now(), 0, arg);
}

// Instant with a caller-captured timestamp (a region_begin() result; no-op
// when that returned 0).  Used where the logical time of the event precedes
// the point where its payload is known -- e.g. a notify's grant instant is
// before the queue transaction, its woken count after.
inline void emit_instant_at(Event type, std::uint64_t ts,
                            std::uint16_t arg = 0) noexcept {
  if ((flags() & kTraceBit) == 0 || ts == 0) return;
  detail::my_ring().push(type, ts, 0, arg);
}

// Capture-side totals for the metrics registry.
struct TraceCounts {
  std::uint64_t recorded = 0;  // pushes that are still retained
  std::uint64_t dropped = 0;   // pushes overwritten by wraparound
};

inline TraceCounts trace_counts() {
  TraceCounts c;
  for_each_ring([&](const TraceRing& r) {
    c.recorded += r.size();
    c.dropped += r.dropped();
  });
  return c;
}

}  // namespace tmcv::obs

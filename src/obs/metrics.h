// Metrics registry: one snapshot/delta API over every counter and histogram
// the runtime maintains -- the TM statistics (tm::Stats), the aggregated
// condition-variable counters (CondVarStats), the latency histograms, and
// the tracer's capture totals -- with JSON and Prometheus text exporters.
//
// Consistency model: a snapshot folds per-thread / per-object counter
// families (util/counters.h) with one relaxed load per field.  Values are
// therefore monotonic and *eventually consistent*: exact once the measured
// threads are quiescent, each field exact at some instant while they run.
// What IS guaranteed even under concurrency (the registry routes the
// thread-exit fold through a mutex) is that no thread's counters are ever
// double-counted or lost while it migrates from the live set to the retired
// accumulator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/condvar.h"
#include "obs/attribution.h"
#include "obs/histogram.h"
#include "obs/trace.h"
#include "obs/waitgraph.h"
#include "sync/wake_stats.h"
#include "tm/stats.h"

namespace tmcv::obs {

// One trace ring's drop count (per-thread: a scraper can tell WHOSE data is
// incomplete, not just that some ring wrapped).
struct RingDrops {
  std::uint32_t tid = 0;
  std::uint64_t dropped = 0;
};

// ---------------------------------------------------------------------------
// Application counters
//
// The registry's fixed sections cover the runtime; workloads built ON the
// runtime (the KV server's get/set/hit/miss counters, a future vacation
// bench) publish theirs by registering a scrape callback.  Each snapshot
// invokes every registered source, so app counters ride the same snapshot,
// delta, JSON, and Prometheus machinery as everything else -- `curl
// /metrics.json` mid-run shows `kv_get_total` next to `commits`.
//
// Names should be snake_case identifiers; they are exported verbatim into
// JSON under "app" and as `tmcv_app_<name>` Prometheus counters.  A source
// that reports a level which can fall (a store's live size) sets `gauge`:
// a delta then keeps its current value, and Prometheus types it `gauge`.
// Callbacks must be cheap (relaxed atomic loads) and thread-safe; they run
// on any thread that calls metrics_snapshot() (a telemetry request, the
// time-series sampler, an exit dump).
// ---------------------------------------------------------------------------

struct AppCounter {
  std::string name;
  std::uint64_t value = 0;
  bool gauge = false;
};

using AppCounterFn = void (*)(void* ctx, std::vector<AppCounter>& out);

// Register / remove a scrape source.  Unregister before destroying `ctx`
// (the KV server does this in stop()).
void register_app_counters(AppCounterFn fn, void* ctx);
void unregister_app_counters(AppCounterFn fn, void* ctx);

// Invoke every registered source into `out` (appended; caller clears).
// This is the cheap path the time-series recorder ticks on: with `out`
// capacity retained and SSO-sized names it performs no heap allocation,
// unlike a full metrics_snapshot().
void scrape_app_counters_into(std::vector<AppCounter>& out);

struct MetricsSnapshot {
  tm::Stats tm;        // folded over live + retired TM threads
  std::string tm_backend;  // default backend label at capture time
                           // ("eager"/"htm"/"norec")
  CondVarStats cv;     // folded over live + destroyed condition variables
  WakeStats wake;      // process-wide spin/park counters
  std::uint64_t trace_events = 0;   // records retained across all rings
  std::uint64_t trace_dropped = 0;  // records lost to ring wraparound
  std::vector<RingDrops> trace_ring_drops;  // per-ring breakdown (every ring)
  AttributionSnapshot attribution;  // conflict attribution (sorted, unsliced)
  std::vector<AppCounter> app;      // registered application counters
  StallSnapshot stall;              // off-CPU park time by (reason x site)

  HistogramSnapshot cv_wait_ns;       // condvar enqueue -> wakeup
  HistogramSnapshot notify_wake_ns;   // notify selection -> waiter running
  HistogramSnapshot txn_commit_ns;    // begin -> successful outermost commit
  HistogramSnapshot txn_abort_ns;     // begin -> abort (any reason)
  HistogramSnapshot serial_stall_ns;  // serial-fallback lock-acquire stall
  HistogramSnapshot cm_backoff_ns;    // CM waits: inter-retry backoff
  HistogramSnapshot spin_park_ns;     // pre-park spin phase of slow waits
};

// Seconds since this process first touched the metrics registry (anchored
// at static-init time in practice): the `tmcv_uptime_seconds` gauge, and
// the freshness stamp in flight-recorder dumps.
[[nodiscard]] double process_uptime_seconds();

// Capture everything now.
[[nodiscard]] MetricsSnapshot metrics_snapshot();

// Element-wise `now - before`: activity between two snapshots.
[[nodiscard]] MetricsSnapshot metrics_delta(const MetricsSnapshot& now,
                                            const MetricsSnapshot& before);

// Exporters.
[[nodiscard]] std::string to_json(const MetricsSnapshot& s);
[[nodiscard]] std::string to_prometheus(const MetricsSnapshot& s);

// The attribution tables as one JSON object -- conflicts_recorded, dropped,
// abort_sites, conflict_pairs, hot_stripes -- keeping the first `limit`
// entries of each list (0 = every entry, so the pair counts sum to
// conflicts_recorded).  The only attribution JSON writer: to_json (top 10),
// /profile, the flight dump and kv_loadgen all call it.
[[nodiscard]] std::string attribution_json(const AttributionSnapshot& a,
                                           std::size_t limit);

// Escape a string for both JSON strings and Prometheus label values (the
// escape sets coincide for the characters site names can contain).
[[nodiscard]] std::string escaped(const char* s);

// Write the snapshot as JSON to `json_path` and as Prometheus text to
// `json_path` + ".prom".  Returns false (with errno intact) on I/O failure.
bool write_metrics_files(const MetricsSnapshot& s,
                         const std::string& json_path);

// ---------------------------------------------------------------------------
// Chrome trace serialization (capture side lives in obs/trace.h)
// ---------------------------------------------------------------------------

// A ring record tagged with its owner thread's trace id.
struct TaggedEvent {
  TraceEvent event;
  std::uint32_t tid;
};

// The Chrome trace document as a string (no trailing newline): what
// write_chrome_trace() writes, reusable inline in a flight-recorder dump.
[[nodiscard]] std::string chrome_trace_json();

// Merge the retained events of every ring (exited threads included),
// sorted by raw timestamp.  Call at quiescence.
[[nodiscard]] std::vector<TaggedEvent> collect_trace_sorted();

// Serialize every ring to Chrome trace-event JSON (loadable in Perfetto /
// chrome://tracing): {"traceEvents": [...], "displayTimeUnit": "ns"}.
// Events are merged across threads and sorted by timestamp; timestamps are
// microseconds relative to the earliest captured event.  Call at
// quiescence.  Returns false on I/O failure.
bool write_chrome_trace(const std::string& path);

}  // namespace tmcv::obs

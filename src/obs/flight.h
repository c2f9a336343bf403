// Flight recorder: one-shot post-mortem capture.
//
// When something goes wrong -- a watchdog alert fires, an operator sends
// SIGUSR2, a server exits with --dump-on-exit -- the flight recorder
// freezes the whole observability surface into a single JSON document:
//
//   {"tmcv_flight": 1,
//    "meta": {...version/build/reason/uptime...},
//    "alerts": {...},          // watchdog rule states at dump time
//    "metrics": {...},         // full registry snapshot (to_json)
//    "history": {...},         // the recorder's retained window
//    "attribution_full": {...},// UNSLICED tables: pair counts sum exactly
//                              // to aborts_conflict (metrics.attribution
//                              // is the top-10 slice; a post-mortem must
//                              // not be)
//    "trace": {...}}           // Chrome trace document, loadable as-is
//
// "Freeze" means: the runtime capture flags are cleared for the duration of
// serialization and restored afterwards, so the rings and tables are not
// mutating mid-read more than the usual relaxed-counter slack.  The dump is
// written to `path + ".tmp"` and renamed into place, so a reader never sees
// a torn file.
//
// `tools/trace_report.py FILE --validate` checks a dump's invariants and
// `--summary` walks its sections; see docs/OBSERVABILITY.md §8.4.
#pragma once

#include <string>

namespace tmcv::obs {

struct FlightDumpOptions {
  // Free-form provenance recorded in meta.reason: "watchdog", "signal",
  // "exit", "api", a test name...
  const char* reason = "api";
};

// Serialize the full document (always possible; sections honestly reflect
// whatever was enabled -- an empty trace section means tracing was off).
[[nodiscard]] std::string flight_json(
    const FlightDumpOptions& opts = {});

// Atomically write flight_json() to `path`.  Returns false (errno intact)
// on I/O failure.
bool flight_dump(const std::string& path,
                 const FlightDumpOptions& opts = {});

}  // namespace tmcv::obs

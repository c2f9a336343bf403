#include "obs/flight.h"

#include <cstdio>
#include <sstream>

#include "core/c_api.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "obs/waitgraph.h"
#include "obs/watchdog.h"
#include "tmcv_version.h"

namespace tmcv::obs {

namespace {

// Clears the runtime capture flags for the duration of serialization so
// the rings/tables/histograms are quiescent-ish while we read them, then
// restores whatever was set.  The stats counters themselves are always-on
// and unaffected.
class CaptureFreeze {
 public:
  CaptureFreeze() : saved_(flags()) {
    set_timing_enabled(false);
    set_trace_enabled(false);
    set_attribution_enabled(false);
  }
  ~CaptureFreeze() {
    set_timing_enabled((saved_ & kTimingBit) != 0);
    set_trace_enabled((saved_ & kTraceBit) != 0);
    set_attribution_enabled((saved_ & kAttrBit) != 0);
  }
  CaptureFreeze(const CaptureFreeze&) = delete;
  CaptureFreeze& operator=(const CaptureFreeze&) = delete;

 private:
  std::uint32_t saved_;
};

}  // namespace

std::string flight_json(const FlightDumpOptions& opts) {
  CaptureFreeze freeze;

  // Capture every section while frozen.  Order matters only for humans.
  const MetricsSnapshot snap = metrics_snapshot();

  std::ostringstream os;
  char upbuf[64];
  std::snprintf(upbuf, sizeof upbuf, "%.3f", process_uptime_seconds());
  os << "{\n\"tmcv_flight\": 1,\n\"meta\": {\"version\": \""
     << TMCV_VERSION_STRING << "\", \"trace_compiled\": "
     << (TMCV_TRACE ? "true" : "false")
     << ", \"htm\": \"emulated\", \"reason\": \""
     << escaped(opts.reason != nullptr ? opts.reason : "api")
     << "\", \"uptime_seconds\": " << upbuf << "},\n\"alerts\": "
     << watchdog().alerts_json() << ",\n\"metrics\": " << to_json(snap)
     << ",\n\"history\": " << timeseries().to_json()
     << ",\n\"attribution_full\": " << attribution_json(snap.attribution, 0)
     << ",\n\"waitgraph\": " << waitgraph_json()
     << ",\n\"trace\": " << chrome_trace_json() << "\n}\n";
  return os.str();
}

bool flight_dump(const std::string& path, const FlightDumpOptions& opts) {
  const std::string json = flight_json(opts);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return false;
  }
  // Atomic publish: a concurrent validator sees the old file or the new
  // one, never a prefix.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace tmcv::obs

// C API (declared in core/c_api.h, same link contract as the telemetry
// endpoint: requires tmcv_obs).
extern "C" int tmcv_flight_dump(const char* path) {
  if (path == nullptr || *path == '\0') return -1;
  tmcv::obs::FlightDumpOptions opts;
  opts.reason = "api";
  return tmcv::obs::flight_dump(path, opts) ? 0 : -1;
}

// Live telemetry endpoint: scrape the metrics registry from a RUNNING
// process instead of waiting for an exit dump.
//
// One accept thread serves a minimal blocking HTTP/1.0 loop bound to
// 127.0.0.1.  The metric routes take one metrics_snapshot() when the request
// arrives, so a response is as fresh as the scrape and an unscraped
// endpoint costs nothing; per-interval activity is the time-series
// recorder's job (/history).
//
//   GET /metrics       Prometheus text exposition (to_prometheus)
//   GET /metrics.json  full JSON snapshot (to_json)
//   GET /healthz       liveness: {"status", "uptime_ms"}; takes no snapshot
//   GET /profile       every conflict-attribution entry (abort sites,
//                      conflict pairs, hot stripes) plus aborts_conflict,
//                      JSON (attribution_json with no limit)
//
// Scope: a debugging/bench endpoint, deliberately minimal -- one request
// per connection, GET only, no TLS, loopback only.  Production deployments
// would sit a real exporter in front; this exists so `curl
// localhost:PORT/profile` works mid-run (the ROADMAP's "scrapeable from a
// running process" requirement) and so CI can assert the attribution lists
// are non-empty while the contended bench is still executing.
//
// The C API face (tmcv_telemetry_start/stop, declared in core/c_api.h) is
// defined here in the obs library, keeping tmcv_core free of any obs
// dependency.
#pragma once

#include <cstdint>
#include <memory>

namespace tmcv::obs {

class TelemetryServer {
 public:
  TelemetryServer();
  ~TelemetryServer();  // stops if running

  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  // Bind `port` (0 = ephemeral: read the bound port after start) and spawn
  // the accept thread.  Returns false if already running or the socket
  // could not be bound.
  bool start(std::uint16_t port = 0);

  // Shut the listen socket, join the accept thread.  Idempotent.
  void stop();

  [[nodiscard]] bool running() const noexcept;

  // Bound port (valid after a successful start; 0 otherwise).
  [[nodiscard]] std::uint16_t port() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tmcv::obs

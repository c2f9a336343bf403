// Telemetry-endpoint tests: ephemeral-port bind, every route over a raw
// loopback socket, error statuses, stop/restart, the C API singleton, and
// the per-request snapshot: /profile serves every attribution entry with
// escaped site names, and /metrics.json is as fresh as the request.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>

#include "core/c_api.h"
#include "obs/attribution.h"
#include "obs/telemetry_server.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "tm/api.h"
#include "tm/var.h"

namespace obs = tmcv::obs;

namespace {

// Minimal HTTP client: one request, read to EOF (the server closes after
// each response).
std::string http_request(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    ::close(fd);
    return "";
  }
  std::size_t off = 0;
  while (off < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + off, request.size() - off, 0);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0)
    resp.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  return resp;
}

std::string http_get(std::uint16_t port, const std::string& path) {
  return http_request(port, "GET " + path + " HTTP/1.0\r\n\r\n");
}

// The unsigned number after the first `"key": ` at or past `from` (0 when
// the key is absent).
std::uint64_t json_number(const std::string& doc, const std::string& key,
                          std::size_t from = 0) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = doc.find(needle, from);
  if (at == std::string::npos) return 0;
  return std::strtoull(doc.c_str() + at + needle.size(), nullptr, 10);
}

// GET /profile until it shows `recorded` conflicts.  The route snapshots on
// arrival, so the first answer should; the bound keeps a stale endpoint
// from hanging the suite.
std::string profile_showing(std::uint16_t port, std::uint64_t recorded) {
  std::string doc;
  for (int i = 0; i < 200; ++i) {
    doc = http_get(port, "/profile");
    if (json_number(doc, "conflicts_recorded") == recorded) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return doc;
}

// The text of the JSON array `"key": [...]` (entries hold no brackets).
std::string json_array(const std::string& doc, const std::string& key) {
  const std::size_t open = doc.find("\"" + key + "\": [");
  if (open == std::string::npos) return "";
  const std::size_t close = doc.find(']', open);
  return doc.substr(open, close - open);
}

TEST(ObsTelemetryTest, ServesAllRoutesOnEphemeralPort) {
  obs::TelemetryServer server;
  ASSERT_TRUE(server.start());  // ephemeral port
  ASSERT_TRUE(server.running());
  ASSERT_NE(server.port(), 0);
  EXPECT_FALSE(server.start());  // double start refused

  const std::string prom = http_get(server.port(), "/metrics");
  EXPECT_NE(prom.find("200 OK"), std::string::npos);
  EXPECT_NE(prom.find("tmcv_tm_commits_total"), std::string::npos);

  const std::string json = http_get(server.port(), "/metrics.json");
  EXPECT_NE(json.find("200 OK"), std::string::npos);
  EXPECT_NE(json.find("application/json"), std::string::npos);
  EXPECT_NE(json.find("\"tm\""), std::string::npos);
  EXPECT_NE(json.find("\"attribution\""), std::string::npos);

  const std::string health = http_get(server.port(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(health.find("\"uptime_ms\": "), std::string::npos);

  const std::string profile = http_get(server.port(), "/profile");
  EXPECT_NE(profile.find("200 OK"), std::string::npos);
  EXPECT_NE(profile.find("\"conflict_pairs\""), std::string::npos);
  EXPECT_NE(profile.find("\"hot_stripes\""), std::string::npos);

  // History + alerts routes answer even when the recorder/watchdog are not
  // running: an empty-but-valid document, never a 404.
  const std::string hist = http_get(server.port(), "/history.json");
  EXPECT_NE(hist.find("200 OK"), std::string::npos);
  EXPECT_NE(hist.find("application/json"), std::string::npos);
  EXPECT_NE(hist.find("\"samples\""), std::string::npos);
  EXPECT_NE(http_get(server.port(), "/history").find("200 OK"),
            std::string::npos);
  const std::string alerts = http_get(server.port(), "/alerts");
  EXPECT_NE(alerts.find("200 OK"), std::string::npos);
  EXPECT_NE(alerts.find("\"watchdog_running\""), std::string::npos);

  EXPECT_NE(http_get(server.port(), "/nope").find("404 Not Found"),
            std::string::npos);
  EXPECT_NE(http_request(server.port(), "POST /metrics HTTP/1.0\r\n\r\n")
                .find("405 Method Not Allowed"),
            std::string::npos);

  server.stop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.port(), 0);
  server.stop();  // idempotent

  // Restart binds a fresh socket and serves again.
  ASSERT_TRUE(server.start());
  EXPECT_NE(http_get(server.port(), "/healthz").find("200 OK"),
            std::string::npos);
  server.stop();
}

TEST(ObsTelemetryTest, HistoryAndAlertRoutesReflectLiveRecorder) {
  // Drive the recorder manually (no sampler thread) so the routes serve
  // deterministic content, and check the watchdog gauges ride /metrics.
  obs::TimeSeriesOptions ts;
  ts.interval_ms = 10;
  ts.depth = 8;
  ts.sampler_thread = false;
  ASSERT_TRUE(obs::timeseries().start(ts));
  obs::timeseries().sample_now();
  obs::watchdog().start(obs::default_rules());

  obs::TelemetryServer server;
  ASSERT_TRUE(server.start());

  const std::string hist = http_get(server.port(), "/history.json");
  EXPECT_NE(hist.find("\"running\": true"), std::string::npos);
  EXPECT_NE(hist.find("\"commits_per_sec\""), std::string::npos);
  const std::string table = http_get(server.port(), "/history");
  EXPECT_NE(table.find("commit/s"), std::string::npos);

  const std::string alerts = http_get(server.port(), "/alerts");
  EXPECT_NE(alerts.find("\"watchdog_running\": true"), std::string::npos);
  EXPECT_NE(alerts.find("\"abort_storm\""), std::string::npos);

  const std::string prom = http_get(server.port(), "/metrics");
  EXPECT_NE(prom.find("tmcv_alerts_firing{rule=\"abort_storm\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("tmcv_alerts_fired_total{rule=\"latency_p99\"}"),
            std::string::npos);

  server.stop();
  obs::watchdog().stop();
  obs::timeseries().stop();
}

TEST(ObsTelemetryTest, TakenPortFailsWithAddrInUse) {
  // The loud-failure contract (shared with the KV server and bench mains):
  // binding an occupied port returns false with errno == EADDRINUSE so the
  // caller can print why, instead of a silent false.
  obs::TelemetryServer first;
  ASSERT_TRUE(first.start());
  obs::TelemetryServer second;
  const std::uint16_t taken = first.port();
  errno = 0;
  EXPECT_FALSE(second.start(taken));
  EXPECT_EQ(errno, EADDRINUSE);
  EXPECT_FALSE(second.running());
  // And the C API surfaces the same errno.
  errno = 0;
  EXPECT_EQ(tmcv_telemetry_start(first.port()), -1);
  EXPECT_EQ(errno, EADDRINUSE);
  first.stop();
  // The port is free again: a retry on the exact same port succeeds
  // (SO_REUSEADDR spares the TIME_WAIT dance).
  ASSERT_TRUE(second.start(taken));
  EXPECT_EQ(second.port(), taken);
  second.stop();
}

TEST(ObsTelemetryTest, CApiSingletonLifecycle) {
  const int port = tmcv_telemetry_start(0);
  ASSERT_GT(port, 0);
  EXPECT_EQ(tmcv_telemetry_start(0), -1);  // already running
  EXPECT_NE(http_get(static_cast<std::uint16_t>(port), "/healthz")
                .find("200 OK"),
            std::string::npos);
  tmcv_telemetry_stop();
  tmcv_telemetry_stop();  // idempotent

  const int port2 = tmcv_telemetry_start(0);
  ASSERT_GT(port2, 0);
  tmcv_telemetry_stop();

  EXPECT_EQ(tmcv_telemetry_start(-1), -1);      // invalid port
  EXPECT_EQ(tmcv_telemetry_start(65536), -1);   // invalid port
}

TEST(ObsTelemetryTest, ProfileListsEveryConflictPair) {
  // More distinct pairs than the top-10 slice of /metrics.json: /profile
  // must list all of them, so their counts sum to conflicts_recorded.
  static const char* const kVictims[] = {
      "tel.v00", "tel.v01", "tel.v02", "tel.v03", "tel.v04", "tel.v05",
      "tel.v06", "tel.v07", "tel.v08", "tel.v09", "tel.v10", "tel.v11"};
  constexpr int kPairs = sizeof kVictims / sizeof kVictims[0];
  obs::attr_reset();
  obs::set_attribution_enabled(true);
  const std::uint16_t attacker = obs::intern_site("tel.attacker");
  std::uint64_t recorded = 0;
  for (int i = 0; i < kPairs; ++i) {
    const std::uint16_t victim = obs::intern_site(kVictims[i]);
    for (int n = 0; n <= i; ++n, ++recorded)
      obs::attr_record_conflict(victim, attacker, obs::kAttrNoStripe);
  }
  obs::set_attribution_enabled(false);

  obs::TelemetryServer server;
  ASSERT_TRUE(server.start());
  const std::string profile = profile_showing(server.port(), recorded);
  server.stop();
  obs::attr_reset();

  ASSERT_NE(profile.find("200 OK"), std::string::npos);
  EXPECT_EQ(json_number(profile, "conflicts_recorded"), recorded);
  const std::string pairs = json_array(profile, "conflict_pairs");
  for (const char* victim : kVictims)
    EXPECT_NE(pairs.find("\"victim\": \"" + std::string(victim) + "\""),
              std::string::npos)
        << victim;
  std::uint64_t listed = 0;
  std::uint64_t sum = 0;
  for (std::size_t at = pairs.find("\"victim\""); at != std::string::npos;
       at = pairs.find("\"victim\"", at + 1)) {
    ++listed;
    sum += json_number(pairs, "count", at);
  }
  EXPECT_EQ(listed, static_cast<std::uint64_t>(kPairs));
  EXPECT_EQ(sum, recorded);
}

TEST(ObsTelemetryTest, ProfileEscapesSiteNames) {
  obs::attr_reset();
  obs::set_attribution_enabled(true);
  const std::uint16_t site = obs::intern_site("we\"ird\\site");
  obs::attr_record_abort(site, obs::kAttrReasonConflict);
  obs::attr_record_conflict(site, site, obs::kAttrNoStripe);
  obs::set_attribution_enabled(false);

  obs::TelemetryServer server;
  ASSERT_TRUE(server.start());
  const std::string profile = profile_showing(server.port(), 1);
  server.stop();
  obs::attr_reset();

  EXPECT_NE(profile.find("\"site\": \"we\\\"ird\\\\site\""),
            std::string::npos)
      << profile;
  EXPECT_NE(profile.find("\"victim\": \"we\\\"ird\\\\site\""),
            std::string::npos);
  EXPECT_EQ(profile.find("\"we\"ird"), std::string::npos);
}

TEST(ObsTelemetryTest, MetricsJsonIsTakenPerRequest) {
  // Commits made between two back-to-back scrapes show up in the second:
  // the route snapshots when the request arrives, not on a timer.
  obs::TelemetryServer server;
  ASSERT_TRUE(server.start());
  const std::uint64_t before =
      json_number(http_get(server.port(), "/metrics.json"), "commits");
  constexpr std::uint64_t kCommits = 32;
  tmcv::tm::var<std::uint64_t> x(0);
  for (std::uint64_t i = 0; i < kCommits; ++i)
    tmcv::tm::atomically([&] { x.store(x.load() + 1); });
  const std::uint64_t after =
      json_number(http_get(server.port(), "/metrics.json"), "commits");
  server.stop();
  EXPECT_GE(after, before + kCommits);
}

}  // namespace

#include "obs/telemetry_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/waitgraph.h"
#include "obs/watchdog.h"
#include "util/net.h"

namespace tmcv::obs {

namespace {

// /profile payload: the attribution section alone, with enough context
// (aborts_conflict, drop count) to judge completeness at a glance.
std::string profile_json(const MetricsSnapshot& s) {
  constexpr std::size_t kTopN = 10;
  std::ostringstream os;
  os << "{\n  \"aborts_conflict\": " << s.tm.aborts_conflict()
     << ",\n  \"conflicts_recorded\": " << attr_conflicts_total(s.attribution)
     << ",\n  \"dropped\": " << s.attribution.dropped
     << ",\n  \"abort_sites\": [";
  bool first = true;
  for (std::size_t i = 0; i < s.attribution.abort_sites.size() && i < kTopN;
       ++i) {
    const AttrEntry& e = s.attribution.abort_sites[i];
    os << (first ? "" : ",") << "\n    {\"site\": \""
       << site_name(attr_key_site(e.key)) << "\", \"reason\": \""
       << attr_reason_name(attr_key_reason(e.key))
       << "\", \"count\": " << e.count << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "],\n  \"conflict_pairs\": [";
  first = true;
  for (std::size_t i = 0;
       i < s.attribution.conflict_pairs.size() && i < kTopN; ++i) {
    const AttrEntry& e = s.attribution.conflict_pairs[i];
    os << (first ? "" : ",") << "\n    {\"victim\": \""
       << site_name(attr_pair_victim(e.key)) << "\", \"attacker\": \""
       << site_name(attr_pair_attacker(e.key)) << "\", \"reason\": \""
       << attr_reason_name(attr_key_reason(e.key))
       << "\", \"count\": " << e.count << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "],\n  \"hot_stripes\": [";
  first = true;
  for (std::size_t i = 0; i < s.attribution.hot_stripes.size() && i < kTopN;
       ++i) {
    const AttrEntry& e = s.attribution.hot_stripes[i];
    os << (first ? "" : ",") << "\n    {\"stripe\": "
       << attr_stripe_index(e.key) << ", \"count\": " << e.count << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "]\n}\n";
  return os.str();
}

}  // namespace

struct TelemetryServer::Impl {
  TelemetryOptions opts;
  // Atomic: stop() invalidates the fd concurrently with the accept loop's
  // reads (the exchange also keeps a double-stop from closing twice).
  std::atomic<int> listen_fd{-1};
  std::uint16_t bound_port = 0;
  std::atomic<bool> running{false};
  std::thread accept_thread;
  std::thread pump_thread;

  // Pump state: the latest snapshot plus a short ring of per-interval
  // deltas, all under one mutex (requests are rare; contention is nil).
  std::mutex mu;
  std::condition_variable pump_cv;  // wakes the pump early on stop()
  MetricsSnapshot latest;
  std::deque<MetricsSnapshot> deltas;  // newest at back
  std::uint64_t snapshots_taken = 0;
  std::chrono::steady_clock::time_point started_at;

  void pump() {
    MetricsSnapshot prev = metrics_snapshot();
    {
      std::lock_guard<std::mutex> lock(mu);
      latest = prev;
      snapshots_taken = 1;
    }
    std::unique_lock<std::mutex> lock(mu);
    while (running.load(std::memory_order_acquire)) {
      pump_cv.wait_for(
          lock, std::chrono::milliseconds(opts.snapshot_interval_ms),
          [&] { return !running.load(std::memory_order_acquire); });
      if (!running.load(std::memory_order_acquire)) break;
      lock.unlock();
      MetricsSnapshot now = metrics_snapshot();
      MetricsSnapshot delta = metrics_delta(now, prev);
      prev = now;
      lock.lock();
      latest = std::move(now);
      ++snapshots_taken;
      deltas.push_back(std::move(delta));
      while (deltas.size() > opts.delta_ring) deltas.pop_front();
    }
  }

  std::string healthz_json() {
    std::lock_guard<std::mutex> lock(mu);
    const auto uptime = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - started_at);
    std::ostringstream os;
    os << "{\n  \"status\": \"ok\",\n  \"uptime_ms\": " << uptime.count()
       << ",\n  \"snapshots\": " << snapshots_taken
       << ",\n  \"snapshot_interval_ms\": " << opts.snapshot_interval_ms;
    if (!deltas.empty()) {
      // Activity over the most recent interval: enough to tell a live
      // workload from a stalled one without parsing the full export.
      const MetricsSnapshot& d = deltas.back();
      os << ",\n  \"last_interval\": {\"commits\": " << d.tm.commits
         << ", \"aborts\": " << d.tm.aborts
         << ", \"notifies\": "
         << d.cv.notify_one_calls + d.cv.notify_all_calls
         << ", \"trace_dropped\": " << d.trace_dropped << "}";
    }
    os << "\n}\n";
    return os.str();
  }

  // One row per GET path.  The table generates BOTH the dispatch and the
  // 404 help string, so a route cannot ship without its help text (the
  // old hand-maintained help line drifted twice).
  struct RouteRow {
    const char* path;
    const char* content_type;
    std::string (*handler)(Impl& im, const MetricsSnapshot& snap);
  };

  static const std::vector<RouteRow>& routes() {
    static const std::vector<RouteRow> r = {
        {"/metrics", "text/plain; version=0.0.4",
         [](Impl&, const MetricsSnapshot& s) {
           // Watchdog gauges ride the Prometheus export so one scrape
           // target covers counters and alerts.
           return to_prometheus(s) + watchdog().prometheus();
         }},
        {"/metrics.json", "application/json",
         [](Impl&, const MetricsSnapshot& s) { return to_json(s); }},
        {"/healthz", "application/json",
         [](Impl& im, const MetricsSnapshot&) { return im.healthz_json(); }},
        {"/profile", "application/json",
         [](Impl&, const MetricsSnapshot& s) { return profile_json(s); }},
        {"/history", "text/plain; version=0.0.4",
         [](Impl&, const MetricsSnapshot&) {
           return timeseries().to_text();
         }},
        {"/history.json", "application/json",
         [](Impl&, const MetricsSnapshot&) {
           return timeseries().to_json();
         }},
        {"/alerts", "application/json",
         [](Impl&, const MetricsSnapshot&) {
           return watchdog().alerts_json();
         }},
        {"/threads", "application/json",
         [](Impl&, const MetricsSnapshot&) { return threads_json(); }},
        {"/waitgraph", "application/json",
         [](Impl&, const MetricsSnapshot&) { return waitgraph_json(); }},
    };
    return r;
  }

  static std::string route_help() {
    std::string help = "unknown path; try";
    for (const RouteRow& r : routes()) {
      help += ' ';
      help += r.path;
    }
    help += '\n';
    return help;
  }

  // One request per connection, HTTP/1.0, GET only.
  void serve_client(int fd) {
    char buf[1024];
    std::string req;
    // Read until the header terminator (or the buffer limit -- request
    // lines we care about are tiny).
    while (req.find("\r\n\r\n") == std::string::npos &&
           req.size() < 8 * sizeof buf) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) break;
      req.append(buf, static_cast<std::size_t>(n));
      if (req.find('\n') != std::string::npos &&
          req.compare(0, 4, "GET ") != 0)
        break;  // non-GET: no point reading more
    }
    std::string status = "200 OK";
    std::string content_type = "text/plain; version=0.0.4";
    std::string body;
    const auto path_of = [&]() -> std::string {
      const std::size_t sp1 = req.find(' ');
      if (sp1 == std::string::npos) return "";
      const std::size_t sp2 = req.find(' ', sp1 + 1);
      if (sp2 == std::string::npos) return "";
      return req.substr(sp1 + 1, sp2 - sp1 - 1);
    };
    if (req.compare(0, 4, "GET ") != 0) {
      status = "405 Method Not Allowed";
      body = "only GET is supported\n";
    } else {
      const std::string path = path_of();
      MetricsSnapshot snap;
      {
        std::lock_guard<std::mutex> lock(mu);
        snap = latest;
      }
      const RouteRow* hit = nullptr;
      for (const RouteRow& r : routes())
        if (path == r.path) {
          hit = &r;
          break;
        }
      if (hit != nullptr) {
        content_type = hit->content_type;
        body = hit->handler(*this, snap);
      } else {
        status = "404 Not Found";
        body = route_help();
      }
    }
    std::ostringstream os;
    os << "HTTP/1.0 " << status << "\r\nContent-Type: " << content_type
       << "\r\nContent-Length: " << body.size()
       << "\r\nConnection: close\r\n\r\n"
       << body;
    const std::string resp = os.str();
    std::size_t off = 0;
    while (off < resp.size()) {
      const ssize_t n = ::send(fd, resp.data() + off, resp.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    ::close(fd);
  }

  void accept_loop() {
    while (running.load(std::memory_order_acquire)) {
      const int fd =
          ::accept(listen_fd.load(std::memory_order_acquire), nullptr, nullptr);
      if (fd < 0) {
        if (!running.load(std::memory_order_acquire)) break;
        if (errno == EINTR || errno == ECONNABORTED) continue;
        break;  // listen socket gone
      }
      serve_client(fd);
    }
  }
};

TelemetryServer::TelemetryServer() : impl_(std::make_unique<Impl>()) {}

TelemetryServer::~TelemetryServer() { stop(); }

bool TelemetryServer::start(const TelemetryOptions& opts) {
  Impl& im = *impl_;
  if (im.running.load(std::memory_order_acquire)) {
    errno = EALREADY;
    return false;
  }
  // Shared loopback listener plumbing (util/net.h): SO_REUSEADDR, port 0 =
  // kernel-picked free port, errno preserved across cleanup so callers can
  // print WHY the bind failed (EADDRINUSE when the port is taken).
  std::uint16_t bound_port = 0;
  const int fd = listen_loopback(opts.port, bound_port, 16);
  if (fd < 0) return false;
  im.opts = opts;
  if (im.opts.snapshot_interval_ms == 0) im.opts.snapshot_interval_ms = 1;
  if (im.opts.delta_ring == 0) im.opts.delta_ring = 1;
  im.listen_fd.store(fd, std::memory_order_release);
  im.bound_port = bound_port;
  im.started_at = std::chrono::steady_clock::now();
  im.deltas.clear();
  im.snapshots_taken = 0;
  im.running.store(true, std::memory_order_release);
  im.pump_thread = std::thread([&im] { im.pump(); });
  im.accept_thread = std::thread([&im] { im.accept_loop(); });
  return true;
}

void TelemetryServer::stop() {
  Impl& im = *impl_;
  if (!im.running.exchange(false, std::memory_order_acq_rel)) return;
  // Unblock accept(): shutdown wakes a blocked accept on Linux; the close
  // finishes the job.  The pump is woken through its condition variable.
  const int lfd = im.listen_fd.exchange(-1, std::memory_order_acq_rel);
  if (lfd >= 0) {
    ::shutdown(lfd, SHUT_RDWR);
    ::close(lfd);
  }
  im.pump_cv.notify_all();
  if (im.accept_thread.joinable()) im.accept_thread.join();
  if (im.pump_thread.joinable()) im.pump_thread.join();
  im.bound_port = 0;
}

bool TelemetryServer::running() const noexcept {
  return impl_->running.load(std::memory_order_acquire);
}

std::uint16_t TelemetryServer::port() const noexcept {
  return impl_->bound_port;
}

}  // namespace tmcv::obs

// ---------------------------------------------------------------------------
// C API face (declared in core/c_api.h; defined here so tmcv_core carries
// no obs dependency -- callers of these two must link tmcv_obs)
// ---------------------------------------------------------------------------

namespace {

std::mutex g_c_api_mu;
tmcv::obs::TelemetryServer* g_c_api_server = nullptr;

}  // namespace

extern "C" int tmcv_telemetry_start(int port) {
  if (port < 0 || port > 65535) {
    errno = EINVAL;
    return -1;
  }
  std::lock_guard<std::mutex> lock(g_c_api_mu);
  if (g_c_api_server != nullptr) {
    errno = EALREADY;
    return -1;
  }
  auto* server = new tmcv::obs::TelemetryServer;
  tmcv::obs::TelemetryOptions opts;
  opts.port = static_cast<std::uint16_t>(port);
  if (!server->start(opts)) {
    const int saved = errno;  // EADDRINUSE when the port is taken
    delete server;
    errno = saved;
    return -1;
  }
  g_c_api_server = server;
  return static_cast<int>(server->port());
}

extern "C" void tmcv_telemetry_stop(void) {
  tmcv::obs::TelemetryServer* server = nullptr;
  {
    std::lock_guard<std::mutex> lock(g_c_api_mu);
    server = g_c_api_server;
    g_c_api_server = nullptr;
  }
  if (server != nullptr) {
    server->stop();
    delete server;
  }
}

#include "obs/telemetry_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
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

// /profile payload: every attribution entry, led by aborts_conflict so
// completeness (pair counts sum to it at quiescence) is checkable from one
// response.  attribution_json's object always opens with '{'.
std::string profile_json(const MetricsSnapshot& s) {
  return "{\"aborts_conflict\": " + std::to_string(s.tm.aborts_conflict()) +
         ",\n " + attribution_json(s.attribution, 0).substr(1) + "\n";
}

}  // namespace

struct TelemetryServer::Impl {
  // Atomic: stop() invalidates the fd concurrently with the accept loop's
  // reads (the exchange also keeps a double-stop from closing twice).
  std::atomic<int> listen_fd{-1};
  std::uint16_t bound_port = 0;
  std::atomic<bool> running{false};
  // Written by start() before the accept thread exists; read only by it.
  std::chrono::steady_clock::time_point started_at;
  std::thread accept_thread;

  std::string healthz_json() const {
    const auto uptime = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - started_at);
    return "{\"status\": \"ok\", \"uptime_ms\": " +
           std::to_string(uptime.count()) + "}\n";
  }

  // One row per GET path.  The table generates BOTH the dispatch and the
  // 404 help string, so a route cannot ship without its help text (the
  // old hand-maintained help line drifted twice).  The metric routes take
  // their snapshot here, per request; the others read their own subsystem.
  struct RouteRow {
    const char* path;
    const char* content_type;
    std::string (*handler)(const Impl& im);
  };

  static const std::vector<RouteRow>& routes() {
    static const std::vector<RouteRow> r = {
        {"/metrics", "text/plain; version=0.0.4",
         [](const Impl&) {
           // Watchdog gauges ride the Prometheus export so one scrape
           // target covers counters and alerts.
           return to_prometheus(metrics_snapshot()) + watchdog().prometheus();
         }},
        {"/metrics.json", "application/json",
         [](const Impl&) { return to_json(metrics_snapshot()); }},
        {"/healthz", "application/json",
         [](const Impl& im) { return im.healthz_json(); }},
        {"/profile", "application/json",
         [](const Impl&) { return profile_json(metrics_snapshot()); }},
        {"/history", "text/plain; version=0.0.4",
         [](const Impl&) { return timeseries().to_text(); }},
        {"/history.json", "application/json",
         [](const Impl&) { return timeseries().to_json(); }},
        {"/alerts", "application/json",
         [](const Impl&) { return watchdog().alerts_json(); }},
        {"/threads", "application/json",
         [](const Impl&) { return threads_json(); }},
        {"/waitgraph", "application/json",
         [](const Impl&) { return waitgraph_json(); }},
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
      const RouteRow* hit = nullptr;
      for (const RouteRow& r : routes())
        if (path == r.path) {
          hit = &r;
          break;
        }
      if (hit != nullptr) {
        content_type = hit->content_type;
        body = hit->handler(*this);
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

bool TelemetryServer::start(std::uint16_t port) {
  Impl& im = *impl_;
  if (im.running.load(std::memory_order_acquire)) {
    errno = EALREADY;
    return false;
  }
  // Shared loopback listener plumbing (util/net.h): SO_REUSEADDR, port 0 =
  // kernel-picked free port, errno preserved across cleanup so callers can
  // print WHY the bind failed (EADDRINUSE when the port is taken).
  std::uint16_t bound_port = 0;
  const int fd = listen_loopback(port, bound_port, 16);
  if (fd < 0) return false;
  im.listen_fd.store(fd, std::memory_order_release);
  im.bound_port = bound_port;
  im.started_at = std::chrono::steady_clock::now();
  im.running.store(true, std::memory_order_release);
  im.accept_thread = std::thread([&im] { im.accept_loop(); });
  return true;
}

void TelemetryServer::stop() {
  Impl& im = *impl_;
  if (!im.running.exchange(false, std::memory_order_acq_rel)) return;
  // Unblock accept(): shutdown wakes a blocked accept on Linux; the close
  // finishes the job.
  const int lfd = im.listen_fd.exchange(-1, std::memory_order_acq_rel);
  if (lfd >= 0) {
    ::shutdown(lfd, SHUT_RDWR);
    ::close(lfd);
  }
  if (im.accept_thread.joinable()) im.accept_thread.join();
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
  if (!server->start(static_cast<std::uint16_t>(port))) {
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

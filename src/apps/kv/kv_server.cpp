#include "apps/kv/kv_server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "apps/kv/protocol.h"
#include "apps/sync_policy.h"
#include "apps/task_queue.h"
#include "obs/attribution.h"
#include "obs/metrics.h"
#include "obs/telemetry_server.h"
#include "util/net.h"

namespace tmcv::apps::kv {

namespace {

// Per-connection state.  Exactly one stage owns a Conn at any moment
// (poller while idle, one worker while dispatched), so no lock is needed;
// ownership transfers through the task queue and the poller's inbox.
struct Conn {
  explicit Conn(int fd_in) : fd(fd_in) {}
  int fd;
  std::string in;   // unparsed bytes (partial trailing line)
  std::string out;  // batched responses, flushed once per dispatch
};

// A request line longer than this is protocol abuse; drop the connection
// rather than buffering without bound.
constexpr std::size_t kMaxLine = 64 * 1024;

}  // namespace

struct KvServer::Impl {
  KvOptions opts;
  std::atomic<bool> running{false};
  std::atomic<int> listen_fd{-1};
  int wake_r = -1;  // poller self-pipe
  int wake_w = -1;
  std::uint16_t bound_port = 0;

  std::unique_ptr<tmds::TxLruMap<std::uint64_t, std::uint64_t>> store;
  std::unique_ptr<TaskQueueSet<TxnPolicy>> queue;

  std::thread accept_thread;
  std::thread poller_thread;
  std::vector<std::thread> worker_threads;

  // Connections handed to the poller (new accepts and worker re-arms).
  std::mutex inbox_mu;
  std::vector<Conn*> inbox;

  std::atomic<std::uint64_t> gets{0};
  std::atomic<std::uint64_t> sets{0};
  std::atomic<std::uint64_t> dels{0};
  std::atomic<std::uint64_t> bad{0};
  std::atomic<std::uint64_t> connections{0};
  std::atomic<std::uint64_t> batches{0};

  obs::TelemetryServer telemetry;

  // ---- app-counter scrape (obs/metrics.h) -------------------------------
  static void scrape(void* ctx, std::vector<obs::AppCounter>& out) {
    auto* im = static_cast<Impl*>(ctx);
    const auto r = std::memory_order_relaxed;
    out.push_back({"kv_get", im->gets.load(r)});
    out.push_back({"kv_set", im->sets.load(r)});
    out.push_back({"kv_del", im->dels.load(r)});
    out.push_back({"kv_bad", im->bad.load(r)});
    out.push_back({"kv_connections", im->connections.load(r)});
    out.push_back({"kv_batches", im->batches.load(r)});
    // Store-exact numbers (shard transactions; cheap -- a handful of reads
    // per shard, once per scrape interval).
    const tmds::LruStats s = im->store->stats();
    out.push_back({"kv_hits", s.hits});
    out.push_back({"kv_misses", s.misses});
    out.push_back({"kv_evictions", s.evictions});
    out.push_back({"kv_size", s.size, /*gauge=*/true});
  }

  void wake_poller() {
    const char byte = 0;
    // Nonblocking write; a full pipe already guarantees a pending wakeup.
    [[maybe_unused]] ssize_t n = ::write(wake_w, &byte, 1);
  }

  void enqueue_for_poll(Conn* conn) {
    bool accepted = false;
    {
      std::lock_guard<std::mutex> lock(inbox_mu);
      if (running.load(std::memory_order_acquire)) {
        inbox.push_back(conn);
        accepted = true;
      }
    }
    if (accepted) {
      wake_poller();
    } else {
      ::close(conn->fd);
      delete conn;
    }
  }

  // ---- accept thread ----------------------------------------------------
  void accept_loop() {
    while (running.load(std::memory_order_acquire)) {
      const int fd =
          ::accept(listen_fd.load(std::memory_order_acquire), nullptr,
                   nullptr);
      if (fd < 0) {
        if (!running.load(std::memory_order_acquire)) break;
        if (errno == EINTR || errno == ECONNABORTED) continue;
        break;  // listen socket gone
      }
      set_tcp_nodelay(fd);
      connections.fetch_add(1, std::memory_order_relaxed);
      enqueue_for_poll(new Conn(fd));
    }
  }

  // ---- poller thread -----------------------------------------------------
  void poller_loop() {
    std::vector<Conn*> idle;
    std::vector<pollfd> fds;
    std::size_t rr = 0;  // round-robin dispatch cursor
    while (running.load(std::memory_order_acquire)) {
      fds.clear();
      fds.push_back({wake_r, POLLIN, 0});
      for (Conn* c : idle) fds.push_back({c->fd, POLLIN, 0});
      const int ready = ::poll(fds.data(), fds.size(), -1);
      if (ready < 0) {
        if (errno == EINTR) continue;
        break;
      }
      std::vector<Conn*> incoming;
      if (fds[0].revents != 0) {  // self-pipe: drain + collect the inbox
        char buf[256];
        while (::read(wake_r, buf, sizeof buf) > 0) {
        }
        std::lock_guard<std::mutex> lock(inbox_mu);
        incoming.swap(inbox);
      }
      // Dispatch readable (or hung-up: the worker's recv sees it) conns;
      // compact the survivors in place, THEN append the incoming ones (they
      // were not in this poll set, so the revents indices track `idle`).
      std::size_t w = 0;
      for (std::size_t i = 1; i < fds.size(); ++i) {
        Conn* c = idle[i - 1];
        if (fds[i].revents == 0) {
          idle[w++] = c;
          continue;
        }
        const std::size_t q = rr++ % opts.workers;
        while (!queue->add(q, reinterpret_cast<std::uint64_t>(c)))
          std::this_thread::yield();  // ring momentarily full
      }
      idle.resize(w);
      idle.insert(idle.end(), incoming.begin(), incoming.end());
    }
    for (Conn* c : idle) {
      ::close(c->fd);
      delete c;
    }
  }

  // ---- workers -----------------------------------------------------------
  void worker_loop(std::size_t self) {
    std::uint64_t task = 0;
    while (queue->take(self, task)) {
      process(reinterpret_cast<Conn*>(task));
      queue->complete();
    }
  }

  // Drain readable bytes, run one labeled transaction per request, flush
  // one batched write, then re-arm (or close).
  void process(Conn* conn) {
    batches.fetch_add(1, std::memory_order_relaxed);
    bool closing = false;
    char buf[65536];
    for (;;) {
      const ssize_t n = ::recv(conn->fd, buf, sizeof buf, MSG_DONTWAIT);
      if (n > 0) {
        conn->in.append(buf, static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < sizeof buf) break;
        continue;  // socket may hold more
      }
      if (n == 0) {
        closing = true;  // peer closed
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      closing = true;
      break;
    }

    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = conn->in.find('\n', start);
      if (nl == std::string::npos) break;
      const std::string_view line(conn->in.data() + start, nl - start);
      start = nl + 1;
      if (execute(parse_request(line), conn->out)) {
        closing = true;  // quit
        break;
      }
    }
    conn->in.erase(0, start);
    if (conn->in.size() > kMaxLine) closing = true;

    if (!conn->out.empty()) {
      if (!send_all(conn->fd, conn->out.data(), conn->out.size()))
        closing = true;
      conn->out.clear();
    }

    if (closing || !running.load(std::memory_order_acquire)) {
      ::close(conn->fd);
      delete conn;
    } else {
      enqueue_for_poll(conn);
    }
  }

  // Returns true when the connection should close (quit).
  bool execute(const Request& req, std::string& out) {
    switch (req.kind) {
      case OpKind::kGet: {
        gets.fetch_add(1, std::memory_order_relaxed);
        std::uint64_t value = 0;
        const bool hit = tm::atomically([&] {
          TMCV_TXN_SITE("kv.get");
          return store->get(req.key, value);
        });
        if (hit)
          append_value(out, value);
        else
          append_miss(out);
        return false;
      }
      case OpKind::kSet: {
        sets.fetch_add(1, std::memory_order_relaxed);
        tm::atomically([&] {
          TMCV_TXN_SITE("kv.set");
          store->put(req.key, req.value);
        });
        append_stored(out);
        return false;
      }
      case OpKind::kDel: {
        dels.fetch_add(1, std::memory_order_relaxed);
        const bool erased = tm::atomically([&] {
          TMCV_TXN_SITE("kv.del");
          return store->erase(req.key);
        });
        if (erased)
          append_deleted(out);
        else
          append_miss(out);
        return false;
      }
      case OpKind::kStats: {
        const tmds::LruStats s = store->stats();
        append_stats(out, s.hits, s.misses, s.evictions, s.size);
        return false;
      }
      case OpKind::kQuit:
        return true;
      case OpKind::kBad:
      default:
        bad.fetch_add(1, std::memory_order_relaxed);
        append_bad(out);
        return false;
    }
  }
};

KvServer::KvServer() : impl_(std::make_unique<Impl>()) {}

KvServer::~KvServer() { stop(); }

bool KvServer::start(const KvOptions& options) {
  Impl& im = *impl_;
  if (im.running.load(std::memory_order_acquire)) {
    errno = EALREADY;
    return false;
  }
  if (options.workers == 0 || options.shards == 0 ||
      (options.shards & (options.shards - 1)) != 0 ||
      options.capacity_per_shard == 0 || options.buckets_per_shard == 0 ||
      (options.buckets_per_shard & (options.buckets_per_shard - 1)) != 0 ||
      options.queue_capacity == 0) {
    errno = EINVAL;
    return false;
  }
  const int lfd = listen_loopback(options.port, im.bound_port);
  if (lfd < 0) return false;
  int pipefd[2];
  if (::pipe2(pipefd, O_NONBLOCK | O_CLOEXEC) < 0) {
    const int saved = errno;
    ::close(lfd);
    errno = saved;
    return false;
  }
  im.opts = options;
  im.listen_fd.store(lfd, std::memory_order_release);
  im.wake_r = pipefd[0];
  im.wake_w = pipefd[1];
  im.store = std::make_unique<tmds::TxLruMap<std::uint64_t, std::uint64_t>>(
      options.shards, options.capacity_per_shard, options.buckets_per_shard);
  im.queue = std::make_unique<TaskQueueSet<TxnPolicy>>(
      options.workers, options.queue_capacity);
  im.running.store(true, std::memory_order_release);

  obs::register_app_counters(&Impl::scrape, &im);
  if (options.metrics_port >= 0) {
    if (!im.telemetry.start(
            static_cast<std::uint16_t>(options.metrics_port))) {
      const int saved = errno;
      im.running.store(false, std::memory_order_release);
      obs::unregister_app_counters(&Impl::scrape, &im);
      ::close(lfd);
      im.listen_fd.store(-1, std::memory_order_release);
      ::close(im.wake_r);
      ::close(im.wake_w);
      im.wake_r = im.wake_w = -1;
      im.queue.reset();
      errno = saved;
      return false;
    }
  }

  im.poller_thread = std::thread([&im] { im.poller_loop(); });
  im.accept_thread = std::thread([&im] { im.accept_loop(); });
  im.worker_threads.reserve(options.workers);
  for (unsigned w = 0; w < options.workers; ++w)
    im.worker_threads.emplace_back([&im, w] { im.worker_loop(w); });
  return true;
}

void KvServer::stop() {
  Impl& im = *impl_;
  if (!im.running.exchange(false, std::memory_order_acq_rel)) return;
  obs::unregister_app_counters(&Impl::scrape, &im);
  // Accept thread: invalidate the listen socket under it.
  const int lfd = im.listen_fd.exchange(-1, std::memory_order_acq_rel);
  if (lfd >= 0) {
    ::shutdown(lfd, SHUT_RDWR);
    ::close(lfd);
  }
  if (im.accept_thread.joinable()) im.accept_thread.join();
  // Poller first: wake it; it observes !running, closes its idle set, exits.
  // Until it has exited it may still dispatch a readable connection, so the
  // workers must outlive it to take that task.
  im.wake_poller();
  if (im.poller_thread.joinable()) im.poller_thread.join();
  // Workers: drain queued dispatches (each closes its connection because
  // running is false), then take() returns false.
  im.queue->stop();
  for (auto& t : im.worker_threads)
    if (t.joinable()) t.join();
  im.worker_threads.clear();
  // Connections parked in the inbox (re-armed in the shutdown window).
  {
    std::lock_guard<std::mutex> lock(im.inbox_mu);
    for (Conn* c : im.inbox) {
      ::close(c->fd);
      delete c;
    }
    im.inbox.clear();
  }
  im.telemetry.stop();
  if (im.wake_r >= 0) ::close(im.wake_r);
  if (im.wake_w >= 0) ::close(im.wake_w);
  im.wake_r = im.wake_w = -1;
  im.queue.reset();
  im.bound_port = 0;
  // The store stays alive: quiescent post-run statistics (store_stats())
  // remain readable until the next start() or destruction.
}

bool KvServer::running() const noexcept {
  return impl_->running.load(std::memory_order_acquire);
}

std::uint16_t KvServer::port() const noexcept { return impl_->bound_port; }

std::uint16_t KvServer::metrics_port() const noexcept {
  return impl_->telemetry.port();
}

tmds::LruStats KvServer::store_stats() const {
  if (impl_->store == nullptr) return {};
  return impl_->store->stats();
}

KvCounters KvServer::counters() const noexcept {
  const Impl& im = *impl_;
  const auto r = std::memory_order_relaxed;
  KvCounters c;
  c.gets = im.gets.load(r);
  c.sets = im.sets.load(r);
  c.dels = im.dels.load(r);
  c.bad = im.bad.load(r);
  c.connections = im.connections.load(r);
  c.batches = im.batches.load(r);
  return c;
}

}  // namespace tmcv::apps::kv

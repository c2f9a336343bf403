// KV-cache server: protocol parsing, end-to-end request handling over real
// loopback sockets, pipelined batches, counters, the port-taken failure
// mode, and the embedded telemetry endpoint's app-counter export.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "apps/kv/kv_server.h"
#include "apps/kv/protocol.h"
#include "util/net.h"

namespace tmcv::apps::kv {
namespace {

// ---- protocol.h ----

TEST(KvProtocol, ParsesEveryVerb) {
  EXPECT_EQ(parse_request("get foo").kind, OpKind::kGet);
  EXPECT_EQ(parse_request("set foo 7").kind, OpKind::kSet);
  EXPECT_EQ(parse_request("set foo 7").value, 7u);
  EXPECT_EQ(parse_request("del foo").kind, OpKind::kDel);
  EXPECT_EQ(parse_request("stats").kind, OpKind::kStats);
  EXPECT_EQ(parse_request("quit").kind, OpKind::kQuit);
}

TEST(KvProtocol, KeyHashIsStableAndVerbIndependent) {
  const std::uint64_t h = hash_key("foo");
  EXPECT_EQ(parse_request("get foo").key, h);
  EXPECT_EQ(parse_request("set foo 1").key, h);
  EXPECT_EQ(parse_request("del foo").key, h);
  EXPECT_NE(hash_key("foo"), hash_key("bar"));
}

TEST(KvProtocol, RejectsMalformedLines) {
  EXPECT_EQ(parse_request("").kind, OpKind::kBad);
  EXPECT_EQ(parse_request("get").kind, OpKind::kBad);
  EXPECT_EQ(parse_request("get a b").kind, OpKind::kBad);
  EXPECT_EQ(parse_request("set foo").kind, OpKind::kBad);
  EXPECT_EQ(parse_request("set foo abc").kind, OpKind::kBad);
  EXPECT_EQ(parse_request("set foo 12x").kind, OpKind::kBad);
  EXPECT_EQ(parse_request("frob foo").kind, OpKind::kBad);
}

TEST(KvProtocol, ToleratesCarriageReturn) {
  EXPECT_EQ(parse_request("get foo\r").kind, OpKind::kGet);
  EXPECT_EQ(parse_request("get foo\r").key, hash_key("foo"));
}

TEST(KvProtocol, RendersResponses) {
  std::string out;
  append_value(out, 42);
  append_miss(out);
  append_stored(out);
  append_deleted(out);
  append_bad(out);
  EXPECT_EQ(out, "V 42\nM\nS\nD\nE bad\n");
  out.clear();
  append_stats(out, 1, 2, 3, 4);
  EXPECT_EQ(out, "ST hits=1 misses=2 evictions=3 size=4\n");
}

// ---- end-to-end over loopback ----

class KvClient {
 public:
  explicit KvClient(std::uint16_t port) : fd_(connect_loopback(port)) {}
  ~KvClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  [[nodiscard]] bool ok() const { return fd_ >= 0; }

  // Send `lines` newline-terminated requests; read until `expect` response
  // lines arrive; return them.
  std::vector<std::string> roundtrip(const std::string& lines,
                                     std::size_t expect) {
    EXPECT_TRUE(send_all(fd_, lines.data(), lines.size()));
    std::string raw;
    std::size_t got = 0;
    char buf[4096];
    while (got < expect) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n <= 0) break;
      for (ssize_t i = 0; i < n; ++i)
        if (buf[i] == '\n') ++got;
      raw.append(buf, static_cast<std::size_t>(n));
    }
    std::vector<std::string> out;
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = raw.find('\n', start);
      if (nl == std::string::npos) break;
      out.push_back(raw.substr(start, nl - start));
      start = nl + 1;
    }
    return out;
  }

 private:
  int fd_;
};

KvOptions small_options() {
  KvOptions opts;
  opts.port = 0;
  opts.workers = 2;
  opts.shards = 4;
  opts.capacity_per_shard = 64;
  opts.buckets_per_shard = 64;
  return opts;
}

TEST(KvServerTest, ServesProtocolEndToEnd) {
  KvServer server;
  ASSERT_TRUE(server.start(small_options()));
  ASSERT_GT(server.port(), 0);  // ephemeral port resolved
  KvClient client(server.port());
  ASSERT_TRUE(client.ok());
  const auto r = client.roundtrip(
      "set a 1\nset b 2\nget a\nget b\nget c\ndel a\nget a\nbogus\n", 8);
  ASSERT_EQ(r.size(), 8u);
  EXPECT_EQ(r[0], "S");
  EXPECT_EQ(r[1], "S");
  EXPECT_EQ(r[2], "V 1");
  EXPECT_EQ(r[3], "V 2");
  EXPECT_EQ(r[4], "M");
  EXPECT_EQ(r[5], "D");
  EXPECT_EQ(r[6], "M");
  EXPECT_EQ(r[7], "E bad");
  const KvCounters c = server.counters();
  EXPECT_EQ(c.gets, 4u);
  EXPECT_EQ(c.sets, 2u);
  EXPECT_EQ(c.dels, 1u);
  EXPECT_EQ(c.bad, 1u);
  EXPECT_EQ(c.connections, 1u);
  const tmds::LruStats st = server.store_stats();
  EXPECT_EQ(st.hits, 2u);    // get a, get b
  EXPECT_EQ(st.misses, 2u);  // get c, get a after del
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(KvServerTest, StatsCommandReflectsStore) {
  KvServer server;
  ASSERT_TRUE(server.start(small_options()));
  KvClient client(server.port());
  ASSERT_TRUE(client.ok());
  auto r = client.roundtrip("set x 1\nget x\nget y\nstats\n", 4);
  ASSERT_EQ(r.size(), 4u);
  EXPECT_EQ(r[3], "ST hits=1 misses=1 evictions=0 size=1");
  server.stop();
}

TEST(KvServerTest, PipelinedWindowAnswersInOrder) {
  KvServer server;
  ASSERT_TRUE(server.start(small_options()));
  KvClient client(server.port());
  ASSERT_TRUE(client.ok());
  std::string batch;
  constexpr int kN = 200;
  for (int i = 0; i < kN; ++i)
    batch += "set k" + std::to_string(i) + " " + std::to_string(i) + "\n";
  for (int i = 0; i < kN; ++i) batch += "get k" + std::to_string(i) + "\n";
  const auto r = client.roundtrip(batch, 2 * kN);
  ASSERT_EQ(r.size(), static_cast<std::size_t>(2 * kN));
  // Ordering is per-connection FIFO: responses line up with requests even
  // though the batch spans many worker dispatches.
  bool all_stored = true;
  for (int i = 0; i < kN; ++i) all_stored = all_stored && r[i] == "S";
  EXPECT_TRUE(all_stored);
  int hits = 0;
  for (int i = 0; i < kN; ++i) {
    const std::string& resp = r[static_cast<std::size_t>(kN + i)];
    if (resp == "V " + std::to_string(i)) ++hits;
  }
  // The store holds 4 shards x 64 = 256 >= 200 entries: every get hits.
  EXPECT_EQ(hits, kN);
  server.stop();
}

TEST(KvServerTest, ConcurrentClientsSeeConsistentCounters) {
  KvServer server;
  ASSERT_TRUE(server.start(small_options()));
  constexpr int kClients = 4;
  constexpr int kOpsPer = 100;
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      KvClient client(server.port());
      ASSERT_TRUE(client.ok());
      std::string batch;
      for (int i = 0; i < kOpsPer; ++i) {
        // Appends only: GCC 12 at -O3 flags `"literal" + std::string` with
        // a false -Wrestrict, which breaks -Werror builds.
        batch += i % 2 == 0 ? "set c" : "get c";
        batch += std::to_string(c);
        batch += 'k';
        batch += std::to_string(i % 16);
        batch += i % 2 == 0 ? " 1\n" : "\n";
      }
      const auto r = client.roundtrip(batch, kOpsPer);
      EXPECT_EQ(r.size(), static_cast<std::size_t>(kOpsPer));
    });
  }
  for (auto& t : threads) t.join();
  const KvCounters counters = server.counters();
  EXPECT_EQ(counters.gets + counters.sets,
            static_cast<std::uint64_t>(kClients) * kOpsPer);
  EXPECT_EQ(counters.connections, static_cast<std::uint64_t>(kClients));
  // Transactional store counters agree with the request tally exactly.
  const tmds::LruStats st = server.store_stats();
  EXPECT_EQ(st.hits + st.misses, counters.gets);
  server.stop();
}

TEST(KvServerTest, QuitClosesTheConnection) {
  KvServer server;
  ASSERT_TRUE(server.start(small_options()));
  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  const char req[] = "set a 1\nquit\nget a\n";
  ASSERT_TRUE(send_all(fd, req, sizeof req - 1));
  // One "S" response, then EOF -- the get after quit is never answered.
  std::string raw;
  char buf[256];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  EXPECT_EQ(raw, "S\n");
  ::close(fd);
  server.stop();
}

TEST(KvServerTest, TakenPortFailsLoudly) {
  KvServer first;
  KvOptions opts = small_options();
  ASSERT_TRUE(first.start(opts));
  KvServer second;
  opts.port = first.port();  // now occupied
  errno = 0;
  EXPECT_FALSE(second.start(opts));
  EXPECT_EQ(errno, EADDRINUSE);
  EXPECT_FALSE(second.running());
  first.stop();
}

TEST(KvServerTest, RejectsInvalidOptions) {
  KvServer server;
  KvOptions opts = small_options();
  opts.shards = 3;  // not a power of two
  errno = 0;
  EXPECT_FALSE(server.start(opts));
  EXPECT_EQ(errno, EINVAL);
  opts = small_options();
  opts.workers = 0;
  EXPECT_FALSE(server.start(opts));
}

TEST(KvServerTest, MetricsEndpointExportsAppCounters) {
  KvServer server;
  KvOptions opts = small_options();
  opts.metrics_port = 0;
  ASSERT_TRUE(server.start(opts));
  ASSERT_GT(server.metrics_port(), 0);
  {
    KvClient client(server.port());
    ASSERT_TRUE(client.ok());
    client.roundtrip("set a 1\nget a\n", 2);
  }
  // Raw HTTP GET against the embedded telemetry endpoint: the route
  // snapshots on arrival, so the first response carries the counters.
  const int fd = connect_loopback(server.metrics_port());
  ASSERT_GE(fd, 0);
  const char req[] = "GET /metrics.json HTTP/1.0\r\n\r\n";
  ASSERT_TRUE(send_all(fd, req, sizeof req - 1));
  std::string body;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    body.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(body.find("\"app\""), std::string::npos);
  EXPECT_NE(body.find("\"kv_get\": 1"), std::string::npos);
  EXPECT_NE(body.find("\"kv_set\": 1"), std::string::npos);
  EXPECT_NE(body.find("\"kv_hits\": 1"), std::string::npos);
  server.stop();
}

}  // namespace
}  // namespace tmcv::apps::kv

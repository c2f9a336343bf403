// tmcv_bench: the one program of the repo benchmark.  Runs ONE workload in
// this process: build the world (timed, repeated, median kept), a fixed
// warmup, then a measured window of consecutive 1-s windows.  Afterwards it
// checks the outputs and writes every metric as JSON.
//
//   tmcv_bench --workload NAME [--seed S] [--warmup-s 2] [--seconds 10]
//              [--trace PATH] --json OUT
//
// Workloads (benchmark/README.md records why each one exists):
//   pipe_txn         producer -> worker -> sink over two
//                    BoundedQueue<TxnPolicy>, closed loop
//   pipe_lock_paced  the same pipeline over BoundedQueue<TmCvPolicy>, open
//                    loop at a fixed 20k items/s
//   txn_mix          TxSkipList bank, 3 threads, 80% 16-key range scans and
//                    20% two-account transfers, no condition variables
//   kv               embedded KvServer, 2 pipelined client connections
//
// Latency is stamped with steady_clock, never TscClock: the TSC's 2 ms
// calibration drifts by hundreds of microseconds over a 10 s run.  The
// inputs are a pure function of --seed; no workload calibrates itself
// against the host.  With --trace, spans are recorded here only (around the
// calls into each layer) for 1 op in 16, into per-thread buffers, and
// written as a Chrome trace at exit.
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "apps/bounded_queue.h"
#include "apps/kv/kv_server.h"
#include "apps/sync_policy.h"
#include "core/condvar.h"
#include "sync/spin.h"
#include "sync/wake_stats.h"
#include "sync/waitpoint.h"
#include "tm/api.h"
#include "tm/stats.h"
#include "tmds/tx_skiplist.h"
#include "util/cpu.h"
#include "util/net.h"
#include "util/rng.h"
#include "util/timing.h"
#include "util/zipf.h"

namespace {

constexpr std::uint64_t kSecondNs = 1'000'000'000;

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void sleep_until_ns(std::uint64_t t) {
  std::this_thread::sleep_until(
      std::chrono::steady_clock::time_point(std::chrono::nanoseconds(t)));
}

std::uint64_t clock_ns(clockid_t id) noexcept {
  timespec ts{};
  if (::clock_gettime(id, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * kSecondNs +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// CPU time consumed so far by a live thread.
std::uint64_t thread_cpu_ns(std::thread& t) noexcept {
  clockid_t id;
  if (::pthread_getcpuclockid(t.native_handle(), &id) != 0) return 0;
  return clock_ns(id);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) noexcept {
  return tmcv::SplitMix64(seed * 0x9e3779b97f4a7c15ull + stream).next();
}

// Owner-written counter: a relaxed load and store, no read-modify-write,
// read by the sampler thread at window boundaries.
void bump(std::atomic<std::uint64_t>& c, std::uint64_t n = 1) noexcept {
  c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// The measured window and the latency samples taken in it
// ---------------------------------------------------------------------------

// `count` consecutive 1-s windows from `start`.  Samples stamped outside
// them (warmup, drain) are dropped.
struct MeasureWindow {
  std::atomic<std::uint64_t> start{0};  // 0 until the warmup ends
  int count = 0;

  [[nodiscard]] int index(std::uint64_t t) const noexcept {
    const std::uint64_t s = start.load(std::memory_order_relaxed);
    if (s == 0 || t < s) return -1;
    const std::uint64_t w = (t - s) / kSecondNs;
    return w < static_cast<std::uint64_t>(count) ? static_cast<int>(w) : -1;
  }
};

MeasureWindow g_window;

struct Weighted {
  double value;
  double weight;
};

// One thread's latency samples, a fixed-size reservoir (Algorithm R) per
// 1-s window.  Memory does not grow with throughput, so max_rss_mb stays a
// property of the system under test; the buffer is touched at construction,
// which is part of set-up.
class LatencyRecorder {
 public:
  static constexpr std::uint64_t kReservoir = 8192;

  LatencyRecorder(int windows, std::uint64_t seed)
      : values_(static_cast<std::size_t>(windows) * kReservoir),
        seen_(static_cast<std::size_t>(windows)),
        rng_(seed) {}

  void record(int window, std::uint64_t ns) noexcept {
    if (window < 0) return;
    const auto w = static_cast<std::size_t>(window);
    const std::uint64_t n = seen_[w]++;
    const std::uint64_t slot = n < kReservoir ? n : rng_.next_below(n + 1);
    if (slot < kReservoir)
      values_[w * kReservoir + slot] =
          static_cast<std::uint32_t>(std::min<std::uint64_t>(ns, UINT32_MAX));
  }

  // Read after the owning thread has been joined.
  [[nodiscard]] std::uint64_t samples() const noexcept {
    std::uint64_t n = 0;
    for (const std::uint64_t s : seen_) n += s;
    return n;
  }

  // Append window w's samples, each weighted by how many it stands for.
  void collect(int window, std::vector<Weighted>& out) const {
    const auto w = static_cast<std::size_t>(window);
    const std::uint64_t kept = std::min(seen_[w], kReservoir);
    if (kept == 0) return;
    const double weight =
        static_cast<double>(seen_[w]) / static_cast<double>(kept);
    for (std::uint64_t i = 0; i < kept; ++i)
      out.push_back({static_cast<double>(values_[w * kReservoir + i]), weight});
  }

 private:
  std::vector<std::uint32_t> values_;
  std::vector<std::uint64_t> seen_;
  tmcv::Xoshiro256 rng_;
};

double weighted_quantile(std::vector<Weighted>& s, double q) {
  std::sort(s.begin(), s.end(), [](const Weighted& a, const Weighted& b) {
    return a.value < b.value;
  });
  double total = 0;
  for (const Weighted& x : s) total += x.weight;
  double acc = 0;
  for (const Weighted& x : s) {
    acc += x.weight;
    if (acc >= q * total) return x.value;
  }
  return s.empty() ? 0.0 : s.back().value;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double quantile_of(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto i =
      static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  return static_cast<double>(v[i]);
}

// Per-window percentiles, in microseconds.  The reported value is their
// median: one stalled second (a neighbour's burst on the host) moves one
// window, not the result.  A window needs 1000 kept samples so its p99 has
// ten beyond it.
struct LatencySummary {
  std::vector<double> p50_us;
  std::vector<double> p99_us;
  std::uint64_t samples = 0;
};

LatencySummary summarize(const std::vector<const LatencyRecorder*>& recs) {
  LatencySummary out;
  for (int w = 0; w < g_window.count; ++w) {
    std::vector<Weighted> s;
    for (const LatencyRecorder* r : recs) r->collect(w, s);
    if (s.size() < 1000) continue;
    out.p50_us.push_back(weighted_quantile(s, 0.50) / 1e3);
    out.p99_us.push_back(weighted_quantile(s, 0.99) / 1e3);
  }
  for (const LatencyRecorder* r : recs) out.samples += r->samples();
  return out;
}

// ---------------------------------------------------------------------------
// Spans (--trace)
// ---------------------------------------------------------------------------

enum class SpanName : std::uint8_t {
  kItem,
  kPush,
  kPop,
  kWork,
  kTxnScan,
  kTxnTransfer,
  kKvWindow,
  kKvSend,
  kKvRecv,
  kNone,
};
constexpr std::size_t kSpanNames = static_cast<std::size_t>(SpanName::kNone);

constexpr const char* kSpanLabel[kSpanNames] = {
    "item",   "apps.push", "apps.pop",  "work",    "tm.txn",
    "tm.txn", "kv.window", "kv.send",   "kv.recv"};

struct Span {
  std::uint64_t op;
  std::uint64_t start;
  std::uint64_t end;
  SpanName name;
  SpanName parent;  // kNone for a root
  std::uint16_t tid;
};

// Records 1 op in 16 (by op id) inside the measured window.  Each thread
// appends to its own buffer, reserved once and never reallocated; a full
// buffer drops and counts.
class Tracer {
 public:
  static constexpr std::size_t kCapacity = 1 << 18;  // spans per thread
  static constexpr std::size_t kWriteLimit = 20000;  // per thread, to file

  bool on = false;  // set before any workload thread starts

  [[nodiscard]] bool sampled(std::uint64_t op, std::uint64_t t) const noexcept {
    return on && (op & 15) == 0 && g_window.index(t) >= 0;
  }

  void record(SpanName name, SpanName parent, std::uint64_t op,
              std::uint64_t start, std::uint64_t end) {
    thread_local Buffer* buf = nullptr;
    if (buf == nullptr) buf = attach();
    if (buf->spans.size() == kCapacity) {
      ++buf->dropped;
      return;
    }
    buf->spans.push_back({op, start, end, name, parent, buf->tid});
  }

  // Everything recorded; call after every recording thread has joined.
  [[nodiscard]] std::vector<Span> all() const {
    std::vector<Span> out;
    for (const auto& b : buffers_)
      out.insert(out.end(), b->spans.begin(), b->spans.end());
    return out;
  }

  [[nodiscard]] std::uint64_t dropped() const {
    std::uint64_t n = 0;
    for (const auto& b : buffers_) n += b->dropped;
    return n;
  }

  // Chrome trace-event format ("X" complete events, microseconds from the
  // start of the measured window).
  bool write(const std::string& path, std::uint64_t origin) const {
    std::ofstream f(path);
    if (!f) return false;
    f << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    char line[256];
    for (const auto& b : buffers_) {
      const std::size_t n = std::min(b->spans.size(), kWriteLimit);
      for (std::size_t i = 0; i < n; ++i) {
        const Span& s = b->spans[i];
        const char* kind = s.name == SpanName::kTxnScan       ? "scan"
                           : s.name == SpanName::kTxnTransfer ? "transfer"
                                                              : "";
        std::snprintf(
            line, sizeof line,
            "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
            "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%" PRIu64
            ",\"parent\":\"%s\",\"kind\":\"%s\"}}",
            first ? "" : ",", kSpanLabel[static_cast<int>(s.name)],
            static_cast<unsigned>(s.tid),
            static_cast<double>(s.start - origin) / 1e3,
            static_cast<double>(s.end - s.start) / 1e3, s.op,
            s.parent == SpanName::kNone
                ? ""
                : kSpanLabel[static_cast<int>(s.parent)],
            kind);
        f << line;
        first = false;
      }
    }
    f << "\n]}\n";
    return static_cast<bool>(f);
  }

 private:
  struct Buffer {
    std::vector<Span> spans;
    std::uint64_t dropped = 0;
    std::uint16_t tid = 0;
  };

  Buffer* attach() {
    auto b = std::make_unique<Buffer>();
    b->spans.reserve(kCapacity);
    std::lock_guard<std::mutex> lock(mu_);
    b->tid = static_cast<std::uint16_t>(buffers_.size() + 1);
    buffers_.push_back(std::move(b));
    return buffers_.back().get();
  }

  std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

Tracer g_tracer;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Check> checks;
};

// Counters only the kv workload's application layers keep.
struct AppCounters {
  std::uint64_t kv_requests = 0;
  std::uint64_t kv_batches = 0;
  std::uint64_t lru_hits = 0;
  std::uint64_t lru_misses = 0;
  std::uint64_t lru_evictions = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual void start() = 0;
  // Stop generating load, drain, join every thread.  Idempotent; also valid
  // on a world that was never started.
  virtual void stop() = 0;
  // Completed ops so far (items delivered, transactions, KV replies).
  [[nodiscard]] virtual std::uint64_t ops() const = 0;
  // CPU time of the system's own threads (load generators excluded).
  [[nodiscard]] virtual std::uint64_t system_cpu_ns() = 0;
  [[nodiscard]] virtual std::vector<const LatencyRecorder*> latency()
      const = 0;
  [[nodiscard]] virtual const LatencyRecorder* generator_lag() const {
    return nullptr;
  }
  [[nodiscard]] virtual AppCounters app_counters() const { return {}; }
  // After stop(): what was attempted, what failed, and the output checks.
  virtual Outcome finish() = 0;
};

// Threads spawn blocked on `go`, so spawning is part of set-up; they leave
// once `stop` is set.
struct Gate {
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};

  void wait() { go.wait(false, std::memory_order_acquire); }
  void open() {
    go.store(true, std::memory_order_release);
    go.notify_all();
  }
  [[nodiscard]] bool stopping() const noexcept {
    return stop.load(std::memory_order_relaxed);
  }
};

void join_all(Gate& gate, std::vector<std::thread>& threads) {
  gate.stop.store(true, std::memory_order_relaxed);
  gate.open();
  for (std::thread& t : threads)
    if (t.joinable()) t.join();
}

// ---- pipelines -------------------------------------------------------------

// Pin each stage to a CPU of its own, leaving the first allowed CPU to the
// sampler thread and interrupts.  Left alone, the guest scheduler decides
// per process whether to pack the mostly idle stages of the paced pipeline
// onto one CPU or spread them, and the two placements differ twofold in
// wake latency, so results came out bimodal.  With too few CPUs the stages
// stay unpinned (the fingerprint records the CPU count).
void pin_one_per_cpu(std::vector<std::thread>& threads) {
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  if (cpus.size() < threads.size() + 1) return;
  for (std::size_t i = 0; i < threads.size(); ++i) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[i + 1], &one);
    ::pthread_setaffinity_np(threads[i].native_handle(), sizeof one, &one);
  }
}

// The worker's fixed per-item compute: `rounds` steps of a 64-bit LCG.  The
// verifier composes the same steps into one affine map, so checking an item
// costs O(1) however many rounds the worker runs.
constexpr std::uint64_t kLcgMul = 6364136223846793005ull;
constexpr std::uint64_t kLcgInc = 1442695040888963407ull;
constexpr std::uint32_t kWorkRounds = 200;

std::uint64_t lcg_rounds(std::uint64_t x, std::uint32_t rounds) noexcept {
  for (std::uint32_t i = 0; i < rounds; ++i) x = x * kLcgMul + kLcgInc;
  return x;
}

struct Affine {
  std::uint64_t mul = 1;
  std::uint64_t add = 0;
};

Affine lcg_closed_form(std::uint32_t rounds) noexcept {
  Affine f;
  for (std::uint32_t i = 0; i < rounds; ++i) {
    f.mul *= kLcgMul;
    f.add = f.add * kLcgMul + kLcgInc;
  }
  return f;
}

// Items travel as 64-bit words: q1 carries the item id, q2 the id and the
// low bits of the worker's digest.
constexpr int kDigestBits = 24;
constexpr std::uint64_t kDigestMask = (1ull << kDigestBits) - 1;

struct Tally {
  std::uint64_t count = 0;
  std::uint64_t id_sum = 0;
  std::uint64_t id_xor = 0;
  std::uint64_t digest_sum = 0;
  std::uint64_t digest_xor = 0;

  void add(std::uint64_t id, std::uint64_t digest) noexcept {
    ++count;
    id_sum += id;
    id_xor ^= id;
    digest_sum += digest;
    digest_xor ^= digest;
  }

  bool operator==(const Tally&) const = default;
};

// Producer -> worker -> sink, one thread each, over two bounded queues of
// capacity 8.  rate_per_s == 0 is a closed loop (the producer pushes as fast
// as the pipeline accepts); otherwise an open loop whose items are timed
// from when they were due.
template <typename Policy>
class Pipeline final : public Workload {
 public:
  Pipeline(std::uint64_t seed, double rate_per_s)
      : input_mix_(mix_seed(seed, 0)),
        period_ns_(rate_per_s > 0 ? static_cast<std::uint64_t>(1e9 / rate_per_s)
                                  : 0),
        rounds_(kWorkRounds),
        sink_latency_(g_window.count, mix_seed(seed, 1)),
        gen_lag_(g_window.count, mix_seed(seed, 2)) {
    threads_.emplace_back([this] { produce(); });
    threads_.emplace_back([this] { transform(); });
    threads_.emplace_back([this] { drain(); });
    pin_one_per_cpu(threads_);
  }

  ~Pipeline() override { stop(); }

  void start() override { gate_.open(); }
  void stop() override { join_all(gate_, threads_); }

  [[nodiscard]] std::uint64_t ops() const override {
    return delivered_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t system_cpu_ns() override {
    // The paced generator stands in for the outside world; it is not part
    // of the system under test.
    std::uint64_t ns = thread_cpu_ns(threads_[1]) + thread_cpu_ns(threads_[2]);
    if (period_ns_ == 0) ns += thread_cpu_ns(threads_[0]);
    return ns;
  }

  [[nodiscard]] std::vector<const LatencyRecorder*> latency() const override {
    return {&sink_latency_};
  }

  [[nodiscard]] const LatencyRecorder* generator_lag() const override {
    return period_ns_ != 0 ? &gen_lag_ : nullptr;
  }

  Outcome finish() override {
    const std::uint64_t produced = produced_.load(std::memory_order_relaxed);
    const Affine f = lcg_closed_form(rounds_);
    Tally expect;
    for (std::uint64_t id = 0; id < produced; ++id)
      expect.add(id, (f.mul * (id ^ input_mix_) + f.add) & kDigestMask);
    Outcome out;
    out.attempted = produced;
    const bool exact = expect == got_;
    const std::uint64_t gap = produced > got_.count ? produced - got_.count
                                                    : got_.count - produced;
    out.failed = exact ? 0 : std::max<std::uint64_t>(1, gap);
    char detail[160];
    std::snprintf(detail, sizeof detail,
                  "produced %" PRIu64 ", delivered %" PRIu64
                  ", id sum/xor and digest sum/xor %s",
                  produced, got_.count, exact ? "match" : "DIFFER");
    out.checks.push_back({"exactly_once", exact, detail});
    return out;
  }

 private:
  static constexpr std::size_t kCapacity = 8;
  // Birth stamps by id; far more slots than items can be in flight (two
  // queues of 8 plus one item per stage).
  static constexpr std::size_t kBornSlots = 1024;

  void produce() {
    gate_.wait();
    if (period_ns_ != 0) ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    const std::uint64_t t0 = now_ns();
    std::uint64_t id = 0;
    for (; !gate_.stopping(); ++id) {
      std::uint64_t born = now_ns();
      if (period_ns_ != 0) {
        const std::uint64_t due = t0 + id * period_ns_;
        if (born < due) {
          sleep_until_ns(due);
          born = now_ns();
        }
        gen_lag_.record(g_window.index(born), born - due);
        born = due;
      }
      born_[id % kBornSlots].store(born, std::memory_order_relaxed);
      const std::uint64_t t_push = now_ns();
      if (!q1_.push(id)) break;
      if (g_tracer.sampled(id, t_push))
        g_tracer.record(SpanName::kPush, SpanName::kItem, id, t_push, now_ns());
      produced_.store(id + 1, std::memory_order_relaxed);
    }
    q1_.close();
  }

  void transform() {
    gate_.wait();
    for (;;) {
      const std::uint64_t t_pop = g_tracer.on ? now_ns() : 0;
      std::uint64_t id = 0;
      if (!q1_.pop(id)) break;
      const bool traced = g_tracer.sampled(id, t_pop);
      const std::uint64_t t_work = traced ? now_ns() : 0;
      const std::uint64_t digest = lcg_rounds(id ^ input_mix_, rounds_);
      const std::uint64_t t_push = traced ? now_ns() : 0;
      q2_.push((id << kDigestBits) | (digest & kDigestMask));
      if (traced) {
        g_tracer.record(SpanName::kPop, SpanName::kItem, id, t_pop, t_work);
        g_tracer.record(SpanName::kWork, SpanName::kItem, id, t_work, t_push);
        g_tracer.record(SpanName::kPush, SpanName::kItem, id, t_push, now_ns());
      }
    }
    q2_.close();
  }

  void drain() {
    gate_.wait();
    for (;;) {
      const std::uint64_t t_pop = g_tracer.on ? now_ns() : 0;
      std::uint64_t word = 0;
      if (!q2_.pop(word)) break;
      const std::uint64_t now = now_ns();
      const std::uint64_t id = word >> kDigestBits;
      got_.add(id, word & kDigestMask);
      const std::uint64_t born =
          born_[id % kBornSlots].load(std::memory_order_relaxed);
      sink_latency_.record(g_window.index(now), now - born);
      bump(delivered_);
      if (g_tracer.sampled(id, t_pop)) {
        g_tracer.record(SpanName::kPop, SpanName::kItem, id, t_pop, now);
        g_tracer.record(SpanName::kItem, SpanName::kNone, id, born, now);
      }
    }
  }

  const std::uint64_t input_mix_;
  const std::uint64_t period_ns_;
  const std::uint32_t rounds_;  // a member, so the loop bound is not folded
  Gate gate_;
  tmcv::apps::BoundedQueue<Policy> q1_{kCapacity};
  tmcv::apps::BoundedQueue<Policy> q2_{kCapacity};
  std::atomic<std::uint64_t> born_[kBornSlots]{};
  alignas(64) std::atomic<std::uint64_t> produced_{0};
  alignas(64) std::atomic<std::uint64_t> delivered_{0};
  Tally got_;  // sink thread only
  LatencyRecorder sink_latency_;
  LatencyRecorder gen_lag_;
  std::vector<std::thread> threads_;  // last: the threads use every member
};

// ---- txn_mix ---------------------------------------------------------------

// A bank of 16384 accounts in a transactional skiplist.  Account popularity
// is zipfian (theta 0.8) over a seed-dependent permutation of the keys, so
// the hot accounts are scattered through the key space.
class TxnMix final : public Workload {
 public:
  static constexpr std::uint64_t kAccounts = 16384;
  static constexpr std::uint64_t kInitialBalance = 1000;
  static constexpr std::uint64_t kScanLength = 16;
  static constexpr unsigned kThreads = 3;

  explicit TxnMix(std::uint64_t seed) : zipf_(kAccounts, 0.8) {
    perm_.resize(kAccounts);
    for (std::uint64_t i = 0; i < kAccounts; ++i) perm_[i] = i;
    tmcv::Xoshiro256 rng(mix_seed(seed, 0));
    for (std::uint64_t i = kAccounts - 1; i > 0; --i)
      std::swap(perm_[i], perm_[rng.next_below(i + 1)]);
    for (std::uint64_t k = 0; k < kAccounts; ++k)
      accounts_.insert(k, kInitialBalance);
    for (unsigned t = 0; t < kThreads; ++t)
      workers_.push_back(std::make_unique<Worker>(mix_seed(seed, 10 + t)));
    for (unsigned t = 0; t < kThreads; ++t)
      threads_.emplace_back([this, t] { run(t); });
  }

  ~TxnMix() override { stop(); }

  void start() override { gate_.open(); }
  void stop() override { join_all(gate_, threads_); }

  [[nodiscard]] std::uint64_t ops() const override {
    std::uint64_t n = 0;
    for (const auto& w : workers_) n += w->ops.load(std::memory_order_relaxed);
    return n;
  }

  [[nodiscard]] std::uint64_t system_cpu_ns() override {
    std::uint64_t ns = 0;
    for (std::thread& t : threads_) ns += thread_cpu_ns(t);
    return ns;
  }

  [[nodiscard]] std::vector<const LatencyRecorder*> latency() const override {
    std::vector<const LatencyRecorder*> out;
    for (const auto& w : workers_) out.push_back(&w->latency);
    return out;
  }

  Outcome finish() override {
    Outcome out;
    for (const auto& w : workers_) {
      out.attempted += w->ops.load(std::memory_order_relaxed);
      out.failed += w->failed.load(std::memory_order_relaxed);
    }
    std::uint64_t total = 0;
    const std::size_t visited = accounts_.range(
        0, kAccounts, [&](std::uint64_t, std::uint64_t v) {
          total += v;
          return true;
        });
    const bool conserved =
        visited == kAccounts && total == kAccounts * kInitialBalance;
    char detail[160];
    std::snprintf(detail, sizeof detail,
                  "%zu accounts, balance total %" PRIu64 " (expected %" PRIu64
                  ")",
                  visited, total, kAccounts * kInitialBalance);
    out.checks.push_back({"conservation", conserved, detail});
    std::snprintf(detail, sizeof detail,
                  "%" PRIu64 " scans short or transfers missing an account",
                  out.failed);
    out.checks.push_back({"every_op_ok", out.failed == 0, detail});
    if (!conserved) out.failed = std::max(out.failed, std::uint64_t{1});
    return out;
  }

 private:
  struct alignas(64) Worker {
    explicit Worker(std::uint64_t seed)
        : latency(g_window.count, seed ^ 1), rng(seed) {}
    std::atomic<std::uint64_t> ops{0};
    std::atomic<std::uint64_t> failed{0};
    LatencyRecorder latency;
    tmcv::Xoshiro256 rng;
  };

  std::uint64_t pick(tmcv::Xoshiro256& rng) const { return perm_[zipf_(rng)]; }

  // Read-only: visit a run of 16 consecutive accounts.  A short run means
  // the structure lost an account.
  bool scan(tmcv::Xoshiro256& rng) {
    const std::uint64_t lo = std::min(pick(rng), kAccounts - kScanLength);
    const std::size_t n =
        accounts_.range(lo, lo + kScanLength,
                        [](std::uint64_t, std::uint64_t) { return true; });
    return n == kScanLength;
  }

  // Move 1..10 units between two accounts if the source can cover it.
  bool transfer(tmcv::Xoshiro256& rng) {
    const std::uint64_t from = pick(rng);
    std::uint64_t to = pick(rng);
    if (to == from) to = (from + 1) % kAccounts;
    const std::uint64_t amount = 1 + rng.next_below(10);
    return tmcv::tm::atomically([&] {
      std::uint64_t a = 0;
      std::uint64_t b = 0;
      if (!accounts_.get(from, a) || !accounts_.get(to, b)) return false;
      if (a >= amount) {
        accounts_.put(from, a - amount);
        accounts_.put(to, b + amount);
      }
      return true;
    });
  }

  void run(unsigned t) {
    Worker& w = *workers_[t];
    gate_.wait();
    for (std::uint64_t n = 0; !gate_.stopping(); ++n) {
      // Each op is one atomically() call; 1 in 16 is timed.
      const bool timed = (n & 15) == 0;
      const std::uint64_t t0 = timed ? now_ns() : 0;
      const bool is_scan = w.rng.next_below(10) < 8;
      const bool ok = is_scan ? scan(w.rng) : transfer(w.rng);
      if (timed) {
        const std::uint64_t t1 = now_ns();
        w.latency.record(g_window.index(t1), t1 - t0);
        const std::uint64_t op = (std::uint64_t{t} << 40) | n;
        if (g_tracer.sampled(op, t0))
          g_tracer.record(
              is_scan ? SpanName::kTxnScan : SpanName::kTxnTransfer,
              SpanName::kNone, op, t0, t1);
      }
      bump(w.ops);
      if (!ok) bump(w.failed);
    }
  }

  tmcv::tmds::TxSkipList<std::uint64_t, std::uint64_t> accounts_;
  std::vector<std::uint64_t> perm_;
  const tmcv::ZipfDistribution zipf_;
  Gate gate_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
};

// ---- kv --------------------------------------------------------------------

// Reads newline-terminated reply lines from a socket.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  // The next line without its '\n'; false on EOF, error or an overlong
  // line.  The view is valid until the next call.
  bool next(std::string_view& line) {
    for (;;) {
      const char* nl = static_cast<const char*>(
          std::memchr(buf_ + begin_, '\n', end_ - begin_));
      if (nl != nullptr) {
        line = std::string_view(buf_ + begin_,
                                static_cast<std::size_t>(nl - (buf_ + begin_)));
        begin_ = static_cast<std::size_t>(nl - buf_) + 1;
        return true;
      }
      if (begin_ > 0) {
        std::memmove(buf_, buf_ + begin_, end_ - begin_);
        end_ -= begin_;
        begin_ = 0;
      }
      if (end_ == sizeof buf_) return false;
      const ssize_t n = ::recv(fd_, buf_ + end_, sizeof buf_ - end_, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      end_ += static_cast<std::size_t>(n);
    }
  }

 private:
  int fd_;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
  char buf_[16384];
};

// Values carry their key in the high half, so a reply can be checked
// against the request it answers.
std::uint64_t kv_value(std::uint64_t key, std::uint64_t tick) noexcept {
  return (key << 32) | (tick & 0xffffffffull);
}

bool kv_reply_ok(bool is_get, std::uint64_t key, std::string_view line) {
  if (!is_get) return line == "S";
  if (line == "M") return true;
  if (line.size() < 3 || line.substr(0, 2) != "V ") return false;
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(line.data() + 2,
                                         line.data() + line.size(), v);
  return ec == std::errc{} && ptr == line.data() + line.size() &&
         (v >> 32) == key;
}

// An embedded KvServer (2 workers, 8 shards of 4096 entries, so half of the
// 65536 keys fit) prefilled with every key, serving 2 client threads.  Each
// client owns one connection and sends pipelined windows of 16 requests:
// zipfian keys (theta 0.9), 90% get and 10% set.
class KvWorkload final : public Workload {
 public:
  static constexpr std::size_t kKeys = 65536;
  static constexpr std::size_t kWindow = 16;
  static constexpr unsigned kClients = 2;

  explicit KvWorkload(std::uint64_t seed) : zipf_(kKeys, 0.9) {
    names_.reserve(kKeys);
    for (std::size_t i = 0; i < kKeys; ++i)
      names_.push_back(std::string(1, 'k').append(std::to_string(i)));
    tmcv::apps::kv::KvOptions opts;
    opts.workers = 2;
    opts.shards = 8;
    opts.capacity_per_shard = 4096;
    opts.buckets_per_shard = 4096;
    if (!server_.start(opts))
      throw std::runtime_error(std::string("kv server start: ") +
                               std::strerror(errno));
    prefill();
    for (unsigned c = 0; c < kClients; ++c) {
      auto cl = std::make_unique<Client>(mix_seed(seed, 10 + c));
      cl->fd = connect(server_.port());
      clients_.push_back(std::move(cl));
    }
    for (unsigned c = 0; c < kClients; ++c)
      threads_.emplace_back([this, c] { run(c); });
  }

  ~KvWorkload() override {
    stop();
    for (const auto& c : clients_)
      if (c->fd >= 0) ::close(c->fd);
  }

  void start() override { gate_.open(); }

  void stop() override {
    join_all(gate_, threads_);
    server_.stop();
  }

  [[nodiscard]] std::uint64_t ops() const override {
    std::uint64_t n = 0;
    for (const auto& c : clients_)
      n += c->replies.load(std::memory_order_relaxed);
    return n;
  }

  [[nodiscard]] std::uint64_t system_cpu_ns() override {
    std::uint64_t ns = clock_ns(CLOCK_PROCESS_CPUTIME_ID);
    for (std::thread& t : threads_) ns -= std::min(ns, thread_cpu_ns(t));
    return ns;
  }

  [[nodiscard]] std::vector<const LatencyRecorder*> latency() const override {
    std::vector<const LatencyRecorder*> out;
    for (const auto& c : clients_) out.push_back(&c->rtt);
    return out;
  }

  [[nodiscard]] AppCounters app_counters() const override {
    const tmcv::apps::kv::KvCounters k = server_.counters();
    const tmcv::tmds::LruStats s = server_.store_stats();
    return {k.gets + k.sets + k.dels, k.batches, s.hits, s.misses, s.evictions};
  }

  Outcome finish() override {
    Outcome out;
    std::uint64_t replies = 0;
    std::uint64_t bad = 0;
    bool io_ok = true;
    for (const auto& c : clients_) {
      out.attempted += c->requests;
      replies += c->replies.load(std::memory_order_relaxed);
      bad += c->bad;
      io_ok = io_ok && c->io_ok;
    }
    out.failed = bad + (out.attempted - std::min(out.attempted, replies));
    char detail[160];
    std::snprintf(detail, sizeof detail,
                  "%" PRIu64 " requests, %" PRIu64 " replies, %" PRIu64
                  " wrong or error replies",
                  out.attempted, replies, bad);
    out.checks.push_back(
        {"replies", io_ok && replies == out.attempted && bad == 0, detail});
    // Quiescent now (stop() joined the server), so both counts are exact.
    const tmcv::tmds::LruStats s = server_.store_stats();
    const std::uint64_t gets = server_.counters().gets;
    std::snprintf(detail, sizeof detail,
                  "hits %" PRIu64 " + misses %" PRIu64 " vs gets %" PRIu64,
                  s.hits, s.misses, gets);
    const bool books = s.hits + s.misses == gets;
    out.checks.push_back({"store_stats", books, detail});
    if (!books) out.failed = std::max(out.failed, std::uint64_t{1});
    return out;
  }

 private:
  struct alignas(64) Client {
    explicit Client(std::uint64_t seed)
        : rtt(g_window.count, seed ^ 1), rng(seed) {}
    int fd = -1;
    std::atomic<std::uint64_t> replies{0};
    std::uint64_t requests = 0;  // owner thread until joined
    std::uint64_t bad = 0;
    bool io_ok = true;
    LatencyRecorder rtt;
    tmcv::Xoshiro256 rng;
  };

  static int connect(std::uint16_t port) {
    const int fd = tmcv::connect_loopback(port);
    if (fd < 0)
      throw std::runtime_error(std::string("kv connect: ") +
                               std::strerror(errno));
    tmcv::set_tcp_nodelay(fd);
    return fd;
  }

  // Store every key, coldest first, so the hot keys are resident.
  void prefill() {
    const int fd = connect(server_.port());
    LineReader reader(fd);
    std::string req;
    bool ok = true;
    constexpr std::size_t kBatch = 256;
    for (std::size_t hi = kKeys; hi > 0 && ok; hi -= kBatch) {
      req.clear();
      for (std::size_t k = hi; k > hi - kBatch; --k) {
        req += "set ";
        req += names_[k - 1];
        req += ' ';
        req += std::to_string(kv_value(k - 1, 0));
        req += '\n';
      }
      ok = tmcv::send_all(fd, req.data(), req.size());
      std::string_view line;
      for (std::size_t i = 0; i < kBatch && ok; ++i)
        ok = reader.next(line) && line == "S";
    }
    ::close(fd);
    if (!ok) throw std::runtime_error("kv prefill failed");
  }

  void run(unsigned id) {
    Client& c = *clients_[id];
    LineReader reader(c.fd);
    std::string req;
    req.reserve(kWindow * 32);
    bool is_get[kWindow];
    std::uint64_t key[kWindow];
    std::uint64_t tick = 0;
    gate_.wait();
    for (std::uint64_t win = 0; !gate_.stopping(); ++win) {
      const std::uint64_t t0 = now_ns();
      req.clear();
      for (std::size_t i = 0; i < kWindow; ++i) {
        key[i] = zipf_(c.rng);
        is_get[i] = c.rng.next_below(10) != 0;
        req += is_get[i] ? "get " : "set ";
        req += names_[key[i]];
        if (!is_get[i]) {
          req += ' ';
          req += std::to_string(kv_value(key[i], ++tick));
        }
        req += '\n';
      }
      const std::uint64_t t_send = now_ns();
      if (!tmcv::send_all(c.fd, req.data(), req.size())) {
        c.io_ok = false;
        break;
      }
      c.requests += kWindow;
      const std::uint64_t t_recv = now_ns();
      std::size_t got = 0;
      std::string_view line;
      for (; got < kWindow; ++got) {
        if (!reader.next(line)) break;
        if (!kv_reply_ok(is_get[got], key[got], line)) ++c.bad;
      }
      const std::uint64_t t_end = now_ns();
      bump(c.replies, got);
      if (got < kWindow) {
        c.io_ok = false;
        break;
      }
      c.rtt.record(g_window.index(t_end), t_end - t_send);
      const std::uint64_t op = (std::uint64_t{id} << 40) | win;
      if (g_tracer.sampled(op, t0)) {
        g_tracer.record(SpanName::kKvSend, SpanName::kKvWindow, op, t_send,
                        t_recv);
        g_tracer.record(SpanName::kKvRecv, SpanName::kKvWindow, op, t_recv,
                        t_end);
        g_tracer.record(SpanName::kKvWindow, SpanName::kNone, op, t0, t_end);
      }
    }
  }

  std::vector<std::string> names_;
  const tmcv::ZipfDistribution zipf_;
  tmcv::apps::kv::KvServer server_;
  Gate gate_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<std::thread> threads_;
};

// ---------------------------------------------------------------------------
// Per-layer snapshots
// ---------------------------------------------------------------------------

struct LayerSnapshot {
  tmcv::tm::Stats tm;
  tmcv::CondVarStats cv;
  tmcv::WakeStats wake;
  std::uint64_t stall_ticks[4] = {};  // condvar, semaphore, orec, serial
  AppCounters app;
};

LayerSnapshot take_snapshot(const Workload& w) {
  static std::uint64_t cells[tmcv::kWaitReasonCount][tmcv::kStallSiteSlots];
  LayerSnapshot s;
  s.tm = tmcv::tm::stats_snapshot();
  s.cv = tmcv::condvar_stats_aggregate();
  s.wake = tmcv::wake_stats_snapshot();
  (void)tmcv::snapshot_stall(cells);
  const auto reason_ticks = [&](tmcv::WaitReason r) {
    std::uint64_t t = 0;
    for (const std::uint64_t c : cells[static_cast<std::size_t>(r)]) t += c;
    return t;
  };
  s.stall_ticks[0] = reason_ticks(tmcv::WaitReason::kCondVar);
  s.stall_ticks[1] = reason_ticks(tmcv::WaitReason::kSemaphore);
  s.stall_ticks[2] = reason_ticks(tmcv::WaitReason::kOrec);
  s.stall_ticks[3] = reason_ticks(tmcv::WaitReason::kSerialQuiesce) +
                     reason_ticks(tmcv::WaitReason::kSerialLock);
  s.app = w.app_counters();
  return s;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void append_metrics(std::string& j, const char* key,
                    const std::vector<Metric>& ms) {
  j += "  \"";
  j += key;
  j += "\": {";
  char buf[256];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof buf,
                  "%s\n    \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ",", ms[i].name.c_str(), ms[i].value,
                  ms[i].unit);
    j += buf;
  }
  j += "\n  }";
}

void append_array(std::string& j, const char* key,
                  const std::vector<double>& v) {
  j += "  \"";
  j += key;
  j += "\": [";
  char buf[64];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.17g", i == 0 ? "" : ", ", v[i]);
    j += buf;
  }
  j += "]";
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

// Peak resident set of this process image, from VmHWM.  Not getrusage:
// ru_maxrss survives execve, so it would report the launcher's peak when
// that was larger.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::atof(line.c_str() + 6) / 1024.0;
  return 0.0;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// Span statistics: per-layer latency percentiles, and how each root span's
// time divides among the layers.  Every instant of a root is given to the
// child span covering it that started last, or to the root itself when no
// child covers it (queue residency in a pipeline item, request rendering in
// a KV window).  A consumer's pop that was already waiting when the item
// was pushed thus only gets the time after the push returned, and the
// shares of one root add up to exactly 1.  The reported share is the mean
// over roots, so the few items caught behind a host stall of milliseconds
// do not outweigh all the others.
void span_metrics(const std::vector<Span>& spans, std::vector<Metric>& out) {
  const auto idx = [](SpanName n) { return static_cast<std::size_t>(n); };
  std::vector<std::uint64_t> dur[kSpanNames];
  for (const Span& s : spans) dur[idx(s.name)].push_back(s.end - s.start);
  const auto pct = [&](SpanName n, double q) {
    return quantile_of(dur[idx(n)], q) / 1e3;
  };
  out.push_back({"apps.push_us_p50", pct(SpanName::kPush, 0.50), "us"});
  out.push_back({"apps.push_us_p99", pct(SpanName::kPush, 0.99), "us"});
  out.push_back({"apps.pop_us_p50", pct(SpanName::kPop, 0.50), "us"});
  out.push_back({"apps.pop_us_p99", pct(SpanName::kPop, 0.99), "us"});
  out.push_back({"tm.scan_txn_us_p50", pct(SpanName::kTxnScan, 0.50), "us"});
  out.push_back({"tm.scan_txn_us_p99", pct(SpanName::kTxnScan, 0.99), "us"});
  out.push_back(
      {"tm.transfer_txn_us_p50", pct(SpanName::kTxnTransfer, 0.50), "us"});
  out.push_back(
      {"tm.transfer_txn_us_p99", pct(SpanName::kTxnTransfer, 0.99), "us"});
  out.push_back({"kv.send_us_p50", pct(SpanName::kKvSend, 0.50), "us"});
  out.push_back({"kv.recv_wait_us_p50", pct(SpanName::kKvRecv, 0.50), "us"});

  std::map<std::uint64_t, const Span*> roots;
  for (const Span& s : spans)
    if (s.parent == SpanName::kNone) roots[s.op] = &s;
  std::map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans)
    if (s.parent != SpanName::kNone && roots.count(s.op) != 0)
      children[s.op].push_back(&s);
  double root_count[kSpanNames] = {};
  double owned[kSpanNames] = {};
  for (const auto& [op, root] : roots) {
    if (root->end == root->start) continue;
    root_count[idx(root->name)] += 1;
    const auto length = static_cast<double>(root->end - root->start);
    const std::vector<const Span*>& kids = children[op];
    std::vector<std::uint64_t> cuts = {root->start, root->end};
    for (const Span* c : kids)
      for (const std::uint64_t t : {c->start, c->end})
        if (t > root->start && t < root->end) cuts.push_back(t);
    std::sort(cuts.begin(), cuts.end());
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      const Span* owner = root;
      for (const Span* c : kids)
        if (c->start <= cuts[i] && c->end >= cuts[i + 1] &&
            (owner == root || c->start > owner->start))
          owner = c;
      owned[idx(owner->name)] +=
          static_cast<double>(cuts[i + 1] - cuts[i]) / length;
    }
  }
  const auto share = [&](SpanName n, SpanName root) {
    return ratio(owned[idx(n)], root_count[idx(root)]);
  };
  const SpanName item = SpanName::kItem;
  const SpanName window = SpanName::kKvWindow;
  out.push_back({"self.item", share(item, item), "frac"});
  out.push_back({"self.apps.push", share(SpanName::kPush, item), "frac"});
  out.push_back({"self.apps.pop", share(SpanName::kPop, item), "frac"});
  out.push_back({"self.work", share(SpanName::kWork, item), "frac"});
  out.push_back({"self.kv.window", share(window, window), "frac"});
  out.push_back({"self.kv.send", share(SpanName::kKvSend, window), "frac"});
  out.push_back({"self.kv.recv", share(SpanName::kKvRecv, window), "frac"});
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

struct Config {
  std::string workload;
  std::uint64_t seed = 42;
  double warmup_s = 2.0;
  int seconds = 10;
  std::string trace_path;
  std::string json_path;
};

constexpr const char* kWorkloads[] = {"pipe_txn", "pipe_lock_paced",
                                      "txn_mix", "kv"};

std::unique_ptr<Workload> make_workload(const Config& cfg) {
  if (cfg.workload == "pipe_txn")
    return std::make_unique<Pipeline<tmcv::apps::TxnPolicy>>(cfg.seed, 0.0);
  if (cfg.workload == "pipe_lock_paced")
    return std::make_unique<Pipeline<tmcv::apps::TmCvPolicy>>(cfg.seed,
                                                              20000.0);
  if (cfg.workload == "txn_mix") return std::make_unique<TxnMix>(cfg.seed);
  return std::make_unique<KvWorkload>(cfg.seed);
}

bool parse_args(int argc, char** argv, Config& cfg) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = v;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--warmup-s") {
      cfg.warmup_s = std::atof(v);
    } else if (flag == "--seconds") {
      cfg.seconds = std::atoi(v);
    } else if (flag == "--trace") {
      cfg.trace_path = v;
    } else if (flag == "--json") {
      cfg.json_path = v;
    } else {
      return false;
    }
  }
  const bool known =
      std::find(std::begin(kWorkloads), std::end(kWorkloads),
                std::string_view(cfg.workload)) != std::end(kWorkloads);
  return argc % 2 == 1 && known && cfg.seconds >= 1 && cfg.seconds <= 600 &&
         cfg.warmup_s >= 0 && !cfg.json_path.empty();
}

// Set-up is timed several times and the median kept: build the world
// (data, server start and prefill, thread spawn).  The measured world is
// the process's first, so its memory holds nothing left over from other
// builds.  More builds follow its teardown, back to back, until there are
// 20 and they have taken 1 s: on a shared host the speed of one thread
// changes every few hundred milliseconds, and a second of builds samples
// that speed rather than catching one stretch of it.
constexpr std::size_t kMinSetups = 20;
constexpr std::size_t kMaxSetups = 5000;
constexpr double kSetupBudgetS = 1.0;

std::unique_ptr<Workload> timed_build(const Config& cfg,
                                      std::vector<double>& setups) {
  const std::uint64_t t0 = now_ns();
  std::unique_ptr<Workload> w = make_workload(cfg);
  setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  if (!parse_args(argc, argv, cfg)) {
    std::fprintf(stderr,
                 "usage: %s --workload pipe_txn|pipe_lock_paced|txn_mix|kv\n"
                 "          [--seed S] [--warmup-s 2] [--seconds 10]\n"
                 "          [--trace TRACE.json] --json OUT.json\n",
                 argv[0]);
    return 2;
  }
  g_window.count = cfg.seconds;
  g_tracer.on = !cfg.trace_path.empty();
  // The stall table is in TSC ticks; calibrate before anything is timed.
  const double ns_per_tick = tmcv::TscClock::ns_per_tick();
  // The spin budget is fixed on first use from the calling thread's CPU
  // affinity.  Fix it here, before pinned stage threads exist: a thread
  // pinned to one CPU would read "single CPU" and turn spinning off for the
  // whole process.
  const unsigned spin_budget = tmcv::spin_budget();

  std::unique_ptr<Workload> world;
  std::vector<double> setups;
  try {
    world = timed_build(cfg, setups);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tmcv_bench: set-up failed: %s\n", e.what());
    return 1;
  }

  world->start();
  sleep_until_ns(now_ns() + static_cast<std::uint64_t>(cfg.warmup_s * 1e9));

  // Throughput and CPU per op are taken per 1-s window and reported as
  // medians across windows, like the latency percentiles.
  const LayerSnapshot before = take_snapshot(*world);
  std::uint64_t prev_cpu = world->system_cpu_ns();
  std::uint64_t prev_ops = world->ops();
  const std::uint64_t start = now_ns();
  const std::uint64_t first_ops = prev_ops;
  g_window.start.store(start, std::memory_order_relaxed);
  std::vector<double> rates;
  std::vector<double> cpu_per_op;
  std::uint64_t prev_t = start;
  for (int w = 1; w <= cfg.seconds; ++w) {
    sleep_until_ns(start + static_cast<std::uint64_t>(w) * kSecondNs);
    const std::uint64_t t = now_ns();
    const std::uint64_t n = world->ops();
    const std::uint64_t cpu = world->system_cpu_ns();
    rates.push_back(static_cast<double>(n - prev_ops) * 1e9 /
                    static_cast<double>(t - prev_t));
    cpu_per_op.push_back(ratio(static_cast<double>(cpu - prev_cpu) / 1e3,
                               static_cast<double>(n - prev_ops)));
    prev_ops = n;
    prev_t = t;
    prev_cpu = cpu;
  }
  const LayerSnapshot after = take_snapshot(*world);
  const double rss_mb = peak_rss_mb();
  const double secs = static_cast<double>(prev_t - start) / 1e9;
  const auto ops = static_cast<double>(prev_ops - first_ops);

  world->stop();
  const Outcome outcome = world->finish();
  const LatencySummary lat = summarize(world->latency());
  double gen_lag_p99 = 0;
  if (const LatencyRecorder* lag = world->generator_lag())
    gen_lag_p99 = median(summarize({lag}).p99_us);
  world.reset();

  try {
    double spent = setups.front();
    while (setups.size() < kMinSetups ||
           (spent < kSetupBudgetS && setups.size() < kMaxSetups)) {
      timed_build(cfg, setups).reset();
      spent += setups.back();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tmcv_bench: set-up failed: %s\n", e.what());
    return 1;
  }

  bool correct = true;
  for (const Check& c : outcome.checks) correct = correct && c.ok;

  std::vector<Metric> e2e = {
      {"ops_per_s", median(rates), "1/s"},
      {"op_p50_us", median(lat.p50_us), "us"},
      {"op_p99_us", median(lat.p99_us), "us"},
      {"op_samples", static_cast<double>(lat.samples), "count"},
      {"cpu_us_per_op", median(cpu_per_op), "us"},
      {"setup_s", median(setups), "s"},
      {"max_rss_mb", rss_mb, "MB"},
      {"failed_frac",
       ratio(static_cast<double>(outcome.failed),
             static_cast<double>(outcome.attempted)),
       "frac"},
  };

  tmcv::tm::Stats tm = after.tm;
  tm -= before.tm;
  tmcv::CondVarStats cv = after.cv;
  cv -= before.cv;
  tmcv::WakeStats wake = after.wake;
  wake -= before.wake;
  const auto d = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  const auto stall = [&](int i) {
    return d(after.stall_ticks[i], before.stall_ticks[i]) * ns_per_tick /
           1e6 / secs;
  };
  const double commits = static_cast<double>(tm.commits);
  const double aborts = static_cast<double>(tm.aborts);
  const double notifies = static_cast<double>(
      cv.notify_one_calls + cv.notify_all_calls + cv.notify_best_calls);
  const double hits = d(after.app.lru_hits, before.app.lru_hits);
  const double misses = d(after.app.lru_misses, before.app.lru_misses);
  std::vector<Metric> layers = {
      {"tm.commits_per_op", ratio(commits, ops), "count/op"},
      {"tm.aborts_per_commit", ratio(aborts, commits), "count/op"},
      {"tm.commit_frac", ratio(commits, commits + aborts), "frac"},
      {"tm.extensions_per_commit",
       ratio(static_cast<double>(tm.extensions), commits), "count/op"},
      {"tm.reads_per_commit", ratio(static_cast<double>(tm.reads), commits),
       "count/op"},
      {"tm.writes_per_commit", ratio(static_cast<double>(tm.writes), commits),
       "count/op"},
      {"tm.serial_fallbacks", static_cast<double>(tm.serial_fallbacks),
       "count"},
      {"tm.cm_backoffs_per_commit",
       ratio(static_cast<double>(tm.cm_backoffs), commits), "count/op"},
      {"core.waits_per_op", ratio(static_cast<double>(cv.waits), ops),
       "count/op"},
      {"core.notifies_per_op", ratio(notifies, ops), "count/op"},
      {"core.lost_notify_frac",
       ratio(static_cast<double>(cv.lost_notifies), notifies), "frac"},
      {"sync.parks_per_op", ratio(static_cast<double>(wake.parks), ops),
       "count/op"},
      {"sync.park_avoid_frac",
       ratio(static_cast<double>(wake.parks_avoided),
             static_cast<double>(wake.spin_attempts)),
       "frac"},
      {"sync.spin_rounds_per_op",
       ratio(static_cast<double>(wake.spin_rounds), ops), "count/op"},
      {"sync.handoffs_per_op", ratio(static_cast<double>(wake.handoffs), ops),
       "count/op"},
      {"sync.requeues_per_op", ratio(static_cast<double>(wake.requeues), ops),
       "count/op"},
      {"sync.stall_ms_per_s.condvar", stall(0), "ms/s"},
      {"sync.stall_ms_per_s.semaphore", stall(1), "ms/s"},
      {"sync.stall_ms_per_s.orec", stall(2), "ms/s"},
      {"sync.stall_ms_per_s.serial", stall(3), "ms/s"},
      {"kv.reqs_per_batch",
       ratio(d(after.app.kv_requests, before.app.kv_requests),
             d(after.app.kv_batches, before.app.kv_batches)),
       "count"},
      {"tmds.lru_hit_frac", ratio(hits, hits + misses), "frac"},
      {"tmds.evictions_per_op",
       ratio(d(after.app.lru_evictions, before.app.lru_evictions), ops),
       "count/op"},
      {"bench.gen_lag_us_p99", gen_lag_p99, "us"},
  };
  if (g_tracer.on) span_metrics(g_tracer.all(), layers);

  std::string j = "{\n";
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "  \"workload\": \"%s\",\n  \"seed\": %" PRIu64
      ",\n  \"seconds\": %d,\n  \"warmup_s\": %.17g,\n  \"traced\": %s,\n"
      "  \"correct\": %s,\n  \"attempted\": %" PRIu64
      ",\n  \"failed\": %" PRIu64 ",\n  \"spans_dropped\": %" PRIu64 ",\n",
      cfg.workload.c_str(), cfg.seed, cfg.seconds, cfg.warmup_s,
      g_tracer.on ? "true" : "false", correct ? "true" : "false",
      outcome.attempted, outcome.failed, g_tracer.dropped());
  j += buf;
  std::snprintf(
      buf, sizeof buf,
      "  \"fingerprint\": {\"nproc\": %u, \"effective_cpus\": %u, "
      "\"cpu_model\": \"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"tmcv_trace\": %d, \"spin_budget\": %u, \"tm_backend\": \"%s\"},\n",
      std::thread::hardware_concurrency(), tmcv::effective_cpus(),
      json_escape(cpu_model()).c_str(), json_escape(compiler()).c_str(),
      TMCV_BENCH_BUILD_TYPE, TMCV_TRACE, spin_budget,
      tmcv::tm::backend_label(tmcv::tm::default_backend()));
  j += buf;
  j += "  \"checks\": [";
  for (std::size_t i = 0; i < outcome.checks.size(); ++i) {
    const Check& c = outcome.checks[i];
    j += i == 0 ? "\n" : ",\n";
    j += "    {\"name\": \"" + c.name + "\", \"ok\": " +
         (c.ok ? "true" : "false") + ", \"detail\": \"" +
         json_escape(c.detail) + "\"}";
  }
  j += "\n  ],\n";
  append_array(j, "window_ops_per_s", rates);
  j += ",\n";
  append_array(j, "window_cpu_us_per_op", cpu_per_op);
  j += ",\n";
  append_array(j, "window_op_p50_us", lat.p50_us);
  j += ",\n";
  append_array(j, "window_op_p99_us", lat.p99_us);
  j += ",\n";
  append_array(j, "setup_samples_s", setups);
  j += ",\n";
  append_metrics(j, "metrics", e2e);
  j += ",\n";
  append_metrics(j, "per_layer", layers);
  j += "\n}\n";

  std::FILE* f = std::fopen(cfg.json_path.c_str(), "w");
  if (f == nullptr || std::fwrite(j.data(), 1, j.size(), f) != j.size() ||
      std::fclose(f) != 0) {
    std::perror("tmcv_bench: writing --json");
    return 1;
  }
  if (g_tracer.on && !g_tracer.write(cfg.trace_path, start)) {
    std::perror("tmcv_bench: writing --trace");
    return 1;
  }
  for (const Check& c : outcome.checks)
    if (!c.ok)
      std::fprintf(stderr, "tmcv_bench: check %s FAILED: %s\n", c.name.c_str(),
                   c.detail.c_str());
  return correct ? 0 : 3;
}

#include "obs/timeseries.h"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <sstream>
#include <thread>

#include "core/condvar.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/waitgraph.h"
#include "sync/wake_stats.h"
#include "tm/stats.h"

namespace tmcv::obs {

namespace {

using Clock = std::chrono::steady_clock;

// Single source of truth for the counter fields: JSON keys, table columns,
// and tools/tmcv_top.py all read these names.
template <typename Fn>
constexpr void for_each_ts_field(Fn&& fn) {
  fn("commits", &TsSample::commits);
  fn("aborts", &TsSample::aborts);
  fn("aborts_conflict", &TsSample::aborts_conflict);
  fn("aborts_capacity", &TsSample::aborts_capacity);
  fn("serial_fallbacks", &TsSample::serial_fallbacks);
  fn("cm_serial_escalations", &TsSample::cm_serial_escalations);
  fn("cv_waits", &TsSample::cv_waits);
  fn("notifies", &TsSample::notifies);
  fn("threads_woken", &TsSample::threads_woken);
  fn("lost_notifies", &TsSample::lost_notifies);
  fn("parks", &TsSample::parks);
  fn("parks_avoided", &TsSample::parks_avoided);
  fn("trace_dropped", &TsSample::trace_dropped);
  fn("kv_gets", &TsSample::kv_gets);
  fn("kv_sets", &TsSample::kv_sets);
  fn("kv_hits", &TsSample::kv_hits);
  fn("kv_misses", &TsSample::kv_misses);
  fn("kv_evictions", &TsSample::kv_evictions);
  fn("notify_wake_p99_ns", &TsSample::notify_wake_p99_ns);
  fn("txn_commit_p99_ns", &TsSample::txn_commit_p99_ns);
  fn("cv_wait_p99_ns", &TsSample::cv_wait_p99_ns);
  fn("stall_ns", &TsSample::stall_ns);
  fn("stall_top_reason", &TsSample::stall_top_reason);
  fn("max_wait_age_ms", &TsSample::max_wait_age_ms);
  fn("stuck_age_ms", &TsSample::stuck_age_ms);
  fn("wait_cycles", &TsSample::wait_cycles);
  fn("threads_waiting", &TsSample::threads_waiting);
}

}  // namespace

struct TimeSeriesRecorder::Impl {
  mutable std::mutex mu;

  // Configuration (fixed between start() and stop()).
  TimeSeriesOptions opts;
  bool started = false;

  // The ring: preallocated at start(), indexed modulo depth.
  std::vector<TsSample> ring;
  std::uint64_t taken = 0;  // samples appended since start()
  Clock::time_point t0;
  Clock::time_point last_tick;

  // Previous-tick baselines (the "delta" in delta snapshot).  The three
  // histogram baselines are the big ones (~7.4 KiB each); members, not
  // per-tick temporaries, so steady state never touches the heap.
  tm::Stats prev_tm;
  CondVarStats prev_cv;
  WakeStats prev_wake;
  std::uint64_t prev_trace_dropped = 0;
  HistogramSnapshot prev_notify_wake;
  HistogramSnapshot prev_txn_commit;
  HistogramSnapshot prev_cv_wait;

  // Reusable app-counter scratch: cleared each tick, capacity retained (the
  // KV counter names all fit in SSO, so refills are allocation-free too).
  std::vector<AppCounter> scratch_app;

  // Observer (watchdog).  Guarded by mu for the set; invoked OUTSIDE mu so
  // an observer may read the recorder (flight dump) without deadlocking.
  TsObserverFn observer = nullptr;
  void* observer_ctx = nullptr;

  // Sampler thread machinery.
  std::thread sampler;
  std::condition_variable stop_cv;
  std::mutex stop_mu;
  bool stopping = false;

  void capture_baselines() {
    prev_tm = tm::stats_snapshot();
    prev_cv = condvar_stats_aggregate();
    prev_wake = wake_stats_snapshot();
    prev_trace_dropped = trace_counts().dropped;
    prev_notify_wake = hist_notify_wake().snapshot();
    prev_txn_commit = hist_txn_commit().snapshot();
    prev_cv_wait = hist_cv_wait().snapshot();
  }

  // Scrape + diff + append.  Returns a copy of the appended sample for the
  // observer call (made by the caller after dropping mu).
  TsSample tick_locked() {
    const Clock::time_point now = Clock::now();

    TsSample s;
    s.t_ms = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(now - t0)
            .count());
    s.interval_ms = static_cast<std::uint32_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(now - last_tick)
            .count());
    s.seq = taken;
    last_tick = now;

    // Runtime counters: one family delta each vs the previous tick (-=
    // clamps per field, so a mid-run stats_reset() yields 0).
    const auto delta = [](auto& prev, const auto& cur) {
      auto d = cur;
      d -= prev;
      prev = cur;
      return d;
    };
    const tm::Stats dtm = delta(prev_tm, tm::stats_snapshot());
    const CondVarStats dcv = delta(prev_cv, condvar_stats_aggregate());
    const WakeStats dwake = delta(prev_wake, wake_stats_snapshot());
    const std::uint64_t cur_dropped = trace_counts().dropped;

    const auto d = [](std::uint64_t now_v, std::uint64_t prev_v) {
      return now_v > prev_v ? now_v - prev_v : 0;  // clamped, like -=
    };

    s.commits = dtm.commits;
    s.aborts = dtm.aborts;
    s.aborts_conflict = dtm.aborts_conflict();
    s.aborts_capacity = dtm.aborts_capacity();
    s.serial_fallbacks = dtm.serial_fallbacks;
    s.cm_serial_escalations = dtm.cm_serial_escalations;

    s.cv_waits = dcv.waits;
    s.notifies =
        dcv.notify_one_calls + dcv.notify_all_calls + dcv.notify_best_calls;
    s.threads_woken = dcv.threads_woken;
    s.lost_notifies = dcv.lost_notifies;

    s.parks = dwake.parks;
    s.parks_avoided = dwake.parks_avoided;

    s.trace_dropped = d(cur_dropped, prev_trace_dropped);

    // App counters: scrape into the retained scratch, pick out the KV set.
    scratch_app.clear();
    scrape_app_counters_into(scratch_app);
    for (const AppCounter& ac : scratch_app) {
      std::uint64_t TsSample::*field = nullptr;
      if (ac.name == "kv_get") field = &TsSample::kv_gets;
      else if (ac.name == "kv_set") field = &TsSample::kv_sets;
      else if (ac.name == "kv_hits") field = &TsSample::kv_hits;
      else if (ac.name == "kv_misses") field = &TsSample::kv_misses;
      else if (ac.name == "kv_evictions") field = &TsSample::kv_evictions;
      if (field != nullptr) s.*field = ac.value;
    }
    // The KV fields scraped above are cumulative; diff against the previous
    // appended sample's baselines held in prev_kv_*.
    s.kv_gets = d(s.kv_gets, prev_kv[0]);
    s.kv_sets = d(s.kv_sets, prev_kv[1]);
    s.kv_hits = d(s.kv_hits, prev_kv[2]);
    s.kv_misses = d(s.kv_misses, prev_kv[3]);
    s.kv_evictions = d(s.kv_evictions, prev_kv[4]);
    prev_kv[0] += s.kv_gets;
    prev_kv[1] += s.kv_sets;
    prev_kv[2] += s.kv_hits;
    prev_kv[3] += s.kv_misses;
    prev_kv[4] += s.kv_evictions;

    // Window percentiles: cumulative histogram minus the previous baseline.
    // ~7.4 KiB stack copies, no heap.
    HistogramSnapshot w = hist_notify_wake().snapshot();
    const HistogramSnapshot cur_nw = w;
    w -= prev_notify_wake;
    s.notify_wake_p99_ns = w.percentile(0.99);
    prev_notify_wake = cur_nw;

    w = hist_txn_commit().snapshot();
    const HistogramSnapshot cur_tc = w;
    w -= prev_txn_commit;
    s.txn_commit_p99_ns = w.percentile(0.99);
    prev_txn_commit = cur_tc;

    w = hist_cv_wait().snapshot();
    const HistogramSnapshot cur_cw = w;
    w -= prev_cv_wait;
    s.cv_wait_p99_ns = w.percentile(0.99);
    prev_cv_wait = cur_cw;

    // Wait-point probe: the recorder is the probe's single periodic
    // caller, so lost-wakeup episode windows advance exactly once per
    // tick.  Allocation-free, like everything else here.
    const WaitProbe wp = waitgraph_probe();
    s.stall_ns = wp.stall_ns;
    s.stall_top_reason = wp.stall_top_reason;
    s.max_wait_age_ms = wp.max_wait_age_ms;
    s.stuck_age_ms = wp.stuck_age_ms;
    s.wait_cycles = wp.wait_cycles;
    s.threads_waiting = wp.threads_waiting;

    prev_trace_dropped = cur_dropped;

    ring[static_cast<std::size_t>(taken % opts.depth)] = s;
    ++taken;
    return s;
  }

  std::uint64_t prev_kv[5] = {0, 0, 0, 0, 0};

  // Copy the retained window, oldest first, under mu.
  void history_locked(std::vector<TsSample>& out) const {
    out.clear();
    const std::uint64_t n = taken < opts.depth ? taken : opts.depth;
    out.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = taken - n; i < taken; ++i)
      out.push_back(ring[static_cast<std::size_t>(i % opts.depth)]);
  }
};

TimeSeriesRecorder::TimeSeriesRecorder() : impl_(new Impl) {}

TimeSeriesRecorder::~TimeSeriesRecorder() {
  stop();
  delete impl_;
}

bool TimeSeriesRecorder::start(const TimeSeriesOptions& opts) {
  Impl& im = *impl_;
  std::unique_lock<std::mutex> lock(im.mu);
  if (im.started) return false;

  im.opts = opts;
  if (im.opts.interval_ms < 10) im.opts.interval_ms = 10;
  if (im.opts.depth < 2) im.opts.depth = 2;

  im.ring.assign(im.opts.depth, TsSample{});
  im.ring.shrink_to_fit();
  im.scratch_app.clear();
  im.scratch_app.reserve(16);
  im.taken = 0;
  std::memset(im.prev_kv, 0, sizeof im.prev_kv);
  im.t0 = Clock::now();
  im.last_tick = im.t0;
  im.capture_baselines();
  im.started = true;
  im.stopping = false;

  if (im.opts.sampler_thread) {
    im.sampler = std::thread([this] {
      Impl& i = *impl_;
      for (;;) {
        {
          std::unique_lock<std::mutex> slock(i.stop_mu);
          if (i.stop_cv.wait_for(
                  slock, std::chrono::milliseconds(i.opts.interval_ms),
                  [&] { return i.stopping; }))
            return;
        }
        sample_now();
      }
    });
  }
  return true;
}

void TimeSeriesRecorder::stop() {
  Impl& im = *impl_;
  std::thread joiner;
  {
    std::unique_lock<std::mutex> lock(im.mu);
    if (!im.started) return;
    im.started = false;
    joiner = std::move(im.sampler);
  }
  {
    std::lock_guard<std::mutex> slock(im.stop_mu);
    im.stopping = true;
  }
  im.stop_cv.notify_all();
  if (joiner.joinable()) joiner.join();
}

bool TimeSeriesRecorder::running() const noexcept {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->started;
}

std::uint32_t TimeSeriesRecorder::interval_ms() const noexcept {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->opts.interval_ms;
}

std::uint32_t TimeSeriesRecorder::depth() const noexcept {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->opts.depth;
}

std::uint64_t TimeSeriesRecorder::samples_taken() const noexcept {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->taken;
}

void TimeSeriesRecorder::sample_now() {
  Impl& im = *impl_;
  TsSample s;
  TsObserverFn fn = nullptr;
  void* ctx = nullptr;
  {
    std::lock_guard<std::mutex> lock(im.mu);
    if (!im.started) return;
    s = im.tick_locked();
    fn = im.observer;
    ctx = im.observer_ctx;
  }
  // Outside mu: the observer (watchdog) may trigger a flight dump that
  // reads this recorder back.
  if (fn != nullptr) fn(s, ctx);
}

void TimeSeriesRecorder::history(std::vector<TsSample>& out) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->history_locked(out);
}

void TimeSeriesRecorder::set_observer(TsObserverFn fn, void* ctx) noexcept {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->observer = fn;
  impl_->observer_ctx = ctx;
}

std::string TimeSeriesRecorder::to_json() const {
  std::vector<TsSample> window;
  std::uint32_t interval = 0;
  std::uint32_t depth = 0;
  std::uint64_t taken = 0;
  bool run = false;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->history_locked(window);
    interval = impl_->opts.interval_ms;
    depth = impl_->opts.depth;
    taken = impl_->taken;
    run = impl_->started;
  }
  std::ostringstream os;
  os << "{\n  \"meta\": {\"interval_ms\": " << interval
     << ", \"depth\": " << depth << ", \"samples_taken\": " << taken
     << ", \"running\": " << (run ? "true" : "false")
     << "},\n  \"samples\": [";
  char buf[64];
  bool first_sample = true;
  for (const TsSample& s : window) {
    os << (first_sample ? "" : ",") << "\n    {\"t_ms\": " << s.t_ms
       << ", \"interval_ms\": " << s.interval_ms << ", \"seq\": " << s.seq;
    for_each_ts_field([&](const char* name, std::uint64_t TsSample::*field) {
      os << ", \"" << name << "\": " << s.*field;
    });
    std::snprintf(buf, sizeof buf, "%.1f", s.commits_per_sec());
    os << ", \"commits_per_sec\": " << buf;
    std::snprintf(buf, sizeof buf, "%.1f", s.aborts_per_sec());
    os << ", \"aborts_per_sec\": " << buf;
    std::snprintf(buf, sizeof buf, "%.4f", s.abort_commit_ratio());
    os << ", \"abort_commit_ratio\": " << buf;
    std::snprintf(buf, sizeof buf, "%.4f", s.kv_hit_rate());
    os << ", \"kv_hit_rate\": " << buf;
    std::snprintf(buf, sizeof buf, "%.4f", s.park_ratio());
    os << ", \"park_ratio\": " << buf << "}";
    first_sample = false;
  }
  os << (first_sample ? "" : "\n  ") << "]\n}\n";
  return os.str();
}

std::string TimeSeriesRecorder::to_text() const {
  std::vector<TsSample> window;
  std::uint32_t interval = 0;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->history_locked(window);
    interval = impl_->opts.interval_ms;
  }
  std::ostringstream os;
  os << "# tmcv history: " << window.size() << " samples @ " << interval
     << " ms\n";
  os << "#    t_ms   commit/s    abort/s  ab/cm  nw_p99_ns  cv_waits  "
        "parks  kv_hit\n";
  char line[160];
  for (const TsSample& s : window) {
    std::snprintf(line, sizeof line,
                  "%9llu %10.1f %10.1f %6.3f %10llu %9llu %6llu %7.3f\n",
                  static_cast<unsigned long long>(s.t_ms),
                  s.commits_per_sec(), s.aborts_per_sec(),
                  s.abort_commit_ratio(),
                  static_cast<unsigned long long>(s.notify_wake_p99_ns),
                  static_cast<unsigned long long>(s.cv_waits),
                  static_cast<unsigned long long>(s.parks), s.kv_hit_rate());
    os << line;
  }
  return os.str();
}

TimeSeriesRecorder& timeseries() {
  static TimeSeriesRecorder recorder;
  return recorder;
}

}  // namespace tmcv::obs

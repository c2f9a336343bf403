// Wait-for graph implementation: seqlock-validated slot snapshots, edge
// resolution against the TM registry / condvar registry,
// functional-graph cycle detection, and the per-episode lost-wakeup
// detector the time-series probe advances.
#include "obs/waitgraph.h"

#include <mutex>
#include <sstream>

#include "core/condvar.h"
#include "obs/attribution.h"
#include "tm/stats.h"
#include "util/timing.h"

namespace tmcv::obs {

namespace {

// Per-slot episode state, keyed by the slot's odd seq value: a new park
// (new TSC start) resets the entry, so verdicts never leak across
// wake-and-repark.  Written only by waitgraph_probe() under State::mu.
struct Episode {
  std::uint64_t episode = 0;          // slot seq value; 0 = idle
  std::uint32_t windows = 0;          // consecutive probe ticks observed
  std::uint64_t commits_at_start = 0; // tm commits when the episode began
  std::uint64_t notifies_at_start = 0;
  bool cv_known = false;              // target resolved in the cv registry
  bool notified_before = false;       // cv had >0 notifies at episode start
  bool suspect = false;               // lost-wakeup verdict (condvar only)
  bool stuck = false;                 // generic stuck verdict
};

struct State {
  std::mutex mu;
  WaitGraph graph;  // probe/exporter scratch: never on a stack
  Episode episodes[kMaxWaitSlots];
  std::uint64_t cells[kWaitReasonCount][kStallSiteSlots];
  std::uint64_t prev_reason_ticks[kWaitReasonCount] = {};
  std::uint64_t prev_total_ticks = 0;
  std::atomic<std::uint32_t> stuck_windows{2};
};

State& state() {
  static State s;
  return s;
}

std::uint64_t cv_notify_total(const CondVarStats& s) noexcept {
  return s.notify_one_calls + s.notify_all_calls + s.notify_best_calls;
}

// Read one claimed slot into `row`.  Returns false for free slots.  A
// parked row is accepted only when the same odd seq brackets the payload
// (the slot's single-writer seqlock); a slot that churns faster than four
// retries is reported as running, never as a torn mix.
bool read_slot(const WaitSlot& s, std::uint32_t idx, std::uint64_t now,
               ThreadRow& row) noexcept {
  const std::uint32_t tid = s.os_tid.load(std::memory_order_acquire);
  if (tid == 0) return false;
  row = ThreadRow{};
  row.slot = idx;
  row.os_tid = tid;
  row.tm_slot = s.tm_slot.load(std::memory_order_relaxed);
  for (int attempt = 0; attempt < 4; ++attempt) {
    const std::uint64_t s1 = s.seq.load(std::memory_order_acquire);
    if ((s1 & 1ull) == 0) return true;  // running
    const std::uint64_t info = s.info.load(std::memory_order_relaxed);
    const void* target = s.target.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (s.seq.load(std::memory_order_relaxed) != s1) continue;
    row.waiting = true;
    row.reason = wait_info_reason(info);
    row.site = wait_info_site(info);
    row.detail = wait_info_detail(info);
    row.target = target;
    row.episode = s1;
    const std::uint64_t start = s1 >> 1;
    row.age_ns = now > start ? TscClock::to_ns(now - start) : 0;
    return true;
  }
  return true;
}

// Row index whose bound TM registry slot is `tm_slot`, or -1.
std::int32_t find_tm_row(const WaitGraph& g, std::uint64_t tm_slot) noexcept {
  for (std::uint32_t i = 0; i < g.thread_count; ++i)
    if (g.rows[i].tm_slot == tm_slot) return static_cast<std::int32_t>(i);
  return -1;
}

// Rows + edges + cycles.  Suspects are filled by the caller (the probe
// computes fresh verdicts; the exporters copy the last probe's).
void collect_rows_edges(WaitGraph& g) {
  g.thread_count = 0;
  g.edge_count = 0;
  g.cycle_threads = 0;
  g.suspect_count = 0;
  g.now_ticks = TscClock::now();
  WaitSlot* slots = tmcv::detail::wait_slots();
  const std::uint32_t n = wait_slot_high_water();
  for (std::uint32_t i = 0; i < n && g.thread_count < kMaxWaitSlots; ++i) {
    ThreadRow row;
    if (!read_slot(slots[i], i, g.now_ticks, row)) continue;
    g.rows[g.thread_count++] = row;
  }
  for (std::uint32_t i = 0; i < g.thread_count; ++i) {
    const ThreadRow& r = g.rows[i];
    if (!r.waiting) continue;
    WaitEdge e;
    e.waiter = i;
    e.reason = r.reason;
    e.holder = -1;
    e.holder_site = r.site;
    switch (r.reason) {
      case WaitReason::kCondVar: {
        // The waiter is parked, so the condvar cannot be destroyed under
        // us: the probe either finds it live or (address reuse aside)
        // leaves the publish-time site.
        CondVarStats cs;
        std::uint16_t last_notify_site = 0;
        if (r.target != nullptr &&
            condvar_probe(r.target, cs, last_notify_site))
          e.holder_site = last_notify_site;
        break;
      }
      case WaitReason::kSerialQuiesce:
        e.holder = find_tm_row(g, r.detail);
        break;
      default:
        break;  // semaphore / serial lock / orec (no producer): site only
    }
    if (e.holder == static_cast<std::int32_t>(i)) e.holder = -1;
    g.edges[g.edge_count++] = e;
  }
  // Cycle detection: every waiting row has at most one outgoing edge, so
  // the holder links form a functional graph -- one three-color walk per
  // component finds every cycle.
  std::int32_t out[kMaxWaitSlots];
  std::uint8_t color[kMaxWaitSlots];  // 0 white, 1 on current path, 2 done
  bool on_cycle[kMaxWaitSlots];
  for (std::uint32_t i = 0; i < g.thread_count; ++i) {
    out[i] = -1;
    color[i] = 0;
    on_cycle[i] = false;
  }
  for (std::uint32_t k = 0; k < g.edge_count; ++k)
    out[g.edges[k].waiter] = g.edges[k].holder;
  std::uint32_t path[kMaxWaitSlots];
  for (std::uint32_t i = 0; i < g.thread_count; ++i) {
    if (color[i] != 0) continue;
    std::uint32_t len = 0;
    std::int32_t cur = static_cast<std::int32_t>(i);
    while (cur >= 0 && color[cur] == 0) {
      color[cur] = 1;
      path[len++] = static_cast<std::uint32_t>(cur);
      cur = out[cur];
    }
    if (cur >= 0 && color[cur] == 1) {
      bool in = false;
      for (std::uint32_t p = 0; p < len; ++p) {
        if (path[p] == static_cast<std::uint32_t>(cur)) in = true;
        if (in) on_cycle[path[p]] = true;
      }
    }
    for (std::uint32_t p = 0; p < len; ++p) color[path[p]] = 2;
  }
  for (std::uint32_t i = 0; i < g.thread_count; ++i)
    if (on_cycle[i]) ++g.cycle_threads;
  for (std::uint32_t k = 0; k < g.edge_count; ++k) {
    WaitEdge& e = g.edges[k];
    e.in_cycle = on_cycle[e.waiter] && e.holder >= 0 && on_cycle[e.holder];
  }
}

// Copy the last probe's verdicts into g.suspects (episode ids must still
// match: a since-recycled park is not a suspect).
void fill_suspects(WaitGraph& g, const State& st) {
  for (std::uint32_t i = 0; i < g.thread_count; ++i) {
    const ThreadRow& r = g.rows[i];
    if (!r.waiting) continue;
    const Episode& ep = st.episodes[r.slot];
    if (ep.suspect && ep.episode == r.episode &&
        g.suspect_count < kMaxWaitSlots)
      g.suspects[g.suspect_count++] = i;
  }
}

StallSnapshot stall_snapshot_locked(State& st) {
  StallSnapshot snap;
  snap.total_ticks = snapshot_stall(st.cells);
  for (std::uint32_t r = 0; r < kWaitReasonCount; ++r)
    for (std::uint32_t s = 0; s < kStallSiteSlots; ++s) {
      const std::uint64_t t = st.cells[r][s];
      if (t == 0) continue;
      StallEntry e;
      e.reason = static_cast<WaitReason>(r);
      e.site = static_cast<std::uint16_t>(s);
      e.ticks = t;
      e.ns = TscClock::to_ns(t);
      snap.entries.push_back(e);
      snap.total_ns += e.ns;
    }
  return snap;
}

void append_row_json(std::ostringstream& os, const ThreadRow& r) {
  os << "{\"slot\": " << r.slot << ", \"os_tid\": " << r.os_tid
     << ", \"tm_slot\": ";
  if (r.tm_slot == 0xffffffffu)
    os << "null";
  else
    os << r.tm_slot;
  os << ", \"waiting\": " << (r.waiting ? "true" : "false");
  if (r.waiting) {
    os << ", \"reason\": \"" << wait_reason_name(r.reason) << "\""
       << ", \"site\": \"" << site_name(r.site) << "\""
       << ", \"site_id\": " << r.site << ", \"detail\": " << r.detail
       << ", \"target\": \"" << r.target << "\""
       << ", \"age_ns\": " << r.age_ns;
  }
  os << "}";
}

}  // namespace

void waitgraph_collect(WaitGraph& g) {
  State& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  collect_rows_edges(g);
  fill_suspects(g, st);
}

WaitProbe waitgraph_probe() {
  State& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  WaitGraph& g = st.graph;
  collect_rows_edges(g);
  const std::uint64_t commits_now = tm::stats_snapshot().commits;
  const std::uint32_t need =
      st.stuck_windows.load(std::memory_order_relaxed);
  WaitProbe p;
  for (std::uint32_t i = 0; i < g.thread_count; ++i) {
    const ThreadRow& r = g.rows[i];
    if (!r.waiting) {
      st.episodes[r.slot] = Episode{};
      continue;
    }
    ++p.threads_waiting;
    const std::uint64_t age_ms = r.age_ns / 1000000u;
    if (age_ms > p.max_wait_age_ms) p.max_wait_age_ms = age_ms;
    Episode& ep = st.episodes[r.slot];
    if (ep.episode != r.episode) {
      ep = Episode{};
      ep.episode = r.episode;
      ep.windows = 1;
      ep.commits_at_start = commits_now;
      if (r.reason == WaitReason::kCondVar && r.target != nullptr) {
        CondVarStats cs;
        std::uint16_t last_notify_site = 0;
        ep.cv_known = condvar_probe(r.target, cs, last_notify_site);
        if (ep.cv_known) {
          ep.notifies_at_start = cv_notify_total(cs);
          ep.notified_before = ep.notifies_at_start > 0;
        }
      }
    } else {
      ++ep.windows;
    }
    ep.suspect = false;
    ep.stuck = false;
    if (ep.windows > need) {
      switch (r.reason) {
        case WaitReason::kCondVar: {
          // Lost-wakeup heuristic, all four conditions: (a) the episode
          // outlived the window budget, (b) the condvar saw ZERO notifies
          // during it, (c) it HAD been notified before it began (a
          // never-notified cv is a phase barrier, not a bug), (d) the
          // process kept committing (a globally idle process is just
          // idle).
          CondVarStats cs;
          std::uint16_t last_notify_site = 0;
          if (ep.cv_known && ep.notified_before && r.target != nullptr &&
              condvar_probe(r.target, cs, last_notify_site) &&
              cv_notify_total(cs) == ep.notifies_at_start &&
              commits_now > ep.commits_at_start) {
            ep.suspect = true;
            ep.stuck = true;
          }
          break;
        }
        case WaitReason::kSerialQuiesce:
        case WaitReason::kSerialLock:
          // These are bounded drain/handoff waits that resolve in
          // microseconds when healthy; surviving whole probe windows
          // means the holder is stuck (or preempted to death).
          ep.stuck = true;
          break;
        default:
          // Raw semaphore parks and the controller's between-window sleep
          // can legitimately last forever; they never count as stuck.
          break;
      }
    }
    if (ep.stuck && age_ms > p.stuck_age_ms) p.stuck_age_ms = age_ms;
    if (ep.suspect && g.suspect_count < kMaxWaitSlots)
      g.suspects[g.suspect_count++] = i;
  }
  p.wait_cycles = g.cycle_threads;
  // Stall-table interval delta (ticks are monotone; a reset_stall_table
  // between probes shows up as a sum below the baseline -> clamp to 0).
  const std::uint64_t total = snapshot_stall(st.cells);
  std::uint64_t best_delta = 0;
  for (std::uint32_t r = 0; r < kWaitReasonCount; ++r) {
    std::uint64_t sum = 0;
    for (std::uint32_t s = 0; s < kStallSiteSlots; ++s) sum += st.cells[r][s];
    const std::uint64_t d =
        sum >= st.prev_reason_ticks[r] ? sum - st.prev_reason_ticks[r] : 0;
    if (d > best_delta) {
      best_delta = d;
      p.stall_top_reason = r;
    }
    st.prev_reason_ticks[r] = sum;
  }
  const std::uint64_t dt =
      total >= st.prev_total_ticks ? total - st.prev_total_ticks : 0;
  st.prev_total_ticks = total;
  p.stall_ns = TscClock::to_ns(dt);
  return p;
}

void set_stuck_windows(std::uint32_t n) noexcept {
  state().stuck_windows.store(n == 0 ? 1 : n, std::memory_order_relaxed);
}

std::uint32_t stuck_windows() noexcept {
  return state().stuck_windows.load(std::memory_order_relaxed);
}

void waitgraph_reset() noexcept {
  State& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  for (std::uint32_t i = 0; i < kMaxWaitSlots; ++i)
    st.episodes[i] = Episode{};
  for (std::uint32_t r = 0; r < kWaitReasonCount; ++r)
    st.prev_reason_ticks[r] = 0;
  st.prev_total_ticks = 0;
}

StallSnapshot stall_snapshot() {
  State& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  return stall_snapshot_locked(st);
}

std::string threads_json() {
  State& st = state();
  std::ostringstream os;
  std::lock_guard<std::mutex> lock(st.mu);
  WaitGraph& g = st.graph;
  collect_rows_edges(g);
  fill_suspects(g, st);
  std::uint32_t waiting = 0;
  std::uint64_t oldest_ns = 0;
  for (std::uint32_t i = 0; i < g.thread_count; ++i) {
    if (!g.rows[i].waiting) continue;
    ++waiting;
    if (g.rows[i].age_ns > oldest_ns) oldest_ns = g.rows[i].age_ns;
  }
  os << "{\n  \"waitpoints_enabled\": "
     << (waitpoints_enabled() ? "true" : "false")
     << ",\n  \"slot_high_water\": " << wait_slot_high_water()
     << ",\n  \"threads_waiting\": " << waiting
     << ",\n  \"oldest_wait_ns\": " << oldest_ns << ",\n  \"threads\": [";
  for (std::uint32_t i = 0; i < g.thread_count; ++i) {
    os << (i == 0 ? "" : ",") << "\n    ";
    append_row_json(os, g.rows[i]);
  }
  os << (g.thread_count == 0 ? "" : "\n  ") << "]\n}\n";
  return os.str();
}

std::string waitgraph_json() {
  State& st = state();
  std::ostringstream os;
  std::lock_guard<std::mutex> lock(st.mu);
  WaitGraph& g = st.graph;
  collect_rows_edges(g);
  fill_suspects(g, st);
  os << "{\n  \"now_ticks\": " << g.now_ticks
     << ",\n  \"cycle_threads\": " << g.cycle_threads
     << ",\n  \"threads\": [";
  for (std::uint32_t i = 0; i < g.thread_count; ++i) {
    os << (i == 0 ? "" : ",") << "\n    ";
    append_row_json(os, g.rows[i]);
  }
  os << (g.thread_count == 0 ? "" : "\n  ") << "],\n  \"edges\": [";
  for (std::uint32_t k = 0; k < g.edge_count; ++k) {
    const WaitEdge& e = g.edges[k];
    const ThreadRow& w = g.rows[e.waiter];
    os << (k == 0 ? "" : ",") << "\n    {\"waiter_slot\": " << w.slot
       << ", \"waiter_tid\": " << w.os_tid << ", \"reason\": \""
       << wait_reason_name(e.reason) << "\", \"holder_slot\": ";
    if (e.holder >= 0)
      os << g.rows[e.holder].slot << ", \"holder_tid\": "
         << g.rows[e.holder].os_tid;
    else
      os << "null, \"holder_tid\": null";
    os << ", \"holder_site\": \"" << site_name(e.holder_site)
       << "\", \"holder_site_id\": " << e.holder_site << ", \"in_cycle\": "
       << (e.in_cycle ? "true" : "false") << "}";
  }
  os << (g.edge_count == 0 ? "" : "\n  ") << "],\n  \"suspects\": [";
  for (std::uint32_t k = 0; k < g.suspect_count; ++k) {
    const ThreadRow& r = g.rows[g.suspects[k]];
    os << (k == 0 ? "" : ",") << "\n    {\"slot\": " << r.slot
       << ", \"os_tid\": " << r.os_tid << ", \"target\": \"" << r.target
       << "\", \"site\": \"" << site_name(r.site) << "\", \"age_ns\": "
       << r.age_ns << "}";
  }
  os << (g.suspect_count == 0 ? "" : "\n  ") << "],\n  \"stall\": {";
  // The stall table is appended from the same exporter everywhere (route,
  // flight dump) so trace_report --validate can hold both ledgers to the
  // exact-sum contract.
  const StallSnapshot snap = stall_snapshot_locked(st);
  os << "\n    \"total_ticks\": " << snap.total_ticks
     << ",\n    \"total_ns\": " << snap.total_ns
     << ",\n    \"entries\": [";
  for (std::size_t k = 0; k < snap.entries.size(); ++k) {
    const StallEntry& e = snap.entries[k];
    os << (k == 0 ? "" : ",") << "\n      {\"reason\": \""
       << wait_reason_name(e.reason) << "\", \"site\": \""
       << site_name(e.site) << "\", \"site_id\": " << e.site
       << ", \"ticks\": " << e.ticks << ", \"ns\": " << e.ns << "}";
  }
  os << (snap.entries.empty() ? "" : "\n    ") << "]\n  }\n}\n";
  return os.str();
}

}  // namespace tmcv::obs

// Vacation: a STAMP-style travel-reservation macro benchmark over the tmds
// ordered family -- the "whole application" contrast to bench/micro_tm's
// primitive costs.
//
// Three relations (cars, rooms, flights) live in TxSkipList ordered maps
// keyed by resource id, each value a packed {total, used, price} word.  The
// customer table is a TxBst (populated in bit-reversed key order, so the
// unbalanced tree starts balanced), and every booking appends a record to a
// global reservations skiplist keyed (customer, relation, id) -- customer in
// the high bits, so cancelling a customer is ONE range scan over their key
// prefix.  A striped counter tracks revenue transactionally.
//
// Task mix per transaction (STAMP vacation shapes):
//   make_reservation  query `queries_per_task` random resources per task,
//                     book the cheapest with free capacity (skip resources
//                     the customer already holds): resource.used++, record
//                     insert, customer bill += price, revenue += price.
//   delete_customer   range-scan the customer's reservation prefix, release
//                     every held resource, zero the bill, refund revenue.
//   update_tables     re-price or re-size random resources (capacity never
//                     drops below `used`).
// Each transaction performs `tasks_per_txn` tasks; ids are drawn from the
// first `queries_pct`% of the table, so the low-contention mix (2 tasks,
// 90%, 98% user txns) spreads bookings wide while the high-contention mix
// (4 tasks, 60%, 90% user txns, smaller table) funnels them onto a hot
// prefix.
//
// Every rep runs on a freshly populated world (construction untimed), and
// after each rep the books are audited quiescently: live reservation count
// must equal the sum of `used` over all relations, and the revenue counter,
// the sum of customer bills, and the sum of booked record prices must all
// agree -- the macro-scale lost-update canary.
//
// `--json [path]` writes BENCH_vacation.json: both mixes' headline numbers,
// with the usual .metrics.json sibling.  `--serve-metrics[=PORT]`,
// `--hold-ms=N`, `--backend=NAME`, `--threads=N`, `--txns=N` follow the
// micro_tm conventions.
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/c_api.h"
#include "obs/attribution.h"
#include "obs/metrics.h"
#include "tm/api.h"
#include "tmds/tx_bst.h"
#include "tmds/tx_counter.h"
#include "tmds/tx_skiplist.h"
#include "util/rng.h"
#include "util/timing.h"

namespace {

using namespace tmcv::tm;
using tmcv::Xoshiro256;
using u64 = std::uint64_t;

// ---------------------------------------------------------------------------
// Packed words (tm::var cells are single 8-byte words)
// ---------------------------------------------------------------------------

// Resource: total(16) | used(16) | price(32).
constexpr u64 pack_res(u64 total, u64 used, u64 price) {
  return (total << 48) | (used << 32) | (price & 0xffffffffull);
}
constexpr u64 res_total(u64 r) { return r >> 48; }
constexpr u64 res_used(u64 r) { return (r >> 32) & 0xffff; }
constexpr u64 res_price(u64 r) { return r & 0xffffffffull; }

// Reservation key: customer | relation(2b) | id(20b).  Customer occupies the
// high bits so [rkey(c,0,0), rkey(c+1,0,0)) spans exactly customer c's
// bookings.
constexpr int kRelBits = 2;
constexpr int kIdBits = 20;
constexpr u64 rkey(u64 customer, u64 relation, u64 id) {
  return (customer << (kRelBits + kIdBits)) | (relation << kIdBits) | id;
}
constexpr u64 rkey_relation(u64 k) { return (k >> kIdBits) & 0x3; }
constexpr u64 rkey_id(u64 k) { return k & ((u64{1} << kIdBits) - 1); }

// Deterministic initial price in [50, 550).
constexpr u64 price_of(u64 id) {
  return 50 + (((id ^ 0xa0761d6478bd642full) * 0x9e3779b97f4a7c15ull) >> 40) %
                  500;
}

// ---------------------------------------------------------------------------
// World + task mix
// ---------------------------------------------------------------------------

struct Mix {
  const char* name;
  int tasks_per_txn;
  int queries_per_task;
  int queries_pct;  // ids drawn from the first q% of the table
  int user_pct;     // % of transactions that are make_reservation
  u64 relations;    // resources per relation == number of customers
  u64 base_capacity;  // seats per resource: base + id % spread
  u64 capacity_spread;
  bool prefill;  // start near capacity (most reserve attempts query-only)
  int txns_per_thread;
};

// Low contention is the STAMP "-n2 -q90 -u98" shape run NEAR CAPACITY: the
// world starts with almost every seat booked, so a typical reservation
// transaction queries a handful of resources, finds them full (or already
// held), and commits read-only; bookings trickle in as cancellations free
// seats.  That read-mostly regime is where value-based validation (NOrec)
// is competitive.
// High contention is "-n4 -q60 -u90" on a small, mostly-empty table: nearly
// every transaction books (write-heavy), the hot prefix stays warm, and
// encounter-time locking (eager) wins.
constexpr Mix kLowContention{"low_contention", 2,    2,    90, 98,
                             1024,             1,    3,    true, 3000};
constexpr Mix kHighContention{"high_contention", 4,   4,     60, 90,
                              256,               100, 100, false, 1500};

constexpr u64 capacity_of(const Mix& mix, u64 id) {
  return mix.base_capacity + id % mix.capacity_spread;
}

constexpr int kNumRelations = 3;  // cars, rooms, flights

struct World {
  tmcv::tmds::TxSkipList<u64, u64> relations[kNumRelations];
  tmcv::tmds::TxBst<u64, u64> customers;  // customer -> bill
  tmcv::tmds::TxSkipList<u64, u64> reservations;  // rkey -> price paid
  tmcv::tmds::TxStripedCounter<8> revenue;

  explicit World(const Mix& mix) {
    std::vector<u64> bills(mix.relations, 0);
    u64 revenue_total = 0;
    for (u64 id = 0; id < mix.relations; ++id) {
      const u64 cap = capacity_of(mix, id);
      // Prefilled worlds leave id%2 seats free per resource; seat s of
      // resource id goes to customer (id + (s+1)*307) mod N -- distinct
      // customers per resource, spread across the table.
      const u64 booked =
          mix.prefill ? cap - std::min<u64>(cap, id % 2) : 0;
      const u64 price = price_of(id);
      for (u64 rel = 0; rel < kNumRelations; ++rel) {
        relations[rel].insert(id, pack_res(cap, booked, price));
        for (u64 s = 0; s < booked; ++s) {
          const u64 c = (id + (s + 1) * 307) % mix.relations;
          reservations.insert(rkey(c, rel, id), price);
          bills[c] += price;
          revenue_total += price;
        }
      }
    }
    // Bit-reversed insertion order: the deterministic-balance trick for the
    // unbalanced BST (monotone inserts would degrade it to a list).
    int bits = 0;
    while ((u64{1} << bits) < mix.relations) ++bits;
    for (u64 j = 0; j < (u64{1} << bits); ++j) {
      u64 rev = 0;
      for (int b = 0; b < bits; ++b)
        if (j & (u64{1} << b)) rev |= u64{1} << (bits - 1 - b);
      if (rev < mix.relations) customers.insert(rev, bills[rev]);
    }
    revenue.add(static_cast<std::int64_t>(revenue_total));
  }
};

struct Tally {
  std::atomic<u64> reservations_made{0};
  std::atomic<u64> customers_deleted{0};
  std::atomic<u64> tables_updated{0};
};

// One make-reservation transaction: `tasks` tasks, each querying `queries`
// random resources of one random relation and booking the cheapest with
// free capacity that the customer doesn't already hold.
u64 make_reservation(World& w, const Mix& mix, Xoshiro256& rng, u64 customer) {
  return atomically([&]() -> u64 {
    TMCV_TXN_SITE("vacation.reserve");
    const u64 span = std::max<u64>(1, mix.relations * mix.queries_pct / 100);
    u64 made = 0;
    for (int t = 0; t < mix.tasks_per_txn; ++t) {
      const u64 rel = rng.next() % kNumRelations;
      u64 best_id = 0, best_res = 0;
      bool found = false;
      for (int q = 0; q < mix.queries_per_task; ++q) {
        const u64 id = rng.next() % span;
        u64 res = 0;
        if (!w.relations[rel].get(id, res)) continue;
        if (res_used(res) >= res_total(res)) continue;
        if (w.reservations.contains(rkey(customer, rel, id))) continue;
        if (!found || res_price(res) < res_price(best_res)) {
          best_id = id;
          best_res = res;
          found = true;
        }
      }
      if (!found) continue;
      const u64 price = res_price(best_res);
      w.relations[rel].insert(
          best_id,
          pack_res(res_total(best_res), res_used(best_res) + 1, price));
      w.reservations.insert(rkey(customer, rel, best_id), price);
      u64 bill = 0;
      w.customers.get(customer, bill);
      w.customers.insert(customer, bill + price);
      w.revenue.add(static_cast<std::int64_t>(price));
      ++made;
    }
    return made;
  });
}

// Cancel every booking a customer holds: one range scan over the customer's
// key prefix, then release each resource and refund the bill.  The scratch
// vector is non-transactional, so it is cleared INSIDE the transaction --
// a re-execution restarts the accumulation (see docs/DATASTRUCTURES.md).
bool delete_customer(World& w, std::vector<std::pair<u64, u64>>& scratch,
                     u64 customer) {
  return atomically([&] {
    TMCV_TXN_SITE("vacation.delete");
    scratch.clear();
    w.reservations.range(rkey(customer, 0, 0), rkey(customer + 1, 0, 0),
                         [&](u64 k, u64 paid) {
                           scratch.emplace_back(k, paid);
                           return true;
                         });
    if (scratch.empty()) return false;
    u64 freed = 0;
    for (const auto& [k, paid] : scratch) {
      const u64 rel = rkey_relation(k);
      const u64 id = rkey_id(k);
      u64 res = 0;
      w.relations[rel].get(id, res);
      w.relations[rel].insert(
          id, pack_res(res_total(res), res_used(res) - 1, res_price(res)));
      w.reservations.erase(k);
      freed += paid;
    }
    w.customers.insert(customer, 0);
    w.revenue.add(-static_cast<std::int64_t>(freed));
    return true;
  });
}

// Re-price or re-size `tasks` random resources.
void update_tables(World& w, const Mix& mix, Xoshiro256& rng) {
  atomically([&] {
    TMCV_TXN_SITE("vacation.update");
    const u64 span = std::max<u64>(1, mix.relations * mix.queries_pct / 100);
    for (int t = 0; t < mix.tasks_per_txn; ++t) {
      const u64 rel = rng.next() % kNumRelations;
      const u64 id = rng.next() % span;
      u64 res = 0;
      if (!w.relations[rel].get(id, res)) continue;
      if (rng.next() % 2 == 0) {
        w.relations[rel].insert(
            id, pack_res(res_total(res), res_used(res), price_of(rng.next())));
      } else {
        // Grow, or shrink while capacity exceeds what's booked.
        const u64 total = res_total(res);
        const u64 next = (rng.next() % 2 == 0 || total <= res_used(res))
                             ? total + 1
                             : total - 1;
        w.relations[rel].insert(
            id, pack_res(next, res_used(res), res_price(res)));
      }
    }
  });
}

// Quiescent audit: reservation count vs seats in use, and the three
// independent money totals (revenue counter, customer bills, booked record
// prices) must agree exactly.
bool audit(World& w) {
  u64 records = 0, booked_total = 0;
  w.reservations.range(0, ~u64{0}, [&](u64, u64 paid) {
    ++records;
    booked_total += paid;
    return true;
  });
  u64 seats = 0;
  for (auto& rel : w.relations)
    rel.range(0, ~u64{0}, [&](u64, u64 res) {
      seats += res_used(res);
      return true;
    });
  u64 bills = 0;
  w.customers.range(0, ~u64{0}, [&](u64, u64 bill) {
    bills += bill;
    return true;
  });
  const auto revenue = static_cast<u64>(w.revenue.value());
  if (records != seats || booked_total != bills || revenue != bills) {
    std::fprintf(stderr,
                 "AUDIT FAILED: records=%llu seats=%llu booked=%llu "
                 "bills=%llu revenue=%llu\n",
                 (unsigned long long)records, (unsigned long long)seats,
                 (unsigned long long)booked_total, (unsigned long long)bills,
                 (unsigned long long)revenue);
    return false;
  }
  return true;
}

std::atomic<bool> g_audit_ok{true};

// One timed rep on a freshly populated world (construction and audit are
// outside the timer).  Transactions run on the process default backend via
// plain atomically().
double run_mix_once(const Mix& mix, int threads, int txns_per_thread,
                    Tally* tally) {
  World w(mix);
  std::atomic<int> go{0};
  std::vector<std::thread> ts;
  tmcv::Stopwatch sw;
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      Xoshiro256 rng(0x7ac3ull * (t + 1));
      std::vector<std::pair<u64, u64>> scratch;
      u64 made = 0, deleted = 0, updated = 0;
      go.fetch_add(1);
      while (go.load() < threads) {
      }
      for (int i = 0; i < txns_per_thread; ++i) {
        const u64 customer = rng.next() % mix.relations;
        const u64 p = rng.next() % 100;
        if (p < static_cast<u64>(mix.user_pct)) {
          made += make_reservation(w, mix, rng, customer);
        } else if (p < static_cast<u64>(mix.user_pct) +
                           (100 - static_cast<u64>(mix.user_pct)) / 2) {
          if (delete_customer(w, scratch, customer)) ++deleted;
        } else {
          update_tables(w, mix, rng);
          ++updated;
        }
      }
      if (tally != nullptr) {
        tally->reservations_made.fetch_add(made);
        tally->customers_deleted.fetch_add(deleted);
        tally->tables_updated.fetch_add(updated);
      }
    });
  }
  for (auto& th : ts) th.join();
  const double secs = sw.elapsed_seconds();
  if (!audit(w)) g_audit_ok.store(false);
  return static_cast<double>(threads) * txns_per_thread / secs;
}

// ---------------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------------

// BENCH_foo.json -> BENCH_foo.metrics.json (registry snapshot sibling).
std::string metrics_path_for(const char* out_path) {
  std::string p(out_path);
  const std::string suffix = ".json";
  if (p.size() > suffix.size() &&
      p.compare(p.size() - suffix.size(), suffix.size(), suffix) == 0)
    p.resize(p.size() - suffix.size());
  return p + ".metrics.json";
}

struct MixResult {
  const Mix* mix;
  double ops_per_sec;
  Stats window;
  Tally tally;
  int txns_per_thread;
};

void run_mix_profile(const Mix& mix, int threads, int txns_override,
                     MixResult& out) {
  constexpr int kReps = 3;
  const int txns = txns_override > 0 ? txns_override : mix.txns_per_thread;
  run_mix_once(mix, threads, txns / 4 + 1, nullptr);  // warm-up
  stats_reset();
  // Paired with stats_reset (the documented idiom) so attribution and the
  // tm counters cover the same window: at quiescence /profile then owes
  // conflicts_recorded == aborts_conflict exactly, which CI checks.
  tmcv::obs::attr_reset();
  double best = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    const double r = run_mix_once(mix, threads, txns, &out.tally);
    if (r > best) best = r;
  }
  out.mix = &mix;
  out.ops_per_sec = best;
  out.window = stats_snapshot();
  out.txns_per_thread = txns;
}

void fprint_mix(std::FILE* f, const MixResult& r, bool last) {
  const Stats& st = r.window;
  std::fprintf(
      f,
      "    \"%s\": {\"ops_per_sec\": %.0f, \"abort_commit_ratio\": %.6f, "
      "\"tasks_per_txn\": %d, \"queries_per_task\": %d, \"queries_pct\": %d, "
      "\"user_pct\": %d, \"relations\": %llu, \"txns_per_thread\": %d, "
      "\"reservations_made\": %llu, \"customers_deleted\": %llu, "
      "\"tables_updated\": %llu, \"commits\": %llu, \"aborts\": %llu}%s\n",
      r.mix->name, r.ops_per_sec,
      st.commits
          ? static_cast<double>(st.aborts) / static_cast<double>(st.commits)
          : 0.0,
      r.mix->tasks_per_txn, r.mix->queries_per_task, r.mix->queries_pct,
      r.mix->user_pct, (unsigned long long)r.mix->relations,
      r.txns_per_thread,
      (unsigned long long)r.tally.reservations_made.load(),
      (unsigned long long)r.tally.customers_deleted.load(),
      (unsigned long long)r.tally.tables_updated.load(),
      (unsigned long long)st.commits, (unsigned long long)st.aborts,
      last ? "" : ",");
}

int run_json_mode(const char* out_path, int threads, int txns_override) {
  if (std::getenv("TMCV_BENCH_NO_ATTR") == nullptr)
    tmcv::obs::set_attribution_enabled(true);
  tmcv::obs::attr_reset();

  MixResult low{}, high{};
  run_mix_profile(kLowContention, threads, txns_override, low);
  run_mix_profile(kHighContention, threads, txns_override, high);
  const Stats st = low.window;  // headline = low-contention window

  // Latency percentiles for the metrics sibling: one extra unmeasured rep.
  tmcv::obs::set_timing_enabled(true);
  run_mix_once(kLowContention, threads, low.txns_per_thread / 2 + 1, nullptr);
  tmcv::obs::set_timing_enabled(false);

  if (!g_audit_ok.load()) return 1;

  std::FILE* f = std::fopen(out_path, "w");
  if (!f) {
    std::perror("fopen");
    return 1;
  }
  const double attempts =
      static_cast<double>(st.commits) + static_cast<double>(st.aborts);
  std::fprintf(f,
               "{\n"
               "  \"benchmark\": \"vacation\",\n"
               "  \"backend\": \"%s\",\n"
               "  \"spin_budget\": %u,\n"
               "  \"threads\": %d,\n",
               backend_label(default_backend()),
               tmcv_get_spin_budget(), threads);
  std::fprintf(f, "  \"mixes\": {\n");
  fprint_mix(f, low, false);
  fprint_mix(f, high, true);
  std::fprintf(f, "  },\n");
  std::fprintf(
      f,
      "  \"ops_per_sec\": %.0f,\n"
      "  \"abort_rate\": %.6f,\n"
      "  \"abort_commit_ratio\": %.6f,\n"
      "  \"commits\": %llu,\n"
      "  \"aborts\": %llu,\n"
      "  \"aborts_conflict\": %llu,\n"
      "  \"aborts_capacity\": %llu,\n"
      "  \"aborts_syscall\": %llu,\n"
      "  \"aborts_explicit\": %llu,\n"
      "  \"aborts_retry_wait\": %llu\n"
      "}\n",
      low.ops_per_sec,
      attempts ? static_cast<double>(st.aborts) / attempts : 0.0,
      st.commits
          ? static_cast<double>(st.aborts) / static_cast<double>(st.commits)
          : 0.0,
      (unsigned long long)st.commits, (unsigned long long)st.aborts,
      (unsigned long long)st.aborts_conflict(),
      (unsigned long long)st.aborts_capacity(),
      (unsigned long long)st.aborts_syscall(),
      (unsigned long long)st.aborts_explicit(),
      (unsigned long long)st.aborts_retry_wait());
  std::fclose(f);
  const std::string mpath = metrics_path_for(out_path);
  if (!tmcv::obs::write_metrics_files(tmcv::obs::metrics_snapshot(), mpath)) {
    std::perror("write_metrics_files");
    return 1;
  }
  std::printf("wrote %s (low=%.0f high=%.0f txn/s) and %s\n", out_path,
              low.ops_per_sec, high.ops_per_sec, mpath.c_str());
  return 0;
}

int run_summary_mode(int threads, int txns_override) {
  for (const Mix* mix : {&kLowContention, &kHighContention}) {
    const int txns =
        txns_override > 0 ? txns_override : mix->txns_per_thread / 2;
    Tally tally;
    stats_reset();
    const double ops = run_mix_once(*mix, threads, txns, &tally);
    const Stats st = stats_snapshot();
    std::printf(
        "%-16s %8.0f txn/s  abort/commit %.3f  booked %llu  cancelled %llu  "
        "updated %llu\n",
        mix->name, ops,
        st.commits
            ? static_cast<double>(st.aborts) / static_cast<double>(st.commits)
            : 0.0,
        (unsigned long long)tally.reservations_made.load(),
        (unsigned long long)tally.customers_deleted.load(),
        (unsigned long long)tally.tables_updated.load());
  }
  return g_audit_ok.load() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool serve = false;
  int serve_port = 0;
  long hold_ms = 0;
  int threads = 4;
  int txns_override = 0;
  bool json = false;
  const char* out_path = nullptr;
  const char* backend_arg = nullptr;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--serve-metrics", 15) == 0 &&
        (a[15] == '\0' || a[15] == '=')) {
      serve = true;
      if (a[15] == '=') serve_port = std::atoi(a + 16);
    } else if (std::strncmp(a, "--hold-ms=", 10) == 0) {
      hold_ms = std::atol(a + 10);
    } else if (std::strncmp(a, "--threads=", 10) == 0) {
      threads = std::atoi(a + 10);
      if (threads < 1) threads = 1;
    } else if (std::strncmp(a, "--txns=", 7) == 0) {
      txns_override = std::atoi(a + 7);
    } else if (std::strncmp(a, "--backend=", 10) == 0) {
      backend_arg = a + 10;
    } else if (std::strcmp(a, "--json") == 0) {
      json = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "vacation: unknown arg '%s' (want --json [path], "
                   "--backend=NAME, --threads=N, --txns=N, "
                   "--serve-metrics[=PORT], --hold-ms=N)\n",
                   a);
      return 1;
    }
  }
  if (backend_arg != nullptr) {
    Backend b{};
    if (!backend_from_label(backend_arg, b)) {
      std::fprintf(stderr,
                   "vacation: unknown --backend '%s' (want "
                   "eager|htm|norec)\n",
                   backend_arg);
      return 1;
    }
    set_default_backend(b);
  }
  if (serve) {
    tmcv::obs::set_attribution_enabled(true);
    const int port = tmcv_telemetry_start(serve_port);
    if (port < 0) {
      std::fprintf(stderr,
                   "vacation: failed to start telemetry on port %d: %s\n",
                   serve_port, std::strerror(errno));
      return 1;
    }
    std::printf("telemetry: http://127.0.0.1:%d/metrics\n", port);
    std::fflush(stdout);
  }
  int rc = json ? run_json_mode(out_path ? out_path : "BENCH_vacation.json",
                                threads, txns_override)
                : run_summary_mode(threads, txns_override);
  if (serve) {
    if (hold_ms > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(hold_ms));
    tmcv_telemetry_stop();
  }
  return rc;
}

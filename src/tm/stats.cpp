#include "tm/stats.h"

#include <sstream>

#include "tm/cm.h"
#include "tm/descriptor.h"
#include "tm/registry.h"

namespace tmcv::tm {

const char* stats_abort_reason_label(std::size_t i) noexcept {
  static constexpr const char* kLabels[kStatsAbortReasons] = {
      "conflict", "capacity", "syscall", "explicit", "retry_wait"};
  return i < kStatsAbortReasons ? kLabels[i] : "?";
}

Stats& Stats::operator+=(const Stats& o) noexcept {
  for_each_field(
      [&](const char*, std::uint64_t Stats::*f) { this->*f += o.*f; });
  for (std::size_t b = 0; b < kStatsBackends; ++b)
    for (std::size_t r = 0; r < kStatsAbortReasons; ++r)
      aborts_by_backend[b][r] += o.aborts_by_backend[b][r];
  return *this;
}

Stats& Stats::operator-=(const Stats& o) noexcept {
  for_each_field(
      [&](const char*, std::uint64_t Stats::*f) { this->*f -= o.*f; });
  for (std::size_t b = 0; b < kStatsBackends; ++b)
    for (std::size_t r = 0; r < kStatsAbortReasons; ++r)
      aborts_by_backend[b][r] -= o.aborts_by_backend[b][r];
  return *this;
}

std::string Stats::to_string() const {
  std::ostringstream os;
  os << "commits=" << commits << " (ro=" << ro_commits << ", serial="
     << serial_commits << ") aborts=" << aborts << " (conflict=" << aborts_conflict
     << ", capacity=" << aborts_capacity << ", syscall=" << aborts_syscall
     << ", explicit=" << aborts_explicit
     << ", retry_wait=" << aborts_retry_wait << ") reads=" << reads
     << " writes=" << writes << " extensions=" << extensions
     << " serial_fallbacks=" << serial_fallbacks
     << " htm_capacity="
     << aborts_by_backend[static_cast<std::size_t>(Backend::HTM)]
                         [static_cast<std::size_t>(TxAbort::Reason::Capacity)]
     << " htm_syscall="
     << aborts_by_backend[static_cast<std::size_t>(Backend::HTM)]
                         [static_cast<std::size_t>(TxAbort::Reason::Syscall)]
     << " htm_chaos_aborts=" << htm_chaos_aborts
     << " handlers=" << handlers_run
     << " dedup_hits=" << read_dedup_hits
     << " dedup_appends=" << read_dedup_appends
     << " wake_batches=" << wake_batches
     << " deferred_wakes=" << deferred_wakes
     << " clock_cas_reuses=" << clock_cas_reuses << " cm_waits=" << cm_waits
     << " cm_backoffs=" << cm_backoffs
     << " cm_serial_escalations=" << cm_serial_escalations;
  return os.str();
}

Stats stats_snapshot() {
  Stats total;
  registry().snapshot_stats(total);
  return total;
}

void stats_reset() {
  registry().reset_stats();
  // Benchmark phases and tests expect a reset to restore the full HTM
  // attempt budget, not inherit fallback pressure from the previous phase.
  cm_reset_htm_hysteresis();
}

}  // namespace tmcv::tm

#include "tm/stats.h"

#include "tm/cm.h"
#include "tm/registry.h"

namespace tmcv::tm {

const char* stats_abort_reason_label(std::size_t i) noexcept {
  static constexpr const char* kLabels[kStatsAbortReasons] = {
      "conflict", "capacity", "syscall", "explicit", "retry_wait"};
  return i < kStatsAbortReasons ? kLabels[i] : "?";
}

std::string Stats::to_string() const {
  std::string out;
  for_each_scalar([&](const std::string& name, std::uint64_t v) {
    if (v != 0)
      out += (out.empty() ? "" : " ") + name + "=" + std::to_string(v);
  });
  return out.empty() ? "(no activity)" : out;
}

Stats stats_snapshot() { return registry().snapshot_stats(); }

void stats_reset() {
  registry().reset_stats();
  // Benchmark phases and tests expect a reset to restore the full HTM
  // attempt budget, not inherit fallback pressure from the previous phase.
  cm_reset_htm_hysteresis();
}

}  // namespace tmcv::tm

#include "tm/cm.h"

#include <atomic>

#include "obs/attribution.h"

namespace tmcv::tm {

namespace {

std::atomic<std::uint32_t> g_conflict_streak_limit{32};

// Saturating fallback pressure: budget = kHtmAttemptsBeforeSerial >> p,
// so 0..3 maps to 8, 4, 2, 1 hardware attempts.
constexpr std::uint32_t kHtmPressureMax = 3;
std::atomic<std::uint32_t> g_htm_pressure{0};

// Pressure decays one level per kHtmRecoveryCommits hardware commits (only
// counted while pressure is nonzero, so the uncontended fast path never
// touches this line).
constexpr std::uint32_t kHtmRecoveryCommits = 64;
std::atomic<std::uint32_t> g_htm_recovery{0};

}  // namespace

void cm_set_conflict_streak_limit(std::uint32_t k) noexcept {
  g_conflict_streak_limit.store(k == 0 ? 1 : k, std::memory_order_relaxed);
}

std::uint32_t cm_conflict_streak_limit() noexcept {
  return g_conflict_streak_limit.load(std::memory_order_relaxed);
}

void cm_note_serial_escalation(std::uint16_t site) noexcept {
#if TMCV_TRACE
  obs::attr_record_escalation(site);
#else
  (void)site;
#endif
}

int htm_attempt_budget() noexcept {
  std::uint32_t p = g_htm_pressure.load(std::memory_order_relaxed);
  if (p > kHtmPressureMax) p = kHtmPressureMax;
  return kHtmAttemptsBeforeSerial >> p;
}

void note_htm_fallback() noexcept {
  std::uint32_t p = g_htm_pressure.load(std::memory_order_relaxed);
  while (p < kHtmPressureMax &&
         !g_htm_pressure.compare_exchange_weak(p, p + 1,
                                               std::memory_order_relaxed,
                                               std::memory_order_relaxed)) {
  }
}

void note_htm_commit() noexcept {
  std::uint32_t p = g_htm_pressure.load(std::memory_order_relaxed);
  if (p == 0) return;  // full budget already: stay off the shared line
  if ((g_htm_recovery.fetch_add(1, std::memory_order_relaxed) + 1) %
          kHtmRecoveryCommits !=
      0)
    return;
  while (p > 0 && !g_htm_pressure.compare_exchange_weak(
                      p, p - 1, std::memory_order_relaxed,
                      std::memory_order_relaxed)) {
  }
}

void cm_reset_htm_hysteresis() noexcept {
  g_htm_pressure.store(0, std::memory_order_relaxed);
  g_htm_recovery.store(0, std::memory_order_relaxed);
}

}  // namespace tmcv::tm

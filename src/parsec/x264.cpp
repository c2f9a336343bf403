// x264 mini-kernel: H.264 encoding where each thread encodes one frame at a
// time and rows of frame f depend on the reference frame f-1 having encoded
// a few rows ahead (§5.2).  Condition variables coordinate encoder threads
// with threads waiting on reference-frame progress.
//
// Table-1 audit of this port: frame-ticket take + row-progress publish +
// row-progress wait + checksum fold = 4 total sites; the progress wait is
// the single condvar transaction (no barrier); the wait loop re-checks the
// dependency inside each transaction, so it did not need a continuation
// split beyond execute_or_wait itself -- matching the paper's x264 row
// (4 / 1 / 0: its single cond_wait needed no refactoring).
#include "parsec/runner.h"

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "apps/sync_policy.h"
#include "parsec/registry.h"
#include "parsec/workload.h"
#include "util/timing.h"

namespace tmcv::parsec {

namespace {

const bool registered = [] {
  register_characteristics({.benchmark = "x264",
                            .total_transactions = 4,
                            .condvar_transactions = 1,
                            .condvar_transactions_barrier = 0,
                            .refactored_continuations = 0,
                            .refactored_barrier = 0});
  return true;
}();

template <typename Policy>
KernelResult run_impl(const KernelConfig& cfg) {
  const std::size_t encoders = static_cast<std::size_t>(cfg.threads);
  const int frames = 24;
  const int rows = 16;
  const int lookahead = 2;  // rows the reference must lead by
  const auto row_iters = static_cast<std::uint64_t>(
      150.0 * calibrated_iters_per_us() * cfg.scale);

  // Per-frame encoded-row progress (frame -1 is "already complete").
  typename Policy::Region region;
  typename Policy::CondVar progress_cv;
  std::vector<std::unique_ptr<typename Policy::template Cell<int>>> progress;
  for (int f = 0; f < frames; ++f)
    progress.emplace_back(
        std::make_unique<typename Policy::template Cell<int>>());
  typename Policy::template Cell<int> next_frame{};

  std::atomic<std::uint64_t> checksum{0};

  Stopwatch sw;
  std::vector<std::thread> pool;
  for (std::size_t e = 0; e < encoders; ++e) {
    pool.emplace_back([&, e] {
      std::uint64_t local = 0;
      for (;;) {
        // Claim the next frame to encode.
        const int f = Policy::critical(region, [&] {
          const int claimed = next_frame.get();
          if (claimed >= frames) return -1;
          next_frame.set(claimed + 1);
          return claimed;
        });
        if (f < 0) break;
        for (int r = 0; r < rows; ++r) {
          if (f > 0) {
            // Wait for the reference frame to be `lookahead` rows ahead.
            const int needed = r + lookahead < rows ? r + lookahead : rows;
            Policy::execute_or_wait(region, progress_cv, [&] {
              return progress[f - 1]->get() >= needed;
            });
          }
          local ^= synth_work(cfg.seed ^ (static_cast<std::uint64_t>(f) * 131
                                          + static_cast<std::uint64_t>(r)),
                              row_iters);
          // Threads encoding dependent frames may be waiting on any row.
          Policy::critical(region, [&](auto& notify) {
            progress[f]->set(r + 1);
            notify.all(progress_cv);
          });
        }
      }
      checksum.fetch_xor(local, std::memory_order_relaxed);
      (void)e;
    });
  }
  for (auto& t : pool) t.join();
  const double seconds = sw.elapsed_seconds();
  return KernelResult{seconds, checksum.load(),
                      static_cast<std::uint64_t>(frames)};
}

}  // namespace

KernelResult run_x264(System sys, const KernelConfig& cfg) {
  TMCV_PARSEC_DISPATCH(run_impl, sys, cfg);
}

}  // namespace tmcv::parsec

// Zipfian key-distribution generator, shared by every workload that draws
// zipfian keys (bench/micro_tm.cpp's contended profile, the KV load driver
// and benchmark/tmcv_bench.cpp's txn_mix) so the skew they report is
// computed one way, in one place.
//
// Construction builds the CDF once (O(n) pow() calls); each draw is a
// binary search over it (O(log n), allocation-free) fed by a caller-owned
// Xoshiro256, so sequences are deterministic given (n, theta, seed) across
// platforms -- the reproducibility contract the bench artifacts rely on.
//
// theta is the standard skew exponent: frequency(rank k) ~ 1 / k^theta.
// theta = 0 degenerates to uniform; 0.9 is the conventional "hot key"
// cache workload (~35% of draws hit the top 4 of 64 ranks).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/assert.h"
#include "util/rng.h"

namespace tmcv {

class ZipfDistribution {
 public:
  ZipfDistribution(std::size_t n, double theta) : cdf_(n) {
    TMCV_ASSERT_MSG(n > 0, "zipf needs a non-empty rank space");
    double total = 0;
    for (std::size_t i = 0; i < n; ++i)
      total += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    double acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), theta) / total;
      cdf_[i] = acc;
    }
    cdf_[n - 1] = 1.0;  // guard against float drift at the tail
  }

  // Draw a rank in [0, n); rank 0 is the hottest.
  [[nodiscard]] std::size_t operator()(Xoshiro256& rng) const noexcept {
    const double u = rng.next_double();
    std::size_t lo = 0, hi = cdf_.size() - 1;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (cdf_[mid] < u)
        lo = mid + 1;
      else
        hi = mid;
    }
    return lo;
  }

  [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }

  // P(rank < k): the mass of the k hottest ranks (for tests and docs).
  [[nodiscard]] double cumulative(std::size_t k) const noexcept {
    if (k == 0) return 0.0;
    return cdf_[k <= cdf_.size() ? k - 1 : cdf_.size() - 1];
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace tmcv

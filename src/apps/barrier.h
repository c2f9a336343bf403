// Sense-reversing (generation-counted) barrier built on a condition
// variable, replicating the pattern fluidanimate, streamcluster and
// bodytrack use in place of pthread_barrier (§5.2).
#pragma once

#include <cstdint>

#include "apps/sync_policy.h"
#include "util/assert.h"

namespace tmcv::apps {

template <typename Policy>
class CvBarrier {
 public:
  explicit CvBarrier(std::size_t parties) : parties_(parties) {
    TMCV_ASSERT(parties > 0);
  }

  // Block until all `parties` threads have arrived.
  void arrive_and_wait() {
    std::uint64_t my_generation = 0;
    bool last = false;
    Policy::critical(region_, [&](auto& notify) {
      my_generation = generation_.get();
      const std::size_t arrived = arrived_.get() + 1;
      last = arrived == parties_;
      if (last) {
        arrived_.set(0);
        generation_.set(my_generation + 1);
        notify.all(cv_);
      } else {
        arrived_.set(arrived);
      }
    });
    if (last) return;
    // The generation check re-runs inside a fresh critical section, so a
    // release that lands between our arrival and our wait is never missed.
    Policy::execute_or_wait(region_, cv_, [&] {
      return generation_.get() != my_generation;
    });
  }

  [[nodiscard]] std::size_t parties() const noexcept { return parties_; }

  [[nodiscard]] std::uint64_t generation() {
    return Policy::critical(region_, [&] { return generation_.get(); });
  }

 private:
  const std::size_t parties_;
  typename Policy::Region region_;
  typename Policy::CondVar cv_;
  typename Policy::template Cell<std::size_t> arrived_{};
  typename Policy::template Cell<std::uint64_t> generation_{};
};

}  // namespace tmcv::apps

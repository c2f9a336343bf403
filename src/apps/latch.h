// Completion latch: N parties report once each; waiters block until the
// target is reached.  Reusable via wait_and_reset (bodytrack's per-frame
// completion barrier between the main thread and its worker pool).
#pragma once

#include <cstddef>

#include "apps/sync_policy.h"

namespace tmcv::apps {

template <typename Policy>
class Latch {
 public:
  Latch() = default;

  explicit Latch(std::size_t target) { set_target(target); }

  // Set the number of report() calls wait() blocks for.
  void set_target(std::size_t target) {
    Policy::critical(region_, [&] { target_.set(target); });
  }

  // One party reports completion.
  void report() {
    Policy::critical(region_, [&](auto& notify) {
      arrived_.set(arrived_.get() + 1);
      if (target_.get() != 0 && arrived_.get() >= target_.get())
        notify.all(cv_);
    });
  }

  // Block until `target` reports have arrived (target must be set).
  void wait() {
    Policy::execute_or_wait(region_, cv_, [&] {
      return target_.get() != 0 && arrived_.get() >= target_.get();
    });
  }

  // Block, then re-arm for the next round with `target` parties.
  void wait_and_reset(std::size_t target) {
    Policy::critical(region_, [&] { target_.set(target); });
    Policy::execute_or_wait(region_, cv_,
                            [&] { return arrived_.get() >= target_.get(); });
    Policy::critical(region_, [&] { arrived_.set(0); });
  }

  [[nodiscard]] std::size_t arrived() {
    return Policy::critical(region_, [&] { return arrived_.get(); });
  }

 private:
  typename Policy::Region region_;
  typename Policy::CondVar cv_;
  typename Policy::template Cell<std::size_t> arrived_{};
  typename Policy::template Cell<std::size_t> target_{};
};

}  // namespace tmcv::apps

// Master/slave work distribution: streamcluster's pattern where a master
// thread hands a command to every slave, then waits for all of them to
// finish it (§5.2).
#pragma once

#include <cstdint>
#include <vector>

#include "apps/sync_policy.h"
#include "util/assert.h"

namespace tmcv::apps {

template <typename Policy>
class WorkDistributor {
 public:
  using Command = std::uint64_t;
  static constexpr Command kStop = ~Command{0};

  explicit WorkDistributor(std::size_t slaves)
      : slaves_(slaves), has_task_(slaves) {
    TMCV_ASSERT(slaves > 0);
  }

  // Master: broadcast a command to every slave and block until all report
  // completion.
  void distribute_and_wait(Command cmd) {
    Policy::critical(region_, [&](auto& notify) {
      command_.set(cmd);
      done_count_.set(0);
      for (std::size_t s = 0; s < slaves_; ++s) has_task_[s].set(true);
      notify.all(task_cv_);
    });
    Policy::execute_or_wait(region_, done_cv_,
                            [&] { return done_count_.get() == slaves_; });
  }

  // Master: release the slaves permanently.
  void stop() {
    Policy::critical(region_, [&](auto& notify) {
      command_.set(kStop);
      for (std::size_t s = 0; s < slaves_; ++s) has_task_[s].set(true);
      notify.all(task_cv_);
    });
  }

  // Slave: block for the next command; returns false on kStop.
  bool await_command(std::size_t self, Command& out) {
    TMCV_ASSERT(self < slaves_);
    Command cmd{};
    Policy::execute_or_wait(region_, task_cv_, [&] {
      if (!has_task_[self].get()) return false;
      has_task_[self].set(false);
      cmd = command_.get();
      return true;
    });
    if (cmd == kStop) return false;
    out = cmd;
    return true;
  }

  // Slave: report the current command finished.
  void report_done() {
    Policy::critical(region_, [&](auto& notify) {
      done_count_.set(done_count_.get() + 1);
      if (done_count_.get() == slaves_) notify.all(done_cv_);
    });
  }

 private:
  const std::size_t slaves_;
  typename Policy::Region region_;
  typename Policy::CondVar task_cv_;
  typename Policy::CondVar done_cv_;
  typename Policy::template Cell<Command> command_{};
  typename Policy::template Cell<std::size_t> done_count_{};
  std::vector<typename Policy::template Cell<bool>> has_task_;
};

}  // namespace tmcv::apps

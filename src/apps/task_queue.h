// Dynamic, load-balanced task queues with work stealing and a completion
// latch: the facesim pattern (per-thread queues filled by the main thread,
// which then waits for the workers to drain them), also used standalone as
// raytrace's multi-threaded tile queue (§5.2).
//
// Tasks are 64-bit payloads (cell-compatible); the meaning is up to the
// kernel.  One coarse region protects the whole set, mirroring the original
// taskQ's single internal lock.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "apps/sync_policy.h"
#include "util/assert.h"

namespace tmcv::apps {

template <typename Policy>
class TaskQueueSet {
 public:
  using Task = std::uint64_t;

  TaskQueueSet(std::size_t queues, std::size_t capacity_per_queue)
      : queues_(queues), capacity_(capacity_per_queue) {
    TMCV_ASSERT(queues > 0);
    rings_.reserve(queues);
    for (std::size_t q = 0; q < queues; ++q)
      rings_.emplace_back(std::make_unique<Ring>(capacity_per_queue));
  }

  // Add a task to queue q (typically by the main thread).  Fails (returns
  // false) only if that ring is full.
  bool add(std::size_t q, Task task) {
    TMCV_ASSERT(q < queues_);
    return Policy::critical(region_, [&](auto& notify) {
      Ring& ring = *rings_[q];
      const std::size_t count = ring.count.get();
      if (count == capacity_) return false;
      const std::size_t tail = ring.tail.get();
      ring.slots[tail].set(task);
      ring.tail.set((tail + 1) % capacity_);
      ring.count.set(count + 1);
      pending_.set(pending_.get() + 1);
      notify.all(work_cv_);
      return true;
    });
  }

  // Take a task, preferring our own queue and stealing round-robin
  // otherwise; blocks while every ring is empty.  Returns false when the
  // set has been stopped and no work remains.
  bool take(std::size_t self, Task& out) {
    TMCV_ASSERT(self < queues_);
    bool got = false;
    Policy::execute_or_wait(region_, work_cv_, [&] {
      // Own queue first (load balance: stealing only when starved).
      for (std::size_t i = 0; i < queues_; ++i) {
        Ring& ring = *rings_[(self + i) % queues_];
        const std::size_t count = ring.count.get();
        if (count == 0) continue;
        const std::size_t head = ring.head.get();
        out = ring.slots[head].get();
        ring.head.set((head + 1) % capacity_);
        ring.count.set(count - 1);
        got = true;
        return true;
      }
      if (stopped_.get()) {
        got = false;
        return true;
      }
      return false;  // nothing anywhere: wait for add() or stop()
    });
    return got;
  }

  // Mark one taken task finished; the completion latch trips at zero.
  void complete() {
    Policy::critical(region_, [&](auto& notify) {
      const std::size_t pending = pending_.get();
      TMCV_ASSERT(pending > 0);
      pending_.set(pending - 1);
      if (pending - 1 == 0) notify.all(done_cv_);
    });
  }

  // Main thread: block until every added task has been completed.
  void wait_all() {
    Policy::execute_or_wait(region_, done_cv_,
                            [&] { return pending_.get() == 0; });
  }

  // Wake all takers permanently (shutdown).
  void stop() {
    Policy::critical(region_, [&](auto& notify) {
      stopped_.set(true);
      notify.all(work_cv_);
    });
  }

  [[nodiscard]] std::size_t pending() {
    return Policy::critical(region_, [&] { return pending_.get(); });
  }

 private:
  struct Ring {
    explicit Ring(std::size_t capacity) : slots(capacity) {}
    std::vector<typename Policy::template Cell<Task>> slots;
    typename Policy::template Cell<std::size_t> head{};
    typename Policy::template Cell<std::size_t> tail{};
    typename Policy::template Cell<std::size_t> count{};
  };

  const std::size_t queues_;
  const std::size_t capacity_;
  typename Policy::Region region_;
  typename Policy::CondVar work_cv_;
  typename Policy::CondVar done_cv_;
  std::vector<std::unique_ptr<Ring>> rings_;
  typename Policy::template Cell<std::size_t> pending_{};
  typename Policy::template Cell<bool> stopped_{};
};

}  // namespace tmcv::apps

// Bounded multi-producer/multi-consumer FIFO queue with close semantics,
// templated on a SyncPolicy.  The condition-synchronization skeleton of
// ferret's and dedup's per-stage job queues (§5.2).
//
// Wakes: a push wakes one consumer; a pop wakes one producer only once it
// leaves the queue at most half full (see frees_producer); close() wakes
// everyone.  Each notify is named inside the section that changed the
// count, and the policy places it (sync_policy.h).
//
// T must be trivially copyable and at most 8 bytes (it lives in policy
// cells so the TxnPolicy instantiation is transactional end-to-end).
#pragma once

#include <cstdint>
#include <vector>

#include "apps/sync_policy.h"
#include "util/assert.h"

namespace tmcv::apps {

template <typename Policy, typename T = std::uint64_t>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(capacity), slots_(capacity) {
    TMCV_ASSERT(capacity > 0);
  }

  // Blocking push; returns false iff the queue was closed.
  bool push(T value) {
    bool pushed = false;
    Policy::execute_or_wait(region_, not_full_, [&](auto& notify) {
      if (closed_.get()) {
        pushed = false;
        return true;  // closed: stop waiting, report failure
      }
      const std::size_t count = count_.get();
      if (count == capacity_) return false;  // full: wait
      const std::size_t tail = tail_.get();
      slots_[tail].set(value);
      tail_.set((tail + 1) % capacity_);
      count_.set(count + 1);
      notify.one(not_empty_);
      pushed = true;
      return true;
    });
    return pushed;
  }

  // Blocking pop; returns false iff the queue is closed AND drained.
  bool pop(T& out) {
    bool popped = false;
    Policy::execute_or_wait(region_, not_empty_, [&](auto& notify) {
      const std::size_t count = count_.get();
      if (count == 0) {
        if (closed_.get()) {
          popped = false;
          return true;  // closed and empty: stop waiting
        }
        return false;  // empty: wait
      }
      const std::size_t head = head_.get();
      out = slots_[head].get();
      head_.set((head + 1) % capacity_);
      count_.set(count - 1);
      if (frees_producer(count - 1)) notify.one(not_full_);
      popped = true;
      return true;
    });
    return popped;
  }

  // Non-blocking variants.
  bool try_push(T value) {
    return Policy::critical(region_, [&](auto& notify) {
      const std::size_t count = count_.get();
      if (closed_.get() || count == capacity_) return false;
      const std::size_t tail = tail_.get();
      slots_[tail].set(value);
      tail_.set((tail + 1) % capacity_);
      count_.set(count + 1);
      notify.one(not_empty_);
      return true;
    });
  }

  bool try_pop(T& out) {
    return Policy::critical(region_, [&](auto& notify) {
      const std::size_t count = count_.get();
      if (count == 0) return false;
      const std::size_t head = head_.get();
      out = slots_[head].get();
      head_.set((head + 1) % capacity_);
      count_.set(count - 1);
      if (frees_producer(count - 1)) notify.one(not_full_);
      return true;
    });
  }

  // Close the queue: pending pops drain remaining items then fail; pushes
  // fail immediately.  Idempotent.
  void close() {
    Policy::critical(region_, [&](auto& notify) {
      closed_.set(true);
      notify.all(not_empty_);
      notify.all(not_full_);
    });
  }

  [[nodiscard]] std::size_t size() {
    return Policy::critical(region_, [&] { return count_.get(); });
  }

  [[nodiscard]] bool closed() {
    return Policy::critical(region_, [&] { return closed_.get(); });
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  // The half-empty wake, after Linux's sock_writeable(): a pop that leaves
  // `left` items wakes a producer only when at most half the queue is
  // full.  In a closed loop the queue sits full, and waking the producer on
  // every pop makes it push one item and park again while the consumer
  // pays a futex wake per item; at half empty a woken producer refills
  // several slots per wake.
  //
  // Why no producer is stranded: suppose every thread is parked while a
  // producer waits.  Every push wakes a consumer, so the consumers parked
  // on an empty queue, and the last pop left it empty.  That pop left at
  // most half, so it woke a parked producer, which found room and pushed:
  // a change after the last pop, a contradiction.  The argument needs
  // consumers that block only in pop; a pipeline of queues follows stage by
  // stage from its last one.  The rule trades promptness for fewer wakes:
  // a parked producer can stay parked while other producers keep the queue
  // above half.  close() wakes every producer.
  bool frees_producer(std::size_t left) const noexcept {
    return left <= capacity_ / 2;
  }

  const std::size_t capacity_;
  typename Policy::Region region_;
  typename Policy::CondVar not_empty_;
  typename Policy::CondVar not_full_;
  std::vector<typename Policy::template Cell<T>> slots_;
  typename Policy::template Cell<std::size_t> head_{};
  typename Policy::template Cell<std::size_t> tail_{};
  typename Policy::template Cell<std::size_t> count_{};
  typename Policy::template Cell<bool> closed_{};
};

}  // namespace tmcv::apps

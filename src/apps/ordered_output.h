// Ordered (reorder-buffer) output stage: dedup's coordination between its
// parallel compression workers and the serial output thread (§5.2).  Items
// carry sequence numbers; the output thread emits them in order inside a
// *relaxed* section (an irrevocable transaction under TxnPolicy -- the I/O
// that produces the paper's §5.4 no-scaling anomaly).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "apps/sync_policy.h"
#include "util/assert.h"

namespace tmcv::apps {

// Reorder buffer for a *single* serial output thread (dedup's actual output
// design): out-of-order items are buffered, and each insert flushes the
// ready prefix in order.  Insert never blocks, so the serial consumer can
// keep draining its input queue -- the blocking lives in the queue, which is
// where dedup's condition variables are.
template <typename Policy>
class ReorderBuffer {
 public:
  explicit ReorderBuffer(std::size_t window) : window_(window) {
    slots_.resize(window);
    valid_.resize(window);
    for (std::size_t i = 0; i < window; ++i) {
      slots_[i] = std::make_unique<typename Policy::template Cell<
          std::uint64_t>>();
      valid_[i] = std::make_unique<typename Policy::template Cell<bool>>();
    }
  }

  // Buffer (seq, payload), then emit every consecutive ready item starting
  // at the current cursor.  `emit(seq, payload)` runs inside a relaxed
  // section (irrevocable transaction under TxnPolicy) because it performs
  // the output I/O.  Requires seq < cursor + window (bounded skew, which
  // the pipeline's bounded queues guarantee).
  template <typename Emit>
  void insert(std::uint64_t seq, std::uint64_t payload, Emit&& emit) {
    Policy::critical(region_, [&] {
      const std::size_t slot = seq % window_;
      TMCV_ASSERT_MSG(!valid_[slot]->get(), "reorder window overflow");
      slots_[slot]->set(payload);
      valid_[slot]->set(true);
    });
    // Flush the ready prefix.  Single consumer: nobody else moves next_.
    for (;;) {
      std::uint64_t seq_ready = 0;
      std::uint64_t payload_ready = 0;
      const bool have = Policy::critical(region_, [&] {
        const std::uint64_t next = next_.get();
        const std::size_t slot = next % window_;
        if (!valid_[slot]->get()) return false;
        seq_ready = next;
        payload_ready = slots_[slot]->get();
        valid_[slot]->set(false);
        next_.set(next + 1);
        return true;
      });
      if (!have) break;
      Policy::relaxed(region_, [&] { emit(seq_ready, payload_ready); });
    }
  }

  [[nodiscard]] std::uint64_t next_sequence() {
    return Policy::critical(region_, [&] { return next_.get(); });
  }

 private:
  const std::size_t window_;
  typename Policy::Region region_;
  std::vector<
      std::unique_ptr<typename Policy::template Cell<std::uint64_t>>>
      slots_;
  std::vector<std::unique_ptr<typename Policy::template Cell<bool>>> valid_;
  typename Policy::template Cell<std::uint64_t> next_{};
};

}  // namespace tmcv::apps

// A small Wing & Gong linearizability checker.
//
// Takes a concurrent history (operations with real-time invocation/response
// bounds, observed results) and a sequential model, and decides whether
// some linearization of the history is consistent with the model: a total
// order that respects real time (if op A responded before op B was invoked,
// A precedes B) in which every operation's observed result matches the
// model's sequential answer.
//
// Used by tests/linearizability_test.cpp to validate apps::BoundedQueue
// against its sequential specification on real recorded executions,
// complementing the invariant-style concurrency tests.  Histories are kept
// small (the search is exponential in the worst case; real-time constraints
// prune heavily).
#pragma once

#include <cstdint>
#include <vector>

namespace tmcv::sched {

struct LinOp {
  std::uint64_t invoke_ns = 0;    // invocation timestamp
  std::uint64_t response_ns = 0;  // response timestamp
  int opcode = 0;                 // model-defined
  std::uint64_t arg = 0;
  std::uint64_t result = 0;       // observed result (model-defined encoding)
};

// SeqModel requirements:
//   * copyable value type;
//   * std::uint64_t apply(int opcode, std::uint64_t arg) -- executes the
//     operation sequentially and returns the result it would produce.
template <typename SeqModel>
bool is_linearizable(const std::vector<LinOp>& history,
                     const SeqModel& initial) {
  const std::size_t n = history.size();
  if (n == 0) return true;
  if (n > 24) return true;  // refuse unbounded search; callers keep it small

  // Iterative DFS over linearization prefixes.  `taken` is a bitmask of
  // linearized ops; candidates are operations not strictly preceded (in
  // real time) by any un-linearized operation.
  struct Choice {
    std::uint32_t taken;
    SeqModel state;
    std::size_t next_candidate;
  };
  std::vector<Choice> work;
  work.push_back(Choice{0, initial, 0});

  const std::uint32_t all = (n == 32) ? ~0u : ((1u << n) - 1);

  while (!work.empty()) {
    Choice current = work.back();
    work.pop_back();
    if (current.taken == all) return true;

    for (std::size_t i = current.next_candidate; i < n; ++i) {
      if (current.taken & (1u << i)) continue;
      // Real-time constraint: i may linearize now only if no un-taken op
      // responded before i was invoked.
      bool blocked = false;
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j || (current.taken & (1u << j))) continue;
        if (history[j].response_ns < history[i].invoke_ns) {
          blocked = true;
          break;
        }
      }
      if (blocked) continue;
      SeqModel next_state = current.state;
      const std::uint64_t expected =
          next_state.apply(history[i].opcode, history[i].arg);
      if (expected != history[i].result) continue;
      // Remember the untried siblings, then descend.
      work.push_back(Choice{current.taken, current.state, i + 1});
      work.push_back(
          Choice{current.taken | (1u << i), std::move(next_state), 0});
      break;
    }
  }
  return false;
}

}  // namespace tmcv::sched

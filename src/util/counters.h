// Counter families: the one way this library counts.
//
// A family (tm::Stats, CondVarStats, WakeStats) is a plain struct of
// std::uint64_t fields (or arrays of them) deriving from counters::Family<T>
// and listing each field once in a static `for_each_field(fn)` that calls
// fn(name, &T::field); everything below is generic over it.  Storage other
// threads read is touched only through relaxed std::atomic_ref: a racing
// snapshot is defined, each field exact at some instant, cross-field
// invariants exact only at quiescence.
//
//   bump(c, n)  owner-only increment: relaxed load + store, no locked RMW.
//   add(c, n)   shared-writer increment: relaxed fetch_add.
//   load(x)     relaxed copy of one counter or of a whole live family.
//   reset(f)    relaxed store of zero into every field of a live family.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace tmcv::counters {

inline void bump(std::uint64_t& c, std::uint64_t n = 1) noexcept {
  std::atomic_ref<std::uint64_t> r(c);
  r.store(r.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

inline void add(std::uint64_t& c, std::uint64_t n = 1) noexcept {
  std::atomic_ref<std::uint64_t>(c).fetch_add(n, std::memory_order_relaxed);
}

// C++20 has no atomic_ref<const T>; the cast only lets a load through.
[[nodiscard]] inline std::uint64_t load(const std::uint64_t& c) noexcept {
  return std::atomic_ref<std::uint64_t>(const_cast<std::uint64_t&>(c))
      .load(std::memory_order_relaxed);
}

namespace detail {
template <typename A, typename Fn>
void zip(A& a, const A& b, Fn& fn) {
  if constexpr (std::is_array_v<A>) {
    for (std::size_t i = 0; i < std::extent_v<A>; ++i) zip(a[i], b[i], fn);
  } else {
    fn(a, b);
  }
}
}  // namespace detail

// fn(a_cell, b_cell) for every counter cell of two structs of one family,
// in visitor order (array fields cell by cell).
template <typename T, typename Fn>
void for_each_cell(T& a, const T& b, Fn&& fn) {
  T::for_each_field(
      [&](const char*, auto field) { detail::zip(a.*field, b.*field, fn); });
}

template <typename T>
[[nodiscard]] T load(const T& live) noexcept {
  T out;
  for_each_cell(out, live,
                [](std::uint64_t& o, const std::uint64_t& l) { o = load(l); });
  return out;
}

template <typename T>
void reset(T& live) noexcept {
  for_each_cell(live, live, [](std::uint64_t& c, const std::uint64_t&) {
    std::atomic_ref<std::uint64_t>(c).store(0, std::memory_order_relaxed);
  });
}

// Base of every family: the fold and the delta, found by ADL.
template <typename T>
struct Family {
  friend T& operator+=(T& a, const T& b) noexcept {
    for_each_cell(a, b, [](std::uint64_t& x, std::uint64_t y) { x += y; });
    return a;
  }

  // Delta against an earlier snapshot, clamped at 0 per cell: counters
  // only grow, so a smaller cell means a reset landed between the reads.
  friend T& operator-=(T& a, const T& b) noexcept {
    for_each_cell(a, b, [](std::uint64_t& x, std::uint64_t y) {
      x = x > y ? x - y : 0;
    });
    return a;
  }
};

}  // namespace tmcv::counters

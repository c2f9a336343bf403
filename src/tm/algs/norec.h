// NOrec global state: the single commit counter behind the no-ownership-
// record backend (Dalessandro, Spear & Scott, "NOrec: Streamlining STM by
// Abolishing Ownership Records", PPoPP 2010).
//
// The counter is a sequence lock in the same even/odd idiom as
// SerialLock (tm/serial.h): even = no write-back in progress, odd = a
// committer owns the counter and is writing its redo log back.  A NOrec
// transaction's snapshot is the even value observed at begin; reads are
// consistent iff the counter still holds that value, and any movement
// triggers value-based revalidation of the read log (norec read entries
// store the value seen, not an orec version).  There is no orec traffic at
// all: conflict detection is centralised on this one cache line.
#pragma once

#include <atomic>
#include <cstdint>

#include "util/backoff.h"

namespace tmcv::tm::algs {

// The process-wide NOrec commit counter (cache-line isolated; see
// norec.cpp for the CacheAligned definition).
std::atomic<std::uint64_t>& norec_clock() noexcept;

// An even snapshot of the counter: waits out any in-flight write-back
// first, so a beginning transaction never reads half-published values.
// The wait spins for Backoff's few jittered rounds, then yields: a
// committer descheduled mid-write-back needs this CPU to finish, and a
// pure spin would hold every beginning transaction for its time slice.
inline std::uint64_t norec_begin_snapshot() noexcept {
  auto& clk = norec_clock();
  std::uint64_t t = clk.load(std::memory_order_acquire);
  if ((t & 1ull) == 0) [[likely]]
    return t;
  Backoff backoff;
  do {
    backoff.wait();
    t = clk.load(std::memory_order_acquire);
  } while ((t & 1ull) != 0);
  return t;
}

}  // namespace tmcv::tm::algs

#include "tm/epoch.h"

#include <mutex>
#include <vector>

#include "tm/api.h"
#include "tm/descriptor.h"
#include "tm/registry.h"

namespace tmcv::tm {

namespace {

struct RetiredEntry {
  void* ptr;
  GcDeleter deleter;
  std::uint64_t epoch;
};

std::atomic<std::uint64_t> g_pending{0};

std::mutex& orphan_mutex() {
  static std::mutex m;
  return m;
}
// Immortal, never destroyed: a thread exiting during static destruction can
// still orphan its bin here, and the retired nodes stay reachable at exit.
std::vector<RetiredEntry>& orphan_list() {
  static auto* list = new std::vector<RetiredEntry>;
  return *list;
}

// Per-thread bin of retired objects; leftovers are orphaned at thread exit
// so a short-lived thread's garbage is eventually freed by survivors.
struct ThreadBin {
  std::vector<RetiredEntry> entries;

  ~ThreadBin() {
    if (entries.empty()) return;
    std::lock_guard<std::mutex> guard(orphan_mutex());
    auto& orphans = orphan_list();
    orphans.insert(orphans.end(), entries.begin(), entries.end());
  }
};

ThreadBin& thread_bin() {
  thread_local ThreadBin bin;
  return bin;
}

// Free every entry in `entries` whose stamp is older than `min_epoch`;
// compacts in place.
void sweep(std::vector<RetiredEntry>& entries, std::uint64_t min_epoch) {
  std::size_t kept = 0;
  for (RetiredEntry& e : entries) {
    if (e.epoch < min_epoch) {
      e.deleter(e.ptr);
      g_pending.fetch_sub(1, std::memory_order_relaxed);
    } else {
      entries[kept++] = e;
    }
  }
  entries.resize(kept);
}

void retire_now(void* ptr, GcDeleter deleter) {
  ThreadBin& bin = thread_bin();
  bin.entries.push_back(RetiredEntry{
      ptr, deleter, gc_epoch_word().load(std::memory_order_seq_cst)});
  g_pending.fetch_add(1, std::memory_order_relaxed);
  if (bin.entries.size() % 16 == 0) gc_collect();
}

}  // namespace

void retire(void* ptr, GcDeleter deleter) {
  if (descriptor().in_txn()) {
    // Defer to commit: if the enclosing transaction aborts, its unlink
    // rolled back and the node must NOT be retired.
    on_commit([ptr, deleter] { retire_now(ptr, deleter); });
    return;
  }
  retire_now(ptr, deleter);
}

void detail_gc_register_alloc(void* ptr, GcDeleter deleter) {
  if (!descriptor().in_txn()) return;
  // Roll the allocation back if the transaction aborts.
  on_abort([ptr, deleter] { deleter(ptr); });
}

void gc_collect() {
  auto& word = gc_epoch_word();
  const std::uint64_t current = word.load(std::memory_order_seq_cst);

  // Compute the oldest epoch any in-flight transaction announced.  Threads
  // between activity_begin and announce_epoch publish conservatively stale
  // (smaller) values, which only delays frees -- never makes them unsafe.
  std::uint64_t min_epoch = current;
  bool all_current = true;
  Registry& reg = registry();
  const std::uint64_t n = reg.high_water();
  for (std::uint64_t slot = 0; slot < n; ++slot) {
    const TxDescriptor* desc = reg.descriptor(slot);
    if (desc == nullptr) continue;
    if ((desc->activity() & 1ull) == 0) continue;  // not in a transaction
    const std::uint64_t announced = desc->announced_epoch();
    if (announced < min_epoch) min_epoch = announced;
    if (announced != current) all_current = false;
  }

  sweep(thread_bin().entries, min_epoch);

  // Drain orphans opportunistically (never block a fast path on the lock).
  {
    std::unique_lock<std::mutex> guard(orphan_mutex(), std::try_to_lock);
    if (guard.owns_lock()) sweep(orphan_list(), min_epoch);
  }

  // Advance the epoch once every in-flight transaction has caught up; a
  // second collect after the advance can then free this epoch's garbage.
  if (all_current) {
    std::uint64_t expected = current;
    word.compare_exchange_strong(expected, current + 1,
                                 std::memory_order_seq_cst);
  }
}

std::uint64_t gc_pending() {
  return g_pending.load(std::memory_order_relaxed);
}

std::uint64_t gc_epoch() {
  return gc_epoch_word().load(std::memory_order_seq_cst);
}

}  // namespace tmcv::tm

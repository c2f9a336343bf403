// Sharded transactional hash map with per-shard LRU eviction: the store
// behind the KV-cache server (src/apps/kv/), usable anywhere a bounded
// transactional cache is needed.
//
// Layout.  Keys hash once; the HIGH bits of the mixed hash pick the shard
// and the LOW bits pick the bucket inside it, so any two keys that share a
// shard still spread across its buckets and -- the property the sharding
// exists for -- a transaction touches exactly one shard, making cross-shard
// conflicts structurally impossible for single-key operations.  Each shard
// is a chained hash table with a fixed bucket array whose nodes are
// additionally threaded on an intrusive doubly-linked recency list:
// head = most recent, tail = eviction victim.
//
// Every operation is one flat transaction (tm::atomically merges into an
// enclosing transaction, so callers can compose a get with other state).
// GET is a *writing* transaction -- it splices the touched node to the list
// head and bumps the hit/miss counter -- which is what makes the recency
// order and the statistics exact under concurrency instead of
// approximately-LRU: the cost is bounded to the one shard the key lives in.
//
// Invariants (enforced by tests/tmds_lru_test.cpp):
//   * per-shard size never exceeds capacity; inserting into a full shard
//     evicts exactly the list tail, atomically with the insert;
//   * hits + misses == completed gets, summed exactly across shards
//     (transactional counters, no relaxed drift);
//   * eviction order is strict LRU over the shard's get/put history.
//
// Keys and values must be cell-compatible (trivially copyable, <= 8 bytes),
// like every tm::var payload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "tm/api.h"
#include "tm/epoch.h"
#include "tm/var.h"
#include "util/assert.h"

namespace tmcv::tmds {

// Aggregated (or per-shard) cache statistics; exact at quiescence and
// transactionally consistent per shard while running.
struct LruStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t size = 0;

  LruStats& operator+=(const LruStats& o) noexcept {
    hits += o.hits;
    misses += o.misses;
    evictions += o.evictions;
    size += o.size;
    return *this;
  }
};

// One shard: bounded chained hash table + intrusive LRU list.  Usable on
// its own (TxLruMap with one shard is exactly this), but normally owned by
// TxLruMap below.
template <typename K, typename V>
class TxLruShard {
 public:
  TxLruShard(std::size_t capacity, std::size_t buckets)
      : capacity_(capacity), buckets_(buckets) {
    TMCV_ASSERT_MSG(capacity > 0, "LRU shard needs capacity >= 1");
    TMCV_ASSERT_MSG((buckets & (buckets - 1)) == 0,
                    "bucket count must be a power of two");
  }

  TxLruShard(const TxLruShard&) = delete;
  TxLruShard& operator=(const TxLruShard&) = delete;

  ~TxLruShard() {
    // Quiescent teardown: walk the recency list (it threads every node).
    Node* n = head_.load_plain();
    while (n != nullptr) {
      Node* next = n->next.load_plain();
      delete n;
      n = next;
    }
  }

  // Lookup; a hit refreshes the key's recency.
  bool get(K key, V& out) {
    return tm::atomically([&] {
      Node* n = find(key);
      if (n == nullptr) {
        misses_.store(misses_.load() + 1);
        return false;
      }
      hits_.store(hits_.load() + 1);
      touch(n);
      out = n->value.load();
      return true;
    });
  }

  // Insert or overwrite (both refresh recency); returns true when the key
  // was newly inserted.  A full shard evicts its LRU tail in the same
  // transaction, so `size <= capacity` holds at every commit point.
  bool put(K key, V value) {
    return tm::atomically([&] {
      Node* n = find(key);
      if (n != nullptr) {
        n->value.store(value);
        touch(n);
        return false;
      }
      if (size_.load() == capacity_) evict_tail();
      n = tm::tx_new<Node>();
      n->key.store(key);
      n->value.store(value);
      link_into_bucket(n);
      link_at_head(n);
      size_.store(size_.load() + 1);
      return true;
    });
  }

  // Remove; false if absent.
  bool erase(K key) {
    return tm::atomically([&] {
      Node* n = find(key);
      if (n == nullptr) return false;
      unlink(n);
      tm::retire(n);
      return true;
    });
  }

  [[nodiscard]] bool contains(K key) {
    V ignored;
    return get(key, ignored);
  }

  [[nodiscard]] std::size_t size() const {
    return tm::atomically([&] { return size_.load(); });
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  [[nodiscard]] LruStats stats() const {
    return tm::atomically([&] {
      LruStats s;
      s.hits = hits_.load();
      s.misses = misses_.load();
      s.evictions = evictions_.load();
      s.size = size_.load();
      return s;
    });
  }

  // Keys in recency order, most recent first (tests and debugging; runs as
  // one transaction over the whole shard).
  [[nodiscard]] std::vector<K> keys_by_recency() const {
    return tm::atomically([&] {
      std::vector<K> out;
      for (Node* n = head_.load(); n != nullptr; n = n->next.load())
        out.push_back(n->key.load());
      return out;
    });
  }

 private:
  struct Node {
    tm::var<K> key;
    tm::var<V> value;
    tm::var<Node*> hnext{nullptr};  // hash-chain link
    tm::var<Node*> prev{nullptr};   // recency list, toward head (MRU)
    tm::var<Node*> next{nullptr};   // recency list, toward tail (LRU)
  };

  [[nodiscard]] tm::var<Node*>& bucket_for(K key) const {
    // Shards re-mix with their own constant, so the bits the sharded map
    // consumed for shard selection don't thin out the bucket spread.
    const auto h =
        (static_cast<std::uint64_t>(key) ^ 0x94d049bb133111ebull) *
        0x9e3779b97f4a7c15ull;
    return buckets_[h & (buckets_.size() - 1)];
  }

  [[nodiscard]] Node* find(K key) const {
    for (Node* n = bucket_for(key).load(); n != nullptr; n = n->hnext.load())
      if (n->key.load() == key) return n;
    return nullptr;
  }

  void link_into_bucket(Node* n) {
    tm::var<Node*>& bucket = bucket_for(n->key.load());
    n->hnext.store(bucket.load());
    bucket.store(n);
  }

  void unlink_from_bucket(Node* n) {
    tm::var<Node*>& bucket = bucket_for(n->key.load());
    Node* prev = nullptr;
    for (Node* c = bucket.load(); c != nullptr; c = c->hnext.load()) {
      if (c == n) {
        if (prev == nullptr)
          bucket.store(n->hnext.load());
        else
          prev->hnext.store(n->hnext.load());
        return;
      }
      prev = c;
    }
    TMCV_ASSERT_MSG(false, "node missing from its hash bucket");
  }

  void link_at_head(Node* n) {
    Node* h = head_.load();
    n->prev.store(nullptr);
    n->next.store(h);
    if (h != nullptr)
      h->prev.store(n);
    else
      tail_.store(n);
    head_.store(n);
  }

  void unlink_from_list(Node* n) {
    Node* p = n->prev.load();
    Node* x = n->next.load();
    if (p != nullptr)
      p->next.store(x);
    else
      head_.store(x);
    if (x != nullptr)
      x->prev.store(p);
    else
      tail_.store(p);
  }

  // Splice an existing node to the list head (recency refresh).
  void touch(Node* n) {
    if (head_.load() == n) return;
    unlink_from_list(n);
    link_at_head(n);
  }

  // Full unlink (bucket + list) and size decrement; caller retires.
  void unlink(Node* n) {
    unlink_from_bucket(n);
    unlink_from_list(n);
    size_.store(size_.load() - 1);
  }

  void evict_tail() {
    Node* victim = tail_.load();
    TMCV_ASSERT_MSG(victim != nullptr, "full shard with empty LRU list");
    unlink(victim);
    evictions_.store(evictions_.load() + 1);
    tm::retire(victim);
  }

  const std::size_t capacity_;
  mutable std::vector<tm::var<Node*>> buckets_;
  tm::var<Node*> head_{nullptr};
  tm::var<Node*> tail_{nullptr};
  tm::var<std::size_t> size_{0};
  tm::var<std::uint64_t> hits_{0};
  tm::var<std::uint64_t> misses_{0};
  tm::var<std::uint64_t> evictions_{0};
};

// The sharded map.  Shard count is a power of two; selection uses the top
// log2(shards) bits of the mixed key hash so single-key transactions stay
// shard-local and hot keys spread by hash, not by value locality.
template <typename K, typename V>
class TxLruMap {
 public:
  TxLruMap(std::size_t shards, std::size_t capacity_per_shard,
           std::size_t buckets_per_shard)
      : shift_(64 - log2_of(shards)) {
    shards_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i)
      shards_.push_back(std::make_unique<TxLruShard<K, V>>(
          capacity_per_shard, buckets_per_shard));
  }

  bool get(K key, V& out) { return shard_for(key).get(key, out); }
  bool put(K key, V value) { return shard_for(key).put(key, value); }
  bool erase(K key) { return shard_for(key).erase(key); }
  [[nodiscard]] bool contains(K key) { return shard_for(key).contains(key); }

  // Exact sum of per-shard sizes (one transaction per shard; exact at
  // quiescence, momentarily staggered while writers run -- same contract as
  // the metrics registry).
  [[nodiscard]] std::size_t size() const {
    std::size_t total = 0;
    for (const auto& s : shards_) total += s->size();
    return total;
  }

  [[nodiscard]] LruStats stats() const {
    LruStats total;
    for (const auto& s : shards_) total += s->stats();
    return total;
  }

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  [[nodiscard]] std::size_t shard_index(K key) const noexcept {
    return shift_ >= 64 ? 0 : mix(key) >> shift_;
  }

  [[nodiscard]] TxLruShard<K, V>& shard(std::size_t i) { return *shards_[i]; }

 private:
  [[nodiscard]] static std::uint64_t mix(K key) noexcept {
    return static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ull;
  }

  [[nodiscard]] static unsigned log2_of(std::size_t shards) noexcept {
    TMCV_ASSERT_MSG(shards > 0 && (shards & (shards - 1)) == 0,
                    "shard count must be a power of two");
    unsigned bits = 0;
    while ((std::size_t{1} << bits) < shards) ++bits;
    return bits;
  }

  [[nodiscard]] TxLruShard<K, V>& shard_for(K key) const {
    return *shards_[shift_ >= 64 ? 0 : mix(key) >> shift_];
  }

  const unsigned shift_;
  std::vector<std::unique_ptr<TxLruShard<K, V>>> shards_;
};

}  // namespace tmcv::tmds

// Transactional skiplist: the ordered map of the tmds family.
//
// A classic singly-linked skiplist whose every pointer is a tm::var, so any
// operation -- point lookup, insert, erase, lower_bound, range scan -- is one
// flat transaction and composes atomically with other transactional state.
// There is no fine-grained locking and no marking protocol: conflict
// detection is the TM runtime's job, which keeps the structure an honest
// workload for the backends rather than a concurrency algorithm of its own.
//
// Deterministic heights.  A node's tower height is a pure function of its
// key (trailing-zero count of the mixed key hash, capped at kMaxLevel), NOT
// a random draw.  Two consequences the tests and benchmarks rely on:
//   * replay independence -- re-executing the same operation sequence (in
//     any schedule) produces the identical shape, so abort/retry storms
//     cannot skew the expected O(log n) search paths;
//   * erase/insert round trips are shape-stable: deleting and re-inserting
//     a key restores exactly the prior towers.
// The usual probabilistic height distribution (P(h >= k) = 2^-k) is
// preserved because the hash bits are uniform.
//
// Conflict footprint (see docs/DATASTRUCTURES.md): a search at height h
// reads O(h + log n) tower words; an insert writes its preds' pointers at
// each of the node's levels (1 + expected 1 extra level); tall towers make
// the head node a natural hot stripe under write-heavy mixes -- precisely
// the read-set-validation stress the ordered benchmarks exist to measure.
#pragma once

#include <cstddef>
#include <cstdint>

#include "obs/attribution.h"
#include "tm/api.h"
#include "tm/epoch.h"
#include "tm/var.h"
#include "util/assert.h"

namespace tmcv::tmds {

template <typename K, typename V>
class TxSkipList {
 public:
  // Heights 1..kMaxLevel cover ~2^kMaxLevel keys at the expected
  // half-density per level; 16 is comfortable for every committed workload.
  static constexpr std::size_t kMaxLevel = 16;

  TxSkipList() : head_(tm::tx_new<Node>(K{}, V{}, kMaxLevel)) {}

  TxSkipList(const TxSkipList&) = delete;
  TxSkipList& operator=(const TxSkipList&) = delete;

  ~TxSkipList() {
    // Quiescent teardown: level-0 threads every node.
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->next[0].load_plain();
      delete n;
      n = next;
    }
  }

  // Lookup; false if absent.
  bool get(K key, V& out) const {
    return tm::atomically([&] {
      TMCV_TXN_SITE("skiplist.get");
      Node* n = find_geq(key);
      if (n == nullptr || n->key != key) return false;
      out = n->value.load();
      return true;
    });
  }

  [[nodiscard]] bool contains(K key) const {
    V ignored;
    return get(key, ignored);
  }

  // Insert or overwrite; true when the key was newly inserted.
  bool insert(K key, V value) {
    return tm::atomically([&] {
      TMCV_TXN_SITE("skiplist.insert");
      Node* preds[kMaxLevel];
      Node* n = find_path(key, preds);
      if (n != nullptr && n->key == key) {
        n->value.store(value);
        return false;
      }
      const std::size_t h = height_of(key);
      Node* fresh = tm::tx_new<Node>(key, value, h);
      for (std::size_t lvl = 0; lvl < h; ++lvl) {
        fresh->next[lvl].store(preds[lvl]->next[lvl].load());
        preds[lvl]->next[lvl].store(fresh);
      }
      size_.store(size_.load() + 1);
      return true;
    });
  }

  // Alias with TxLruMap::put's signature and result.
  bool put(K key, V value) { return insert(key, value); }

  // Remove; false if absent.
  bool erase(K key) {
    return tm::atomically([&] {
      TMCV_TXN_SITE("skiplist.erase");
      Node* preds[kMaxLevel];
      Node* n = find_path(key, preds);
      if (n == nullptr || n->key != key) return false;
      for (std::size_t lvl = 0; lvl < n->height; ++lvl) {
        // The pred at each level either points at n (n reaches this level)
        // or past it already.
        if (preds[lvl]->next[lvl].load() == n)
          preds[lvl]->next[lvl].store(n->next[lvl].load());
      }
      size_.store(size_.load() - 1);
      tm::retire(n);
      return true;
    });
  }

  // Smallest key >= `key`; false when no such key exists.
  bool lower_bound(K key, K& out_key, V& out_value) const {
    return tm::atomically([&] {
      TMCV_TXN_SITE("skiplist.lower_bound");
      Node* n = find_geq(key);
      if (n == nullptr) return false;
      out_key = n->key;
      out_value = n->value.load();
      return true;
    });
  }

  // Visit every (key, value) with lo <= key < hi in ascending order, inside
  // ONE transaction: the visited pairs form a consistent snapshot (a
  // concurrent writer either serializes entirely before or after the scan).
  // `fn(K, V)` returning bool false stops the scan early.  Returns the
  // number of pairs visited.
  template <typename Fn>
  std::size_t range(K lo, K hi, Fn&& fn) const {
    return tm::atomically([&] {
      TMCV_TXN_SITE("skiplist.range");
      std::size_t visited = 0;
      for (Node* n = find_geq(lo); n != nullptr && n->key < hi;
           n = n->next[0].load()) {
        ++visited;
        if (!fn(n->key, n->value.load())) break;
      }
      return visited;
    });
  }

  [[nodiscard]] std::size_t size() const {
    return tm::atomically([&] { return size_.load(); });
  }

  [[nodiscard]] bool empty() const { return size() == 0; }

  // Deterministic tower height for `key` (exposed for tests: replay
  // independence is checkable without poking internals).
  [[nodiscard]] static std::size_t height_of(K key) noexcept {
    const std::uint64_t h =
        (static_cast<std::uint64_t>(key) ^ 0xa0761d6478bd642full) *
        0x9e3779b97f4a7c15ull;
    // Trailing zeros of a uniform word: P(>= k) = 2^-k, the classic
    // skiplist level law, but derived from the key alone.
    std::size_t level = 1;
    std::uint64_t bits = h;
    while ((bits & 1) == 0 && level < kMaxLevel) {
      ++level;
      bits >>= 1;
    }
    return level;
  }

 private:
  struct Node {
    Node(K k, V v, std::size_t h) : key(k), value(v), height(h) {}
    const K key;          // immutable after insert: read without
                          // instrumentation (publication is ordered by the
                          // transactional pointer store that links the node)
    tm::var<V> value;
    const std::size_t height;
    tm::array<Node*, kMaxLevel> next;  // levels [height, kMaxLevel) unused
  };

  // In-transaction: walk the towers, recording the last node strictly
  // before `key` at every level; returns preds[0]'s level-0 successor (the
  // first node with key >= `key`, or nullptr).
  Node* find_path(K key, Node* preds[kMaxLevel]) const {
    Node* pred = head_;
    for (std::size_t lvl = kMaxLevel; lvl-- > 0;) {
      for (Node* cur = pred->next[lvl].load();
           cur != nullptr && cur->key < key; cur = pred->next[lvl].load())
        pred = cur;
      preds[lvl] = pred;
    }
    return pred->next[0].load();
  }

  Node* find_geq(K key) const {
    Node* preds[kMaxLevel];
    return find_path(key, preds);
  }

  Node* const head_;  // sentinel, full height, key unused
  tm::var<std::size_t> size_{0};
};

}  // namespace tmcv::tmds

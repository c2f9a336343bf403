// Transactional sorted singly-linked list: the worst-case traversal
// structure of the tmds ordered family.
//
// Same interface as TxSkipList/TxBst, but every operation walks the list
// from the head: O(n) transactional reads per lookup.  That makes it the
// deliberate stress case for read-set cost -- on the orec backends every
// hop is a stripe lookup plus a version check and the read set grows with
// the traversal, while NOrec logs (address, value) pairs and validates
// against one global counter, which is why the list is the one structure
// where NOrec leads on every access mix (see docs/BACKENDS.md §2 for the
// measurements and docs/DATASTRUCTURES.md for the footprint table).
//
// Nodes are immutable in key (like the skiplist) and linked through one
// tm::var pointer; erase unlinks and epoch-retires.
#pragma once

#include <cstddef>

#include "obs/attribution.h"
#include "tm/api.h"
#include "tm/epoch.h"
#include "tm/var.h"

namespace tmcv::tmds {

template <typename K, typename V>
class TxSortedList {
 public:
  TxSortedList() = default;

  TxSortedList(const TxSortedList&) = delete;
  TxSortedList& operator=(const TxSortedList&) = delete;

  ~TxSortedList() {
    Node* n = head_.load_plain();
    while (n != nullptr) {
      Node* next = n->next.load_plain();
      delete n;
      n = next;
    }
  }

  // Lookup; false if absent.
  bool get(K key, V& out) const {
    return tm::atomically([&] {
      TMCV_TXN_SITE("list.get");
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
      TMCV_TXN_SITE("list.insert");
      tm::var<Node*>* link = &head_;
      Node* n = link->load();
      while (n != nullptr && n->key < key) {
        link = &n->next;
        n = link->load();
      }
      if (n != nullptr && n->key == key) {
        n->value.store(value);
        return false;
      }
      Node* fresh = tm::tx_new<Node>(key, value);
      fresh->next.store(n);
      link->store(fresh);
      size_.store(size_.load() + 1);
      return true;
    });
  }

  bool put(K key, V value) { return insert(key, value); }

  // Remove; false if absent.
  bool erase(K key) {
    return tm::atomically([&] {
      TMCV_TXN_SITE("list.erase");
      tm::var<Node*>* link = &head_;
      Node* n = link->load();
      while (n != nullptr && n->key < key) {
        link = &n->next;
        n = link->load();
      }
      if (n == nullptr || n->key != key) return false;
      link->store(n->next.load());
      size_.store(size_.load() - 1);
      tm::retire(n);
      return true;
    });
  }

  // Smallest key >= `key`; false when no such key exists.
  bool lower_bound(K key, K& out_key, V& out_value) const {
    return tm::atomically([&] {
      TMCV_TXN_SITE("list.lower_bound");
      Node* n = find_geq(key);
      if (n == nullptr) return false;
      out_key = n->key;
      out_value = n->value.load();
      return true;
    });
  }

  // Visit every (key, value) with lo <= key < hi in ascending order, as one
  // transaction (consistent snapshot).  `fn(K, V)` returning false stops
  // early.  Returns the number of pairs visited.
  template <typename Fn>
  std::size_t range(K lo, K hi, Fn&& fn) const {
    return tm::atomically([&] {
      TMCV_TXN_SITE("list.range");
      std::size_t visited = 0;
      for (Node* n = find_geq(lo); n != nullptr && n->key < hi;
           n = n->next.load()) {
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

 private:
  struct Node {
    Node(K k, V v) : key(k), value(v) {}
    const K key;  // immutable after publication (see tx_skiplist.h)
    tm::var<V> value;
    tm::var<Node*> next{nullptr};
  };

  [[nodiscard]] Node* find_geq(K key) const {
    Node* n = head_.load();
    while (n != nullptr && n->key < key) n = n->next.load();
    return n;
  }

  mutable tm::var<Node*> head_{nullptr};
  tm::var<std::size_t> size_{0};
};

}  // namespace tmcv::tmds

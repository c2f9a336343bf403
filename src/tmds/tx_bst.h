// Transactional binary search tree: the cheap contrast point to the
// skiplist.
//
// An internal (values in every node), deliberately UNBALANCED BST offering
// the same ordered-map interface as TxSkipList.  No rotations means the
// write set of an insert/erase is tiny (one or two pointer stores), but the
// read path is at the mercy of the key distribution: random keys give
// O(log n), monotone keys degrade to a linked list -- which is exactly the
// point.  The vacation benchmark (its customer table is a TxBst) makes the
// permissiveness/overhead trade-off measurable instead of argued (read-set
// size drives validation cost on the orec backends; NOrec revalidates by
// value, so deep read paths cost it only on commit traffic).
//
// Erase uses the textbook internal scheme: a node with two children swaps
// payload with its in-order successor (leftmost node of the right subtree)
// and unlinks the successor, so structural surgery is always on a node with
// at most one child.  Keys must therefore be MUTABLE here, unlike the
// skiplist's immutable keys -- both key and value live in tm::var cells.
#pragma once

#include <cstddef>

#include "obs/attribution.h"
#include "tm/api.h"
#include "tm/epoch.h"
#include "tm/var.h"

namespace tmcv::tmds {

template <typename K, typename V>
class TxBst {
 public:
  TxBst() = default;

  TxBst(const TxBst&) = delete;
  TxBst& operator=(const TxBst&) = delete;

  ~TxBst() { delete_subtree(root_.load_plain()); }

  // Lookup; false if absent.
  bool get(K key, V& out) const {
    return tm::atomically([&] {
      TMCV_TXN_SITE("bst.get");
      Node* n = find(key);
      if (n == nullptr) return false;
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
      TMCV_TXN_SITE("bst.insert");
      tm::var<Node*>* link = &root_;
      for (Node* n = link->load(); n != nullptr; n = link->load()) {
        const K k = n->key.load();
        if (key == k) {
          n->value.store(value);
          return false;
        }
        link = key < k ? &n->left : &n->right;
      }
      Node* fresh = tm::tx_new<Node>();
      fresh->key.store(key);
      fresh->value.store(value);
      link->store(fresh);
      size_.store(size_.load() + 1);
      return true;
    });
  }

  bool put(K key, V value) { return insert(key, value); }

  // Remove; false if absent.
  bool erase(K key) {
    return tm::atomically([&] {
      TMCV_TXN_SITE("bst.erase");
      tm::var<Node*>* link = &root_;
      Node* n = link->load();
      while (n != nullptr) {
        const K k = n->key.load();
        if (key == k) break;
        link = key < k ? &n->left : &n->right;
        n = link->load();
      }
      if (n == nullptr) return false;
      if (n->left.load() != nullptr && n->right.load() != nullptr) {
        // Two children: pull up the in-order successor's payload, then
        // unlink the successor (which has no left child by construction).
        tm::var<Node*>* slink = &n->right;
        Node* s = slink->load();
        while (s->left.load() != nullptr) {
          slink = &s->left;
          s = slink->load();
        }
        n->key.store(s->key.load());
        n->value.store(s->value.load());
        link = slink;
        n = s;
      }
      Node* child = n->left.load() != nullptr ? n->left.load()
                                              : n->right.load();
      link->store(child);
      size_.store(size_.load() - 1);
      tm::retire(n);
      return true;
    });
  }

  // Smallest key >= `key`; false when no such key exists.
  bool lower_bound(K key, K& out_key, V& out_value) const {
    return tm::atomically([&] {
      TMCV_TXN_SITE("bst.lower_bound");
      Node* best = nullptr;
      for (Node* n = root_.load(); n != nullptr;) {
        const K k = n->key.load();
        if (k < key) {
          n = n->right.load();
        } else {
          best = n;  // candidate; a smaller qualifying key may sit left
          if (k == key) break;
          n = n->left.load();
        }
      }
      if (best == nullptr) return false;
      out_key = best->key.load();
      out_value = best->value.load();
      return true;
    });
  }

  // Visit every (key, value) with lo <= key < hi in ascending order, as one
  // transaction (consistent snapshot).  `fn(K, V)` returning false stops
  // early.  Returns the number of pairs visited.
  template <typename Fn>
  std::size_t range(K lo, K hi, Fn&& fn) const {
    return tm::atomically([&] {
      TMCV_TXN_SITE("bst.range");
      std::size_t visited = 0;
      visit_range(root_.load(), lo, hi, visited, fn);
      return visited;
    });
  }

  [[nodiscard]] std::size_t size() const {
    return tm::atomically([&] { return size_.load(); });
  }

  [[nodiscard]] bool empty() const { return size() == 0; }

 private:
  struct Node {
    tm::var<K> key;
    tm::var<V> value;
    tm::var<Node*> left{nullptr};
    tm::var<Node*> right{nullptr};
  };

  [[nodiscard]] Node* find(K key) const {
    for (Node* n = root_.load(); n != nullptr;) {
      const K k = n->key.load();
      if (key == k) return n;
      n = key < k ? n->left.load() : n->right.load();
    }
    return nullptr;
  }

  // In-order walk pruned to [lo, hi); returns false once fn stops the scan.
  template <typename Fn>
  bool visit_range(Node* n, K lo, K hi, std::size_t& visited, Fn& fn) const {
    if (n == nullptr) return true;
    const K k = n->key.load();
    if (lo < k && !visit_range(n->left.load(), lo, hi, visited, fn))
      return false;
    if (lo <= k && k < hi) {
      ++visited;
      if (!fn(k, n->value.load())) return false;
    }
    if (k < hi) return visit_range(n->right.load(), lo, hi, visited, fn);
    return true;
  }

  static void delete_subtree(Node* n) {
    if (n == nullptr) return;
    delete_subtree(n->left.load_plain());
    delete_subtree(n->right.load_plain());
    delete n;
  }

  mutable tm::var<Node*> root_{nullptr};
  tm::var<std::size_t> size_{0};
};

}  // namespace tmcv::tmds

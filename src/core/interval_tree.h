// An augmented treap of write intervals, realizing the timestamp-versioned
// `ongoing_ts` structure of Algorithm 3. A transaction T writing key k
// contributes the interval [T.start_ts, T.commit_ts] to k's tree; the
// NOCONFLICT axiom fails exactly when two intervals of the same key
// overlap. Overlap queries are O(log n + answer) regardless of history
// pathology, which a plain ordered map of disjoint intervals cannot
// guarantee. GC costs: see the performance notes in ROADMAP.md.
#ifndef CHRONOS_CORE_INTERVAL_TREE_H_
#define CHRONOS_CORE_INTERVAL_TREE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/gc_triggers.h"
#include "core/state_io.h"
#include "core/types.h"

namespace chronos {

/// One write interval: transaction `tid` held key ownership over
/// [start, end] (its start..commit span).
struct WriteInterval {
  Timestamp start = 0;
  Timestamp end = 0;
  TxnId tid = kTxnNone;
};

/// Augmented treap keyed by (start, tid) with subtree-max end times.
/// Supports insert, erase, stabbing and range-overlap queries, and
/// bulk eviction of intervals ending at or before a watermark.
class IntervalTree {
 public:
  IntervalTree() = default;
  IntervalTree(IntervalTree&&) = default;
  IntervalTree& operator=(IntervalTree&&) = default;

  /// Inserts an interval. Duplicate (start, tid) pairs are allowed but do
  /// not occur in well-formed use (one interval per txn per key).
  void Insert(const WriteInterval& iv) {
    root_ = InsertNode(std::move(root_), MakeNode(iv));
    ++size_;
  }

  /// Removes the interval with exactly this (start, tid). Returns whether
  /// an interval was removed.
  bool Erase(Timestamp start, TxnId tid) {
    bool removed = false;
    root_ = EraseNode(std::move(root_), start, tid, &removed);
    if (removed) --size_;
    return removed;
  }

  /// Appends to `out` every stored interval that overlaps [lo, hi]
  /// (closed-closed overlap: iv.start <= hi && iv.end >= lo).
  void QueryOverlap(Timestamp lo, Timestamp hi,
                    std::vector<WriteInterval>* out) const {
    QueryNode(root_.get(), lo, hi, out);
  }

  /// Appends every interval containing the point `ts`.
  void QueryStab(Timestamp ts, std::vector<WriteInterval>* out) const {
    QueryNode(root_.get(), ts, ts, out);
  }

  /// Removes every interval with end <= `ts`; appends them to `evicted`
  /// when non-null. Returns the number removed. Used by GC: an interval
  /// wholly below the watermark can no longer overlap future arrivals
  /// above it.
  size_t EvictEndingUpTo(Timestamp ts, std::vector<WriteInterval>* evicted) {
    std::vector<WriteInterval> all;
    CollectEndingUpTo(root_.get(), ts, &all);
    for (const auto& iv : all) {
      Erase(iv.start, iv.tid);
      if (evicted) evicted->push_back(iv);
    }
    return all.size();
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Appends every stored interval to `out` in unspecified order
  /// (checkpoint serialization; callers sort for determinism).
  void CollectAllIntervals(std::vector<WriteInterval>* out) const {
    CollectAll(root_.get(), out);
  }

 private:
  struct Node {
    WriteInterval iv;
    Timestamp max_end;
    uint64_t prio;
    std::unique_ptr<Node> left, right;
  };
  using NodePtr = std::unique_ptr<Node>;

  static uint64_t NextPrio() {
    // xorshift64*; deterministic per-process sequence is fine for a treap.
    static thread_local uint64_t state = 0x9E3779B97F4A7C15ULL;
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545F4914F6CDD1DULL;
  }

  static NodePtr MakeNode(const WriteInterval& iv) {
    auto n = std::make_unique<Node>();
    n->iv = iv;
    n->max_end = iv.end;
    n->prio = NextPrio();
    return n;
  }

  static void Pull(Node* n) {
    n->max_end = n->iv.end;
    if (n->left) n->max_end = std::max(n->max_end, n->left->max_end);
    if (n->right) n->max_end = std::max(n->max_end, n->right->max_end);
  }

  static bool KeyLess(const WriteInterval& a, const WriteInterval& b) {
    if (a.start != b.start) return a.start < b.start;
    return a.tid < b.tid;
  }

  static NodePtr RotateRight(NodePtr n) {
    NodePtr l = std::move(n->left);
    n->left = std::move(l->right);
    Pull(n.get());
    l->right = std::move(n);
    Pull(l.get());
    return l;
  }

  static NodePtr RotateLeft(NodePtr n) {
    NodePtr r = std::move(n->right);
    n->right = std::move(r->left);
    Pull(n.get());
    r->left = std::move(n);
    Pull(r.get());
    return r;
  }

  static NodePtr InsertNode(NodePtr n, NodePtr fresh) {
    if (!n) return fresh;
    if (KeyLess(fresh->iv, n->iv)) {
      n->left = InsertNode(std::move(n->left), std::move(fresh));
      Pull(n.get());
      if (n->left->prio > n->prio) n = RotateRight(std::move(n));
    } else {
      n->right = InsertNode(std::move(n->right), std::move(fresh));
      Pull(n.get());
      if (n->right->prio > n->prio) n = RotateLeft(std::move(n));
    }
    return n;
  }

  static NodePtr EraseNode(NodePtr n, Timestamp start, TxnId tid,
                           bool* removed) {
    if (!n) return nullptr;
    if (n->iv.start == start && n->iv.tid == tid) {
      *removed = true;
      return MergeChildren(std::move(n));
    }
    WriteInterval probe{start, 0, tid};
    if (KeyLess(probe, n->iv)) {
      n->left = EraseNode(std::move(n->left), start, tid, removed);
    } else {
      n->right = EraseNode(std::move(n->right), start, tid, removed);
    }
    Pull(n.get());
    return n;
  }

  static NodePtr MergeChildren(NodePtr n) {
    if (!n->left) return std::move(n->right);
    if (!n->right) return std::move(n->left);
    if (n->left->prio > n->right->prio) {
      n = RotateRight(std::move(n));
      n->right = MergeChildren(std::move(n->right));
    } else {
      n = RotateLeft(std::move(n));
      n->left = MergeChildren(std::move(n->left));
    }
    Pull(n.get());
    return n;
  }

  static void QueryNode(const Node* n, Timestamp lo, Timestamp hi,
                        std::vector<WriteInterval>* out) {
    if (!n || n->max_end < lo) return;  // no interval below reaches lo
    QueryNode(n->left.get(), lo, hi, out);
    if (n->iv.start <= hi && n->iv.end >= lo) out->push_back(n->iv);
    if (n->iv.start <= hi) QueryNode(n->right.get(), lo, hi, out);
  }

  // Pre-order walk (eviction order, hence spill bytes, depends on it) of
  // the nodes starting at or below `ts`: the right subtree of a node with
  // start > ts starts after ts too, and end >= start, so none of it is
  // collectible. The test is strict: a [ts, ts] interval tying on start
  // with n sits to its right (larger tid) and must still be reached.
  static void CollectEndingUpTo(const Node* n, Timestamp ts,
                                std::vector<WriteInterval>* out) {
    if (!n) return;
    if (n->iv.end <= ts) out->push_back(n->iv);
    if (n->left && n->left->max_end <= ts) {
      CollectAll(n->left.get(), out);
    } else {
      CollectEndingUpTo(n->left.get(), ts, out);
    }
    if (n->iv.start > ts) return;
    if (n->right && n->right->max_end <= ts) {
      CollectAll(n->right.get(), out);
    } else {
      CollectEndingUpTo(n->right.get(), ts, out);
    }
  }

  static void CollectAll(const Node* n, std::vector<WriteInterval>* out) {
    if (!n) return;
    out->push_back(n->iv);
    CollectAll(n->left.get(), out);
    CollectAll(n->right.get(), out);
  }

  NodePtr root_;
  size_t size_ = 0;
};

/// Per-key collection of interval trees (the full ongoing_ts structure).
/// `TotalIntervals()` is an O(1) running counter. `CollectUpTo` walks
/// each dirty key's tree once per pass: GcTriggers entries of (interval
/// end, key) — one armed per insert — name the keys holding an interval
/// ending at or below the watermark, and the walk stops at nodes
/// starting above it.
class OngoingIndex {
 public:
  /// Registers txn `tid` as holding key `key` over [start, commit].
  void Add(Key key, Timestamp start, Timestamp commit, TxnId tid) {
    trees_[key].Insert({start, commit, tid});
    gc_triggers_.Arm(commit, key);
    ++total_;
  }

  /// All writer intervals of `key` overlapping [lo, hi].
  std::vector<WriteInterval> Overlapping(Key key, Timestamp lo,
                                         Timestamp hi) const {
    std::vector<WriteInterval> out;
    auto it = trees_.find(key);
    if (it != trees_.end()) it->second.QueryOverlap(lo, hi, &out);
    return out;
  }

  /// GC: drop intervals wholly at or below `ts`. Visits only dirty keys,
  /// each once: one walk evicts everything of the key ending at or below
  /// `ts`.
  size_t CollectUpTo(Timestamp ts,
                     std::vector<std::pair<Key, WriteInterval>>* evicted) {
    size_t n = 0;
    std::vector<WriteInterval> local;
    gc_triggers_.PassUpTo(ts, [&](Key key) {
      auto it = trees_.find(key);
      if (it == trees_.end()) return;  // stale: key already emptied
      local.clear();
      n += it->second.EvictEndingUpTo(ts, &local);
      if (evicted) {
        for (const auto& iv : local) evicted->emplace_back(key, iv);
      }
      if (it->second.empty()) trees_.erase(it);
    });
    total_ -= n;
    return n;
  }

  /// Live interval count. O(1).
  size_t TotalIntervals() const { return total_; }

  /// Checkpoint hooks. The treap shapes and GC triggers are not
  /// serialized: Deserialize re-Adds every interval (rebuilding both),
  /// which preserves query results exactly — overlap answers depend
  /// only on the interval set, not on treap priorities. Keys and
  /// intervals are emitted sorted so the image is byte-deterministic.
  void Serialize(StateWriter* w) const {
    std::vector<Key> keys;
    keys.reserve(trees_.size());
    for (const auto& [k, tree] : trees_) keys.push_back(k);
    std::sort(keys.begin(), keys.end());
    w->U64(keys.size());
    std::vector<WriteInterval> ivs;
    for (Key k : keys) {
      ivs.clear();
      trees_.at(k).CollectAllIntervals(&ivs);
      std::sort(ivs.begin(), ivs.end(),
                [](const WriteInterval& a, const WriteInterval& b) {
                  if (a.start != b.start) return a.start < b.start;
                  if (a.tid != b.tid) return a.tid < b.tid;
                  return a.end < b.end;
                });
      w->U64(k);
      w->U64(ivs.size());
      for (const WriteInterval& iv : ivs) {
        w->U64(iv.start);
        w->U64(iv.end);
        w->U64(iv.tid);
      }
    }
  }

  bool Deserialize(StateReader* r) {
    trees_.clear();
    total_ = 0;
    gc_triggers_.Clear();
    uint64_t num_keys = r->U64();
    for (uint64_t i = 0; i < num_keys && r->ok(); ++i) {
      Key k = r->U64();
      uint64_t n = r->U64();
      for (uint64_t j = 0; j < n && r->ok(); ++j) {
        WriteInterval iv;
        iv.start = r->U64();
        iv.end = r->U64();
        iv.tid = r->U64();
        Add(k, iv.start, iv.end, iv.tid);
      }
    }
    return r->ok();
  }

 private:
  std::unordered_map<Key, IntervalTree> trees_;
  size_t total_ = 0;
  // Every live interval has one (end, key) entry; entries outlive their
  // interval (eviction drains whole keys at once).
  GcTriggers gc_triggers_;
};

}  // namespace chronos

#endif  // CHRONOS_CORE_INTERVAL_TREE_H_

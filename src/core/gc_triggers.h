// The lazy GC trigger heap shared by the three key-scoped structures that
// AION collects below a watermark (VersionedKv, ListKv, OngoingIndex),
// plus the tail-anchored searches every append-mostly chain uses and the
// ts-sorted chain helpers VersionedKv and ListKv have in common.
// VersionedKv and ListKv arm by the chain rule below; OngoingIndex arms
// at its end-sorted chains' front (core/ongoing_index.h).
//
// Trigger invariant: every key that holds collectible state at some
// watermark w has an armed trigger <= w. A pass at `ts` then visits only
// keys that may yield evictions — O(dirty), never O(keys). Entries may
// go stale (the key was re-armed lower, shrank, or was dropped); a pass
// visits each key once whatever its number of entries, and the visitor
// skips keys with nothing left to evict.
#ifndef CHRONOS_CORE_GC_TRIGGERS_H_
#define CHRONOS_CORE_GC_TRIGGERS_H_

#include <algorithm>
#include <functional>
#include <iterator>
#include <queue>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/types.h"

namespace chronos {

/// Min-heap of (trigger ts, key) entries.
class GcTriggers {
 public:
  void Arm(Timestamp ts, Key key) { heap_.push({ts, key}); }

  /// Pops every trigger <= `ts` and calls `fn(key)` once per distinct
  /// key, in ascending (ts, key) order of each key's first pop (spill
  /// payload order, hence epoch bytes, depend on it). `fn` may Arm: a
  /// trigger armed above `ts` waits for a later pass.
  template <typename Fn>
  void PassUpTo(Timestamp ts, Fn&& fn) {
    std::unordered_set<Key> visited;
    while (!heap_.empty() && heap_.top().first <= ts) {
      Key key = heap_.top().second;
      heap_.pop();
      if (visited.insert(key).second) fn(key);
    }
  }

  void Clear() { heap_ = {}; }

  /// The chain rule: a ts-sorted chain first yields an eviction once its
  /// second version falls at or below the watermark, i.e. at chain[1].ts.
  /// After an insert at `inserted_ts`, arms when the insert created or
  /// lowered that trigger.
  template <typename Vec>
  void ArmChainInsert(const Vec& chain, Timestamp inserted_ts, Key key) {
    if (chain.size() >= 2 &&
        (chain.size() == 2 || inserted_ts <= chain[1].ts)) {
      Arm(chain[1].ts, key);
    }
  }

  /// Re-arms a chain after a collection or a restore.
  template <typename Vec>
  void ArmChain(const Vec& chain, Key key) {
    if (chain.size() >= 2) Arm(chain[1].ts, key);
  }

 private:
  std::priority_queue<std::pair<Timestamp, Key>,
                      std::vector<std::pair<Timestamp, Key>>, std::greater<>>
      heap_;
};

/// Heterogeneous ts <-> element comparator for chains sorted by `.ts`.
struct TsOrder {
  template <typename V>
  bool operator()(const V& v, Timestamp t) const { return v.ts < t; }
  template <typename V>
  bool operator()(Timestamp t, const V& v) const { return t < v.ts; }
};

/// std::lower_bound for queries that land near the back of [first,
/// last): an exponential search from the back (probes at 1, 3, 7, ...
/// elements from the end) brackets the answer, then a bisection inside
/// the bracket finds it. Same result and comparator contract as
/// std::lower_bound; an answer d elements from the end costs
/// O(log d) comparisons, one from the front up to about 2 log n.
/// Chains here are append-mostly and queried near their newest entries,
/// so every tail-biased query uses this; front cuts (GC) bisect plainly.
template <typename It, typename T, typename Comp>
It TailLowerBound(It first, It last, const T& value, Comp comp) {
  It hi = last;  // every element in [hi, last) is not less than `value`
  for (typename std::iterator_traits<It>::difference_type step = 1;
       hi - first > step; step *= 2) {
    It probe = hi - step;
    if (comp(*probe, value)) {
      return std::lower_bound(probe + 1, hi, value, comp);
    }
    hi = probe;
  }
  return std::lower_bound(first, hi, value, comp);
}

/// std::upper_bound with TailLowerBound's tail-anchored search.
template <typename It, typename T, typename Comp>
It TailUpperBound(It first, It last, const T& value, Comp comp) {
  It hi = last;  // every element in [hi, last) is greater than `value`
  for (typename std::iterator_traits<It>::difference_type step = 1;
       hi - first > step; step *= 2) {
    It probe = hi - step;
    if (!comp(value, *probe)) {
      return std::upper_bound(probe + 1, hi, value, comp);
    }
    hi = probe;
  }
  return std::upper_bound(first, hi, value, comp);
}

/// First element with ts >= `ts`, searched from the chain's tail.
template <typename Vec>
auto TsLowerBound(Vec& chain, Timestamp ts) -> decltype(chain.begin()) {
  return TailLowerBound(chain.begin(), chain.end(), ts, TsOrder{});
}

/// First element with ts > `ts`, searched from the chain's tail.
template <typename Vec>
auto TsUpperBound(Vec& chain, Timestamp ts) -> decltype(chain.begin()) {
  return TailUpperBound(chain.begin(), chain.end(), ts, TsOrder{});
}

/// Collapses a ts-sorted chain at `ts`: keeps the latest element with
/// ts <= `ts` as the base and erases everything older, handing the erased
/// range to `spill(first, last)` first. Returns the number erased. A GC
/// watermark cuts near the front, so this bisects the whole chain.
template <typename Vec, typename Spill>
size_t CollapseChain(Vec& chain, Timestamp ts, Spill&& spill) {
  auto end = std::upper_bound(chain.begin(), chain.end(), ts, TsOrder{});
  if (end - chain.begin() < 2) return 0;
  --end;
  spill(chain.begin(), end);
  size_t removed = static_cast<size_t>(end - chain.begin());
  chain.erase(chain.begin(), end);
  return removed;
}

}  // namespace chronos

#endif  // CHRONOS_CORE_GC_TRIGGERS_H_

// The timestamp-versioned `ongoing_ts` structure of Algorithm 3. A
// transaction T writing key k contributes the interval
// [T.start_ts, T.commit_ts] to k's chain; the NOCONFLICT axiom fails
// exactly when two intervals of the same key overlap.
//
// Each key's intervals live in one flat chain sorted by (end, tid), the
// layout VersionedKv gives its versions. Commits arrive in near-timestamp
// order, so the common insert is a push_back. Every entry also carries
// `min_start`, the smallest start over it and every later entry, so:
//   - an overlap query [lo, hi] finds the first end >= lo by a search
//     from the chain's back (TailLowerBound, core/gc_triggers.h; a
//     writer's own interval ends near the newest ones) and scans while
//     min_start <= hi. It costs O(log n + answer + r): r
//     counts the non-answers the scan passes, intervals ending after `hi`
//     that sort before some answer. For a writer checking its own
//     interval, those commit after it yet arrived before it: 0 under
//     in-order delivery, the same out-of-order cost as VersionedKv's;
//   - GC cuts the prefix with end <= watermark, found by plain
//     bisection (the cut lies near the front). Eviction order is
//     (end, tid), a pure function of the interval set, so spill epochs
//     are byte-identical however the chain was built (checkpoint
//     restores included).
#ifndef CHRONOS_CORE_ONGOING_INDEX_H_
#define CHRONOS_CORE_ONGOING_INDEX_H_

#include <algorithm>
#include <cstdint>
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

/// Per-key write-interval chains (the full ongoing_ts structure).
/// `TotalIntervals()` is an O(1) running counter. `CollectUpTo` is
/// O(dirty) through GcTriggers, armed at each chain front's end.
class OngoingIndex {
 public:
  /// Registers txn `tid` as holding key `key` over [start, commit].
  void Add(Key key, Timestamp start, Timestamp commit, TxnId tid) {
    Chain& chain = chains_[key];
    Entry fresh{{start, commit, tid}, start};
    auto pos = TailUpperBound(chain.begin(), chain.end(), fresh, EndTidLess);
    if (pos != chain.end()) fresh.min_start = std::min(start, pos->min_start);
    pos = chain.insert(pos, fresh);
    if (pos == chain.begin()) gc_triggers_.Arm(commit, key);
    // The entries this lowers end no later and start later: each lies
    // inside the new interval.
    while (pos != chain.begin() && (--pos)->min_start > start) {
      pos->min_start = start;
    }
    ++total_;
  }

  /// All writer intervals of `key` overlapping [lo, hi], in (start, tid)
  /// order.
  std::vector<WriteInterval> Overlapping(Key key, Timestamp lo,
                                         Timestamp hi) const {
    std::vector<WriteInterval> out;
    auto it = chains_.find(key);
    if (it == chains_.end()) return out;
    const Chain& chain = it->second;
    auto e = TailLowerBound(
        chain.begin(), chain.end(), lo,
        [](const Entry& x, Timestamp t) { return x.iv.end < t; });
    for (; e != chain.end() && e->min_start <= hi; ++e) {
      if (e->iv.start <= hi) out.push_back(e->iv);
    }
    std::sort(out.begin(), out.end(),
              [](const WriteInterval& a, const WriteInterval& b) {
                return a.start != b.start ? a.start < b.start : a.tid < b.tid;
              });
    return out;
  }

  /// GC: drops every interval with end <= `ts`, appending them to
  /// `evicted` key by key in (end, tid) order. Visits only dirty keys.
  size_t CollectUpTo(Timestamp ts,
                     std::vector<std::pair<Key, WriteInterval>>* evicted) {
    size_t n = 0;
    gc_triggers_.PassUpTo(ts, [&](Key key) {
      auto it = chains_.find(key);
      if (it == chains_.end()) return;  // stale: key already emptied
      Chain& chain = it->second;
      auto cut = std::upper_bound(
          chain.begin(), chain.end(), ts,
          [](Timestamp t, const Entry& x) { return t < x.iv.end; });
      if (evicted) {
        for (auto e = chain.begin(); e != cut; ++e) {
          evicted->emplace_back(key, e->iv);
        }
      }
      n += static_cast<size_t>(cut - chain.begin());
      chain.erase(chain.begin(), cut);
      if (chain.empty()) {
        chains_.erase(it);
      } else {
        gc_triggers_.Arm(chain.front().iv.end, key);
      }
    });
    total_ -= n;
    return n;
  }

  /// Live interval count. O(1).
  size_t TotalIntervals() const { return total_; }

  /// The checkpoint layout: keys ascending, each chain in its (end, tid)
  /// order. A read accepts any order within a key: it re-sorts each
  /// chain and rebuilds `min_start`, the total and the GC triggers.
  template <typename IO>
  void Transfer(IO& io) {
    io.Map(chains_, /*key, size*/ 16, [&](auto& chain) {
      io.Seq(chain, /*start, end, tid*/ 24, [&](auto& e) {
        io.U64(e.iv.start);
        io.U64(e.iv.end);
        io.U64(e.iv.tid);
      });
    });
    if constexpr (IO::kReading) {
      total_ = 0;
      gc_triggers_.Clear();
      for (auto it = chains_.begin(); it != chains_.end();) {
        Chain& chain = it->second;
        if (chain.empty()) {
          it = chains_.erase(it);
          continue;
        }
        std::stable_sort(chain.begin(), chain.end(), EndTidLess);
        Timestamp min_start = chain.back().iv.start;
        for (auto e = chain.rbegin(); e != chain.rend(); ++e) {
          min_start = std::min(min_start, e->iv.start);
          e->min_start = min_start;
        }
        total_ += chain.size();
        gc_triggers_.Arm(chain.front().iv.end, it->first);
        ++it;
      }
    }
  }

  /// One chain element.
  struct Entry {
    WriteInterval iv;
    Timestamp min_start;  ///< min start over this entry and all later ones
  };

  /// The chain order: ascending (end, tid).
  static bool EndTidLess(const Entry& a, const Entry& b) {
    return a.iv.end != b.iv.end ? a.iv.end < b.iv.end : a.iv.tid < b.iv.tid;
  }

 private:
  /// A key's intervals, sorted ascending by (end, tid).
  using Chain = std::vector<Entry>;

  std::unordered_map<Key, Chain> chains_;
  size_t total_ = 0;
  // Each non-empty chain has an entry at its front's end; stale entries
  // (fronts since lowered) are never below it.
  GcTriggers gc_triggers_;
};

}  // namespace chronos

#endif  // CHRONOS_CORE_ONGOING_INDEX_H_

// The timestamp-versioned list frontier: per key, a flat chain of append
// versions (sorted by commit ts, append-mostly like VersionedKv) over one
// shared materialized element buffer. The cumulative append sequence at a
// read view is the buffer prefix ending at the latest version at or
// before the view, so a whole-list read resolves to a (length, pointer)
// pair in one tail-anchored search (TsUpperBound, core/gc_triggers.h) —
// the list analogue of the register frontier_ts query.
//
// Frontier-resolution invariants (see ROADMAP "Online list checking"):
//   1. elems[0 .. versions[i].end_off) is exactly the concatenation of
//      every installed delta with ts <= versions[i].ts, in ts order.
//   2. Installing a delta at ts affects the cumulative prefix of *every*
//      view >= ts — appends compose rather than shadow, so there is no
//      NextVersionAfter bound on list re-checks (unlike registers).
//   3. GC collapses version boundaries at or below the watermark into the
//      retained base version but never drops elements: a future reader
//      above the watermark still needs the full prefix. Eviction returns
//      the collapsed boundaries (ts, tid, delta) for spilling so a
//      straggler below the watermark stays resolvable from disk.
//   4. A straggler delta below the collapsed base is merged into the base
//      region at the offset implied by ts order (computed by the caller
//      from the spilled boundaries) and remembered in `merged_below`, so
//      later stragglers and below-watermark reads see it.
//   5. Horizon trim (`TrimTo`, the --memory-ceiling degradation path)
//      may drop the materialized elements of the base version's region —
//      and only that region, so every in-chain insert offset stays at or
//      above the cut — replacing them with their length and FNV-1a hash.
//      Element offsets (`end_off`) remain full-sequence coordinates; the
//      buffer simply starts at `trimmed_len`. Readers at or above the
//      base verify the trimmed region by hash; a straggler landing
//      inside it taints the hash and degrades verification (counted as
//      CheckerStats::unsafe_below_horizon by the caller).
#ifndef CHRONOS_CORE_LIST_KV_H_
#define CHRONOS_CORE_LIST_KV_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/gc_triggers.h"
#include "core/state_io.h"
#include "core/types.h"

namespace chronos {

/// One evicted list version boundary (spill record).
struct ListSpillVersion {
  Key key = 0;
  Timestamp ts = kTsMin;
  TxnId tid = kTxnNone;
  std::vector<Value> delta;
};

class ListKv {
 public:
  /// One version boundary of a key's chain.
  struct ListVersion {
    Timestamp ts = kTsMin;
    TxnId tid = kTxnNone;
    uint32_t delta_len = 0;  ///< elements this version appended
    size_t end_off = 0;      ///< cumulative length including this delta
  };

  /// Result of a frontier query: the cumulative prefix at the view.
  /// Offsets are full-sequence coordinates; when `trimmed` > 0 the
  /// element at full index i (trimmed <= i < len) is data[i - trimmed],
  /// and the region [0, trimmed) is only available as `trimmed_hash`
  /// (FNV-1a over its Value bytes), unusable when `hash_tainted`.
  struct Prefix {
    size_t len = 0;          ///< 0 when no version qualifies
    TxnId tid = kTxnNone;    ///< writer of the resolving version
    Timestamp ts = kTsMin;   ///< its commit ts (kTsMin: no version)
    const Value* data = nullptr;  ///< elements from `trimmed` upward
    size_t trimmed = 0;           ///< leading elements replaced by hash
    uint64_t trimmed_hash = kFnvOffset;  ///< FNV-1a over the trimmed region
    bool hash_tainted = false;    ///< straggler merged into trimmed region
  };

  /// Installs `delta` (the transaction's appends to `key`, in program
  /// order) at commit ts. Returns false on a duplicate timestamp.
  /// Precondition: ts is not below a collapsed base (use PutBelowBase).
  bool Put(Key key, Timestamp ts, const std::vector<Value>& delta,
           TxnId tid) {
    Chain& chain = chains_[key];
    if (chain.versions.empty() || ts > chain.versions.back().ts) {
      // Common case: in-order commit, append at the tail.
      chain.elems.insert(chain.elems.end(), delta.begin(), delta.end());
      chain.versions.push_back({ts, tid, static_cast<uint32_t>(delta.size()),
                                chain.trimmed_len + chain.elems.size()});
    } else {
      auto it = TsLowerBound(chain.versions, ts);
      if (it != chain.versions.end() && it->ts == ts) return false;
      size_t offset = it == chain.versions.begin()
                          ? 0
                          : (it - 1)->end_off;
      InsertAt(&chain, it - chain.versions.begin(), offset, ts, tid, delta);
    }
    ++total_versions_;
    total_elems_ += delta.size();
    gc_triggers_.ArmChainInsert(chain.versions, ts, key);
    return true;
  }

  /// Installs a straggler delta whose ts lies below the collapsed base.
  /// `spilled_below` holds the (ts, delta length) of this key's spilled
  /// version boundaries, sorted by ts (empty when spilling is disabled —
  /// the delta then lands at the front of the base region, a documented
  /// D7 approximation). Returns false on a ts collision with a merged
  /// straggler. A collision with a *spilled* boundary is deliberately
  /// not detected: by then GC has pruned the ingress used-ts window, so
  /// the duplicate is silently ordered after the spilled delta — the
  /// same policy as register stragglers (VersionedKv::Put only checks
  /// in-memory versions), deterministic and covered by the D6 reasoning.
  ///
  /// When the delta lands inside a hash-trimmed region (invariant 5) it
  /// is not materialized: the trimmed length grows, the hash is tainted,
  /// and `*into_trimmed` (when non-null) is set so the caller can count
  /// the degradation (unsafe_below_horizon).
  bool PutBelowBase(Key key, Timestamp ts, const std::vector<Value>& delta,
                    TxnId tid,
                    const std::vector<std::pair<Timestamp, size_t>>&
                        spilled_below,
                    bool* into_trimmed = nullptr) {
    (void)tid;  // merged boundaries are never re-attributed to a writer
    Chain& chain = chains_[key];
    size_t offset = 0;
    for (const auto& [sts, slen] : spilled_below) {
      if (sts <= ts) offset += slen;
    }
    for (const auto& [mts, mdelta] : chain.merged_below) {
      if (mts == ts) return false;
      if (mts < ts) offset += mdelta.size();
    }
    // The lengths come from spill epochs and checkpoints on disk: never
    // place the delta past the sequence (a no-op for consistent state).
    offset = std::min(offset, chain.trimmed_len + chain.elems.size());
    // Shift every version boundary (all of them sit at or above the
    // base, whose region absorbs the delta).
    for (ListVersion& v : chain.versions) v.end_off += delta.size();
    if (offset < chain.trimmed_len) {
      // The insert position was trimmed away: absorb the delta into the
      // hashed region. Its content is remembered in merged_below (for
      // below-base reconstruction) but the hash can no longer be
      // recomputed incrementally — taint it.
      chain.trimmed_len += delta.size();
      chain.hash_tainted = true;
      if (into_trimmed) *into_trimmed = true;
    } else {
      chain.elems.insert(
          chain.elems.begin() + static_cast<long>(offset - chain.trimmed_len),
          delta.begin(), delta.end());
      total_elems_ += delta.size();
    }
    auto mit = std::lower_bound(
        chain.merged_below.begin(), chain.merged_below.end(), ts,
        [](const auto& m, Timestamp t) { return m.first < t; });
    chain.merged_below.insert(mit, {ts, delta});
    return true;
  }

  /// The cumulative prefix at `view` (inclusive: versions with ts <=
  /// view; exclusive: ts < view). len == 0 with ts == kTsMin means no
  /// in-memory version qualifies — content below a collapsed base must
  /// be reconstructed from the spill store (see invariant 3).
  Prefix PrefixAt(Key key, Timestamp view, bool inclusive) const {
    auto it = chains_.find(key);
    if (it == chains_.end()) return Prefix{};
    const Chain& chain = it->second;
    auto vit = inclusive ? TsUpperBound(chain.versions, view)
                         : TsLowerBound(chain.versions, view);
    if (vit == chain.versions.begin()) return Prefix{};
    --vit;
    return MakePrefix(chain, *vit);
  }

  /// Commit ts of the oldest in-memory version of `key` (kTsMin: none).
  /// A ts below this and at or below the GC watermark is a below-base
  /// straggler.
  Timestamp BaseTs(Key key) const {
    auto it = chains_.find(key);
    if (it == chains_.end() || it->second.versions.empty()) return kTsMin;
    return it->second.versions.front().ts;
  }

  /// Stragglers merged into the collapsed base region, sorted by ts
  /// (nullptr when none) — needed to reconstruct below-watermark
  /// prefixes alongside the spilled boundaries.
  const std::vector<std::pair<Timestamp, std::vector<Value>>>* MergedBelow(
      Key key) const {
    auto it = chains_.find(key);
    if (it == chains_.end() || it->second.merged_below.empty()) return nullptr;
    return &it->second.merged_below;
  }

  /// Collapses version boundaries with ts <= `ts` into the retained base
  /// (the latest qualifying version), appending the evicted boundaries
  /// with their deltas to `evicted`. Elements are never dropped
  /// (invariant 3). O(dirty) via the same GcTriggers chain rule as
  /// VersionedKv. Returns the number of collapsed boundaries.
  size_t CollectUpTo(Timestamp ts, std::vector<ListSpillVersion>* evicted) {
    size_t n = 0;
    gc_triggers_.PassUpTo(ts, [&](Key key) {
      auto it = chains_.find(key);
      if (it == chains_.end()) return;
      Chain& chain = it->second;
      n += CollapseChain(chain.versions, ts, [&](auto first, auto last) {
        if (!evicted) return;
        for (; first != last; ++first) {
          ListSpillVersion rec;
          rec.key = key;
          rec.ts = first->ts;
          rec.tid = first->tid;
          // Clamp to the materialized range: a boundary whose elements
          // were hash-trimmed (invariant 5) spills a truncated delta.
          // Below-base reads on a trimmed chain degrade to
          // unsafe_below_horizon at the consulting site, so the short
          // record is never trusted for element-wise verification.
          size_t lo = std::max(first->end_off - first->delta_len,
                               chain.trimmed_len);
          size_t hi = std::max(first->end_off, chain.trimmed_len);
          rec.delta.assign(
              chain.elems.begin() + static_cast<long>(lo - chain.trimmed_len),
              chain.elems.begin() + static_cast<long>(hi - chain.trimmed_len));
          evicted->push_back(std::move(rec));
        }
      });
      gc_triggers_.ArmChain(chain.versions, key);
    });
    total_versions_ -= n;
    return n;
  }

  /// Trims the materialized elements of every chain whose base version
  /// (oldest in-memory boundary) sits at or below `horizon`, replacing
  /// the base's element region [0, base.end_off) with its length and
  /// FNV-1a hash (invariant 5). Only the base region is ever trimmed so
  /// in-chain insert offsets stay at or above the cut. Returns the
  /// number of elements released by this call.
  size_t TrimTo(Timestamp horizon) {
    size_t released = 0;
    for (auto& [key, chain] : chains_) {
      (void)key;
      if (chain.versions.empty()) continue;
      const ListVersion& base = chain.versions.front();
      if (base.ts > horizon) continue;
      size_t cut = base.end_off;
      if (cut <= chain.trimmed_len) continue;  // already trimmed this far
      size_t n = cut - chain.trimmed_len;
      chain.trimmed_hash =
          Fnv1a(chain.elems.data(), n * sizeof(Value), chain.trimmed_hash);
      chain.elems.erase(chain.elems.begin(),
                        chain.elems.begin() + static_cast<long>(n));
      chain.trimmed_len = cut;
      total_elems_ -= n;
      total_trimmed_ += n;
      released += n;
    }
    return released;
  }

  /// Full-sequence length of `key`'s hash-trimmed region (0: untrimmed).
  size_t TrimmedLen(Key key) const {
    auto it = chains_.find(key);
    return it == chains_.end() ? 0 : it->second.trimmed_len;
  }

  /// Elements released by TrimTo across all keys, cumulative.
  size_t TotalTrimmed() const { return total_trimmed_; }

  /// Live version boundaries across all keys. O(1).
  size_t TotalVersions() const { return total_versions_; }

  /// The checkpoint layout: every chain with its trim state, keys
  /// ascending. A read recounts the totals and re-arms the trigger heap,
  /// and rejects boundaries that do not fit their buffer (see
  /// BoundariesFit): MakePrefix and CollectUpTo index elems by them.
  template <typename IO>
  void Transfer(IO& io) {
    io.U64(total_trimmed_);
    io.Map(chains_, /*key .. tainted*/ 56, [&](auto& chain) {
      io.Seq(chain.versions, /*ts, tid, delta_len, end_off*/ 32,
             [&](auto& v) {
               io.U64(v.ts);
               io.U64(v.tid);
               io.U64(v.delta_len);
               io.U64(v.end_off);
             });
      io.Values(chain.elems);
      io.Seq(chain.merged_below, /*ts, delta*/ 16, [&](auto& m) {
        io.U64(m.first);
        io.Values(m.second);
      });
      io.U64(chain.trimmed_len);
      io.U64(chain.trimmed_hash);
      io.U8(chain.hash_tainted);
    });
    if constexpr (IO::kReading) {
      total_versions_ = 0;
      total_elems_ = 0;
      gc_triggers_.Clear();
      for (const auto& [k, chain] : chains_) {
        io.Require(BoundariesFit(chain));
        total_versions_ += chain.versions.size();
        total_elems_ += chain.elems.size();
        gc_triggers_.ArmChain(chain.versions, k);
      }
    }
  }

  /// Approximate heap footprint (materialized prefixes dominate). O(1).
  size_t ApproxBytes() const {
    return chains_.bucket_count() * sizeof(void*) +
           chains_.size() * (sizeof(Chain) + 48) +
           total_versions_ * sizeof(ListVersion) +
           total_elems_ * sizeof(Value);
  }

 private:
  struct Chain {
    std::vector<ListVersion> versions;  // sorted by ts
    // Materialized cumulative prefix, starting at full index trimmed_len
    // (the sequence below it was hash-trimmed away, invariant 5).
    std::vector<Value> elems;
    // Below-base stragglers merged into the collapsed region (ts order).
    std::vector<std::pair<Timestamp, std::vector<Value>>> merged_below;
    size_t trimmed_len = 0;              // full-sequence trim cut
    uint64_t trimmed_hash = kFnvOffset;  // FNV-1a over trimmed elements
    bool hash_tainted = false;           // straggler merged into trim region
  };

  static Prefix MakePrefix(const Chain& chain, const ListVersion& v) {
    Prefix p{v.end_off, v.tid, v.ts, chain.elems.data()};
    p.trimmed = chain.trimmed_len;
    p.trimmed_hash = chain.trimmed_hash;
    p.hash_tainted = chain.hash_tainted;
    return p;
  }

  // Every boundary ends at or above the trim cut and no later than the
  // trimmed prefix plus the buffer, and its delta starts no earlier than
  // the previous boundary ends (readers index elems by these offsets).
  static bool BoundariesFit(const Chain& chain) {
    if (chain.trimmed_len > SIZE_MAX - chain.elems.size()) return false;
    size_t prev_end = 0;
    for (const ListVersion& v : chain.versions) {
      if (v.end_off < prev_end || v.end_off - prev_end < v.delta_len) {
        return false;
      }
      prev_end = v.end_off;
    }
    return (chain.versions.empty() ||
            chain.versions.front().end_off >= chain.trimmed_len) &&
           prev_end <= chain.trimmed_len + chain.elems.size();
  }

  void InsertAt(Chain* chain, std::ptrdiff_t pos, size_t offset, Timestamp ts,
                TxnId tid, const std::vector<Value>& delta) {
    // `offset` is a full-sequence coordinate; storage starts at
    // trimmed_len. Only the base region is ever trimmed, so in-chain
    // inserts (pos >= 1 => offset >= front().end_off >= trimmed_len)
    // never land inside the trimmed cut.
    size_t store = offset >= chain->trimmed_len ? offset - chain->trimmed_len
                                                : 0;
    chain->elems.insert(chain->elems.begin() + static_cast<long>(store),
                        delta.begin(), delta.end());
    for (auto it = chain->versions.begin() + pos; it != chain->versions.end();
         ++it) {
      it->end_off += delta.size();
    }
    chain->versions.insert(
        chain->versions.begin() + pos,
        {ts, tid, static_cast<uint32_t>(delta.size()), offset + delta.size()});
  }

  std::unordered_map<Key, Chain> chains_;
  size_t total_versions_ = 0;
  size_t total_elems_ = 0;   // materialized only; trimmed elements excluded
  size_t total_trimmed_ = 0; // cumulative elements released by TrimTo
  GcTriggers gc_triggers_;  // the chain rule, over versions[1].ts
};

}  // namespace chronos

#endif  // CHRONOS_CORE_LIST_KV_H_

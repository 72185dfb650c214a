// The timestamp-versioned frontier (`frontier_ts` of Algorithm 3), stored
// per key as a flat, sorted, append-mostly version chain. Commits arrive
// in near-timestamp order, so the common insert is a push_back; the rare
// out-of-order writer pays one search plus a tail move. Inserts and
// frontier queries (`GetAtOrBefore`/`GetBefore`/`NextVersionAfter`)
// search from the chain's newest version (TsLowerBound/TsUpperBound,
// core/gc_triggers.h), where near-in-order traffic lands, so their cost
// grows with the distance from the tail, not with the chain's length.
// Per-key version storage makes the paper's lines 3:56-57 (propagating a
// late writer's value into later frontier versions) automatic.
//
// Accounting is incremental: `TotalVersions()`/`ApproxBytes()` are O(1)
// running counters, and `CollectUpTo` is O(dirty) through the shared
// GcTriggers heap (core/gc_triggers.h), armed by the chain rule.
#ifndef CHRONOS_CORE_VERSIONED_KV_H_
#define CHRONOS_CORE_VERSIONED_KV_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/gc_triggers.h"
#include "core/state_io.h"
#include "core/types.h"

namespace chronos {

/// One committed version of a key.
struct VersionEntry {
  Value value = kValueInit;
  TxnId tid = kTxnNone;
};

/// A multi-version register map with "latest version at or before ts"
/// queries. Inserts are amortized O(1) for in-order commits; a query
/// answered d versions from the newest costs O(log d) comparisons.
class VersionedKv {
 public:
  /// One element of a key's flat chain.
  struct Version {
    Timestamp ts = kTsMin;
    Value value = kValueInit;
    TxnId tid = kTxnNone;
  };
  /// A key's versions, sorted ascending by ts.
  using Chain = std::vector<Version>;

  /// Result of a frontier query.
  struct Lookup {
    Value value = kValueInit;      ///< kValueInit if no version qualifies
    TxnId tid = kTxnNone;          ///< writer, kTxnNone for the initial value
    Timestamp ts = kTsMin;         ///< commit ts of the version (kTsMin: init)
  };

  /// Inserts the version (ts -> value by tid) for `key`. Returns false if a
  /// version with the same timestamp already exists (duplicate commit ts).
  bool Put(Key key, Timestamp ts, Value value, TxnId tid) {
    Chain& chain = versions_[key];
    auto it = TsLowerBound(chain, ts);  // the end for an in-order commit
    if (it != chain.end() && it->ts == ts) return false;
    chain.insert(it, {ts, value, tid});
    ++total_versions_;
    gc_triggers_.ArmChainInsert(chain, ts, key);
    return true;
  }

  /// The latest version with commit ts <= `ts` (paper's frontier_ts[ts^]).
  /// Falls back to the initial value when no committed version qualifies.
  Lookup GetAtOrBefore(Key key, Timestamp ts) const {
    return GetBound(key, ts, /*inclusive=*/true);
  }

  /// The latest version with commit ts strictly < `ts` (SER read view).
  Lookup GetBefore(Key key, Timestamp ts) const {
    return GetBound(key, ts, /*inclusive=*/false);
  }

  /// Commit timestamp of the next version of `key` strictly after `ts`, or
  /// nullopt. Used to bound EXT re-checking (Step 3 of Algorithm 3): a late
  /// writer at ts affects only readers with view timestamps before this.
  std::optional<Timestamp> NextVersionAfter(Key key, Timestamp ts) const {
    auto it = versions_.find(key);
    if (it == versions_.end()) return std::nullopt;
    const Chain& chain = it->second;
    auto vit = TsUpperBound(chain, ts);
    if (vit == chain.end()) return std::nullopt;
    return vit->ts;
  }

  /// True when some in-memory version of `key` with commit ts strictly
  /// before `ts` carries `value` (the RC/RA committed-membership query).
  /// O(versions before ts) — a linear prefix scan of the chain; below
  /// the GC watermark the caller merges with the spill store.
  bool HasValueBefore(Key key, Timestamp ts, Value value) const {
    auto it = versions_.find(key);
    if (it == versions_.end()) return false;
    const Chain& chain = it->second;
    auto end = TsLowerBound(chain, ts);
    for (auto vit = chain.begin(); vit != end; ++vit) {
      if (vit->value == value) return true;
    }
    return false;
  }

  /// Number of live versions across all keys. O(1).
  size_t TotalVersions() const { return total_versions_; }

  /// Garbage-collects versions with commit ts <= `ts`, keeping per key the
  /// single latest qualifying version as the "base" so that queries at or
  /// above `ts` stay answerable. Evicted versions are appended to `evicted`
  /// (for spilling to disk) when non-null. Returns the eviction count.
  ///
  /// O(dirty): only keys whose armed trigger fired are visited; clean keys
  /// are never touched.
  size_t CollectUpTo(Timestamp ts,
                     std::vector<std::tuple<Key, Timestamp, VersionEntry>>*
                         evicted = nullptr) {
    size_t n = 0;
    gc_triggers_.PassUpTo(ts, [&](Key key) {
      auto it = versions_.find(key);
      if (it == versions_.end()) return;  // stale: key dropped
      Chain& chain = it->second;
      n += CollapseChain(chain, ts, [&](auto first, auto last) {
        if (!evicted) return;
        for (; first != last; ++first) {
          evicted->emplace_back(key, first->ts,
                                VersionEntry{first->value, first->tid});
        }
      });
      gc_triggers_.ArmChain(chain, key);  // next trigger, now above ts
    });
    total_versions_ -= n;
    return n;
  }

  /// Direct access to a key's chain (for tests/inspection).
  const Chain* Find(Key key) const {
    auto it = versions_.find(key);
    return it == versions_.end() ? nullptr : &it->second;
  }

  /// The checkpoint layout: every chain, keys ascending. A read re-arms
  /// the GC triggers and recounts the total instead of transferring
  /// them (the trigger invariant only needs one entry per key with >= 2
  /// versions).
  template <typename IO>
  void Transfer(IO& io) {
    io.Map(versions_, /*key, size*/ 16, [&](auto& chain) {
      io.Seq(chain, /*ts, value, tid*/ 24, [&](auto& v) {
        io.U64(v.ts);
        io.I64(v.value);
        io.U64(v.tid);
      });
    });
    if constexpr (IO::kReading) {
      total_versions_ = 0;
      gc_triggers_.Clear();
      for (const auto& [k, chain] : versions_) {
        total_versions_ += chain.size();
        gc_triggers_.ArmChain(chain, k);
      }
    }
  }

  /// Approximate heap footprint in bytes. O(1): derived from the running
  /// counters plus the hash-map geometry; close enough for the relative
  /// memory curves of Fig. 7/10/16.
  size_t ApproxBytes() const {
    return versions_.bucket_count() * sizeof(void*) +
           versions_.size() * (sizeof(Chain) + 48) +
           total_versions_ * sizeof(Version);
  }

 private:
  Lookup GetBound(Key key, Timestamp ts, bool inclusive) const {
    auto it = versions_.find(key);
    if (it == versions_.end()) return Lookup{};
    const Chain& chain = it->second;
    // Frontier reads at the current edge dominate in-order streams: the
    // tail search answers them with its first probe.
    auto vit = inclusive ? TsUpperBound(chain, ts) : TsLowerBound(chain, ts);
    if (vit == chain.begin()) return Lookup{};
    --vit;
    return Lookup{vit->value, vit->tid, vit->ts};
  }

  std::unordered_map<Key, Chain> versions_;
  size_t total_versions_ = 0;
  GcTriggers gc_triggers_;  // the chain rule: one entry at chain[1].ts
};

}  // namespace chronos

#endif  // CHRONOS_CORE_VERSIONED_KV_H_

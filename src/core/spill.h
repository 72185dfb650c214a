// Disk spill store backing AION's conservative garbage collection
// (Algorithm 3 lines 62-66): frontier versions and write intervals below
// a timestamp watermark are moved from memory to disk and reloaded on
// demand when an out-of-order transaction arrives below the watermark.
#ifndef CHRONOS_CORE_SPILL_H_
#define CHRONOS_CORE_SPILL_H_

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/list_kv.h"
#include "core/ongoing_index.h"
#include "core/online_checker.h"
#include "core/state_io.h"
#include "core/types.h"
#include "core/versioned_kv.h"

namespace chronos {

/// Everything evicted by one GC pass.
struct SpillPayload {
  Timestamp max_ts = kTsMin;  ///< all records have timestamps <= max_ts
  std::vector<std::tuple<Key, Timestamp, VersionEntry>> versions;
  /// Key by key in GcTriggers order, each key's in (end, tid) order: a
  /// pure function of the evicted set, so a resumed run rewrites an
  /// epoch byte for byte.
  std::vector<std::pair<Key, WriteInterval>> intervals;
  /// Collapsed list version boundaries (ts, tid, delta) — what a
  /// below-watermark straggler needs to place or resolve a list prefix.
  std::vector<ListSpillVersion> list_versions;

  bool Empty() const {
    return versions.empty() && intervals.empty() && list_versions.empty();
  }
};

/// Append-only store of GC epochs, one binary file per epoch, and the one
/// owner of everything about them: the epoch list (the manifest), the
/// reload cache, and which epochs were found corrupt. Not thread-safe;
/// AION serializes access.
class SpillStore {
 public:
  /// `dir` is created if missing. An empty dir disables persistence:
  /// Spill() then discards payloads (documented fast mode for benches
  /// whose arrival order never dips below the GC watermark).
  explicit SpillStore(std::string dir);

  /// True when spilled data can be reloaded later.
  bool persistent() const { return !dir_.empty(); }

  /// Writes one epoch; returns its id (0 when persistence is disabled or
  /// the payload is empty).
  uint64_t Spill(const SpillPayload& payload);

  /// Outcome of a Load: callers must distinguish an epoch that never
  /// existed (or whose file vanished) from one whose file is present but
  /// unparseable — the latter is an integrity failure worth logging and
  /// counting (CheckerStats::corrupt_spill_epochs), not a silent miss.
  enum class LoadStatus { kOk, kMissing, kCorrupt };

  /// Loads one epoch from disk (uncached, uncounted).
  LoadStatus Load(uint64_t epoch_id, SpillPayload* out) const;

  /// One straggler consult: visits every epoch's payload in spill order
  /// until `visit(payload)` returns false. Payloads come through a small
  /// FIFO cache (stragglers cluster in time); each load from disk counts
  /// `stats->spill_reloads`. An epoch that cannot be loaded is skipped —
  /// a present-yet-unparseable file is an integrity failure, counted in
  /// `stats->corrupt_spill_epochs` and logged once per epoch, across
  /// checkpoint/restore too. Returns false when an epoch was skipped:
  /// the consult is then incomplete (best effort, divergence entry D7).
  template <typename Fn>
  bool Consult(CheckerStats* stats, Fn&& visit) {
    bool complete = true;
    for (const auto& [id, max_ts] : epochs_) {
      (void)max_ts;
      const SpillPayload* payload = Cached(id, stats);
      if (!payload) {
        complete = false;
        continue;
      }
      if (!visit(*payload)) break;
    }
    return complete;
  }

  size_t NumEpochs() const { return epochs_.size(); }

  /// The checkpoint layout of the manifest: next id, id -> max_ts map,
  /// cached and corrupt epoch ids. The epoch files themselves stay on
  /// disk and are re-opened on demand after a restore; a read re-loads
  /// the cache payloads without counting spill_reloads, so the counters
  /// evolve exactly as in an uninterrupted run.
  template <typename IO>
  void TransferManifest(IO& io) {
    io.U64(next_id_);
    io.Map(epochs_, /*id, max_ts*/ 16, [&](auto& max_ts) { io.U64(max_ts); });
    std::vector<uint64_t> cached;
    if constexpr (!IO::kReading) {
      for (const auto& [id, payload] : cache_) cached.push_back(id);
    }
    io.Seq(cached, 8, [&](auto& id) { io.U64(id); });
    io.Seq(corrupt_, 8, [&](auto& id) { io.U64(id); });
    if constexpr (IO::kReading) {
      cache_.clear();
      for (uint64_t id : cached) {
        SpillPayload payload;
        if (Load(id, &payload) == LoadStatus::kOk) {
          cache_.emplace_back(id, std::move(payload));
        }
      }
    }
  }

  /// On-disk path of an epoch's file (exposed for integrity tooling and
  /// the crash-recovery corruption fixtures).
  std::string PathFor(uint64_t id) const;

 private:
  // The epoch's payload from the cache or disk; nullptr if unloadable.
  const SpillPayload* Cached(uint64_t id, CheckerStats* stats);

  std::string dir_;
  uint64_t next_id_ = 1;
  std::map<uint64_t, Timestamp> epochs_;  // id -> max_ts, ids in spill order
  std::vector<std::pair<uint64_t, SpillPayload>> cache_;  // FIFO
  std::vector<uint64_t> corrupt_;  // already counted and logged
};

}  // namespace chronos

#endif  // CHRONOS_CORE_SPILL_H_

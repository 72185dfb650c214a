// The common surface of the online checkers: the monolithic `Aion`
// (core/aion.h) and the key-partitioned `ShardedAion`
// (online/sharded_aion.h) implement the same contract, so the online
// drivers (online/pipeline.h, online/checkpoint.h) and the GC policy
// below work against either.
// The level rules, options, stats and footprint types live here —
// outside Aion — so the key-scoped `KeyEngine` layer and the sharded
// coordinator can share them without depending on the monolith.
#ifndef CHRONOS_CORE_ONLINE_CHECKER_H_
#define CHRONOS_CORE_ONLINE_CHECKER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "core/types.h"

namespace chronos {

/// The level a transaction is actually checked under: its own tag, or
/// `run_level`, the run-level default (kSi or kSer), when untagged. SER
/// ignores start timestamps, uses the commit timestamp as the read view,
/// and skips NOCONFLICT (paper Sec. VI-A). Resolved exactly once per
/// arrival (TxnIngress::AdmitTxn) and carried through the engines in
/// KeyEngine::TxnCtx, so every downstream decision sees one value.
inline IsolationLevel EffectiveLevel(const Transaction& t,
                                     IsolationLevel run_level) {
  return t.iso == IsolationLevel::kUnspecified ? run_level : t.iso;
}

/// The read view of `t` at (effective) `level`: start_ts under SI, and
/// commit_ts under SER, RC and RA, which read in commit order (paper
/// Sec. VI-A). Also where Chronos replays the start event and what the
/// session rule orders by.
inline Timestamp ReadView(const Transaction& t, IsolationLevel level) {
  return level == IsolationLevel::kSi ? t.start_ts : t.commit_ts;
}

/// Which timestamps the ingress registers for the cross-transaction
/// uniqueness check under `level`: SER {commit}, SI {start, commit}
/// (none for an Eq.(1)-invalid SI transaction, which is rejected
/// earlier), RC/RA none — commit-order levels neither consume snapshot
/// timestamps nor participate in the dup-gate. The explorer's
/// commutativity rules and the offline mixed mirror share this table.
inline bool RegistersTimestamps(IsolationLevel level) {
  return level == IsolationLevel::kSer || level == IsolationLevel::kSi;
}

/// True for the commit-order membership levels (RC/RA): reads are
/// satisfied by *any* committed version of the key before the reader's
/// commit timestamp rather than by the frontier at a snapshot view.
inline bool MembershipLevel(IsolationLevel level) {
  return level == IsolationLevel::kRc || level == IsolationLevel::kRa;
}

/// Test-only stall injection (explore/oracle.h, adversarial-timing
/// tests): invoked from a sharded checker's shard worker, with the shard
/// index, before it executes a command chunk (the monolith has no
/// pipeline). It runs on the worker threads, so it must be thread-safe
/// and must not call back into the checker. Verdicts, stats, and
/// emission order are independent of anything the hook does — that is
/// the determinism contract the schedule enumerator certifies.
using StallHook = std::function<void(size_t shard)>;

/// Configuration shared by the monolithic and sharded checkers.
struct CheckerOptions {
  /// The run-level default for untagged transactions: kSi or kSer.
  IsolationLevel mode = IsolationLevel::kSi;
  /// EXT verdicts become final this long after the transaction arrives
  /// (the paper conservatively uses 5000 ms). Time is whatever unit the
  /// caller passes to OnTransaction/AdvanceTime; tests use virtual ms.
  uint64_t ext_timeout_ms = 5000;
  /// Directory for the GC spill store. Empty disables persistence: GC
  /// then discards evicted state, which is only safe when no arrival
  /// ever dips below the GC watermark (fast mode for throughput
  /// benches; stragglers below the watermark are counted in
  /// CheckerStats::unsafe_below_watermark instead of being re-checked).
  /// A sharded checker appends "/shard<i>" per shard.
  std::string spill_dir;
  /// Inert: no checker reads it. Kept only so existing callers that
  /// still assign it (e2ebench/trace_layers.cc) compile; the sharded
  /// checker has no pre-stage classifier pool any more.
  size_t pre_stage_workers = 2;
  /// Test-only forced-stall injection in the sharded checker's shard
  /// workers (empty: never called, zero cost). See StallHook above.
  StallHook stall_hook;
};

/// Aggregate processing counters. In the sharded checker the key-scoped
/// counters are accumulated per shard and summed on read; every field is
/// a plain sum, so the merge is commutative.
struct CheckerStats {
  uint64_t txns_processed = 0;
  uint64_t ext_rechecks = 0;           ///< Step-3 reader re-evaluations
  uint64_t noconflict_checks = 0;      ///< Step-2 overlap queries
  uint64_t spill_reloads = 0;          ///< epochs loaded back from disk
  uint64_t unsafe_below_watermark = 0; ///< stragglers GC made unverifiable
  /// Reads whose evaluation touched a hash-trimmed list prefix region
  /// that could not be verified element-wise (ListKv horizon trim; same
  /// deterministic-degradation accounting as unsafe_below_watermark).
  uint64_t unsafe_below_horizon = 0;
  /// Spill epochs whose file existed but failed to parse. Distinct from
  /// a missing epoch (both degrade to unsafe_below_watermark at the
  /// consulting site, but corruption is loudly logged and counted here).
  uint64_t corrupt_spill_epochs = 0;
  uint64_t gc_passes = 0;

  CheckerStats& operator+=(const CheckerStats& o) {
    txns_processed += o.txns_processed;
    ext_rechecks += o.ext_rechecks;
    noconflict_checks += o.noconflict_checks;
    spill_reloads += o.spill_reloads;
    unsafe_below_watermark += o.unsafe_below_watermark;
    unsafe_below_horizon += o.unsafe_below_horizon;
    corrupt_spill_epochs += o.corrupt_spill_epochs;
    gc_passes += o.gc_passes;
    return *this;
  }

  bool operator==(const CheckerStats& o) const {
    return txns_processed == o.txns_processed &&
           ext_rechecks == o.ext_rechecks &&
           noconflict_checks == o.noconflict_checks &&
           spill_reloads == o.spill_reloads &&
           unsafe_below_watermark == o.unsafe_below_watermark &&
           unsafe_below_horizon == o.unsafe_below_horizon &&
           corrupt_spill_epochs == o.corrupt_spill_epochs &&
           gc_passes == o.gc_passes;
  }
};

/// Live memory footprint, used by the Fig. 12/16 benches and the GC
/// policies of the pipeline drivers (live_txns in particular).
struct CheckerFootprint {
  size_t live_txns = 0;
  size_t versions = 0;
  size_t intervals = 0;
  size_t approx_bytes = 0;
};

/// Abstract online checker driven by the pipeline (online/pipeline.h).
/// All methods are called from the single driver ("coordinator") thread;
/// implementations may spread the work over internal worker threads.
class OnlineChecker {
 public:
  virtual ~OnlineChecker() = default;

  /// Feeds one collected transaction. `now_ms` is the arrival time on the
  /// checker's clock; it must be non-decreasing across calls.
  virtual void OnTransaction(const Transaction& t, uint64_t now_ms) = 0;

  /// Fires all EXT timeouts with deadline <= now_ms, finalizing and
  /// reporting their verdicts.
  virtual void AdvanceTime(uint64_t now_ms) = 0;

  /// Garbage-collects state at or below `up_to` (clamped to the safe
  /// watermark). Returns the effective watermark used.
  virtual Timestamp Gc(Timestamp up_to) = 0;

  /// Convenience: GC so that at most `target` transaction records stay
  /// resident (the paper's "maximum transaction limit" strategy).
  virtual void GcToLiveTarget(size_t target) = 0;

  /// Finalizes every outstanding transaction (end of stream).
  virtual void Finish() = 0;

  /// Cheap (lock-free) footprint estimate; exact for live_txns.
  virtual CheckerFootprint GetFootprint() const = 0;

  /// Best-effort memory release beyond GC: trims list element buffers
  /// below the current watermark down to a prefix hash (the
  /// --memory-ceiling degradation path). Verdicts for live readers are
  /// unaffected; stragglers into a trimmed region degrade to
  /// CheckerStats::unsafe_below_horizon accounting. Default: no-op.
  virtual void ShedMemory() {}
};

/// When an online driver collects garbage (RunMaxRate and DurableRunner
/// share this type): every `every` arrivals, provided at least
/// `max_live` transactions are resident, GcToLiveTarget(target_live).
/// GC is clamped to the safe watermark inside the checker, so it only
/// ever reclaims finalized state (paper: asynchrony may prevent
/// recycling).
struct GcPolicy {
  uint64_t every = 0;      ///< poll cadence in arrivals (0: never collect)
  size_t max_live = 0;     ///< live-txn trigger (0: collect at every poll)
  size_t target_live = 0;  ///< live txns to collect down to

  /// The paper's strategies (Sec. VI-B, Fig. 12). no-gc: memory grows
  /// with the stream.
  static GcPolicy None() { return {}; }
  /// checking-gc: collect down to `target_live` once `max_live` is
  /// reached, polled lazily.
  static GcPolicy Threshold(size_t max_live, size_t target_live) {
    return {1024, max_live, target_live};
  }
  /// full-gc (the paper's "maximum transaction limit"): polled often,
  /// so a stream pinned at the cap collects constantly.
  static GcPolicy HardCap(size_t cap) { return {64, cap, cap - cap / 16}; }
  /// A fixed cadence regardless of footprint (chronos_check --gc-every).
  static GcPolicy Every(uint64_t n, size_t target_live) {
    return {n, 0, target_live};
  }

  /// Whether the driver collects after its `arrivals`-th arrival. Reads
  /// the footprint only for a live-txn trigger.
  bool Due(uint64_t arrivals, const OnlineChecker& checker) const {
    return every > 0 && arrivals % every == 0 &&
           (max_live == 0 || checker.GetFootprint().live_txns >= max_live);
  }
};

}  // namespace chronos

#endif  // CHRONOS_CORE_ONLINE_CHECKER_H_

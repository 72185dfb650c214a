// AION: the online timestamp-based isolation checker (paper Algorithm 3,
// Sec. III-C). Receives transactions one by one in arbitrary cross-session
// order (session order is preserved per session) and checks SI or SER
// incrementally:
//
//   Step 1  check SESSION / INT / EXT for the new transaction;
//   Step 2  re-check NOCONFLICT against transactions overlapping it
//           (write-interval overlap on shared keys);
//   Step 3  re-check EXT for transactions whose read view falls between
//           the new transaction's commit and the next version of each
//           written key.
//
// EXT verdicts are tentative until a per-transaction timeout expires
// (Sec. IV-A); verdict switches are recorded as flip-flops (Sec. VI-C).
// Garbage collection moves versions and write intervals below a safe
// watermark to a disk spill store and reloads them when a straggler
// arrives below the watermark (Algorithm 3 lines 62-66).
//
// Structurally, Aion is the transaction-scoped `TxnIngress`
// (core/txn_ingress.h) driving a single key-scoped `KeyEngine`
// (core/key_engine.h) inline. The key-partitioned `ShardedAion`
// (online/sharded_aion.h) drives N engines on worker threads through
// the same ingress and is verdict-identical to this monolith.
#ifndef CHRONOS_CORE_AION_H_
#define CHRONOS_CORE_AION_H_

#include "core/flipflop_stats.h"
#include "core/key_engine.h"
#include "core/online_checker.h"
#include "core/txn_ingress.h"
#include "core/types.h"
#include "core/violation.h"

namespace chronos {

/// Online checker for SI (default) or SER histories.
class Aion : public OnlineChecker, private TxnIngress::Dispatch {
 public:
  using Options = CheckerOptions;
  using Stats = CheckerStats;
  using Footprint = CheckerFootprint;

  Aion(const Options& options, ViolationSink* sink);
  ~Aion() override;

  Aion(const Aion&) = delete;
  Aion& operator=(const Aion&) = delete;

  /// Feeds one collected transaction. `now_ms` is the arrival time on the
  /// checker's clock; it must be non-decreasing across calls.
  void OnTransaction(const Transaction& t, uint64_t now_ms) override;

  /// Fires all EXT timeouts with deadline <= now_ms, finalizing and
  /// reporting their verdicts.
  void AdvanceTime(uint64_t now_ms) override;

  /// Garbage-collects versions, write intervals and transaction records
  /// at or below `up_to` (clamped to the safe watermark: nothing an
  /// unfinalized transaction might still need is evicted). Evicted state
  /// goes to the spill store. Returns the effective watermark used.
  Timestamp Gc(Timestamp up_to) override;

  /// Convenience: GC so that at most `target` transaction records stay
  /// resident (the paper's "maximum transaction limit" strategy).
  void GcToLiveTarget(size_t target) override;

  /// Finalizes every outstanding transaction (end of stream).
  void Finish() override;

  /// Trims list element buffers below the watermark to a prefix hash
  /// (the --memory-ceiling degradation path; see OnlineChecker).
  void ShedMemory() override { engine_.TrimListsBelowHorizon(); }

  const Stats& stats() const { return stats_; }
  const FlipFlopStats& flip_stats() const { return flip_stats_; }
  Footprint GetFootprint() const override;
  /// Current GC watermark (kTsMin if GC never ran).
  Timestamp watermark() const { return ingress_.watermark(); }

 private:
  // TxnIngress::Dispatch: the monolith executes key-scoped work inline.
  void DispatchTxn(const KeyEngine::TxnCtx& ctx, ClassifiedOps&& ops,
                   bool register_reads, uint64_t now_ms) override;
  void DispatchFinalize(TxnId tid) override;
  void DispatchGc(Timestamp watermark) override;

  Stats stats_;
  FlipFlopStats flip_stats_;
  KeyEngine engine_;
  TxnIngress ingress_;
};

}  // namespace chronos

#endif  // CHRONOS_CORE_AION_H_

// The key-scoped half of AION (paper Algorithm 3): version chains, write
// intervals, per-key tentative-EXT bookkeeping, the Step-2 NOCONFLICT and
// Step-3 EXT re-checks, and the GC spill path. Everything in here is
// keyed by Key and only ever consults state of the keys it is handed, so
// a checker may run one engine (the monolithic `Aion`) or N key-disjoint
// engines (`ShardedAion`, keys partitioned by hash) with identical
// results: the engine never reaches across keys.
//
// The transaction-scoped half (SESSION/INT checks, timestamp
// uniqueness, the EXT timeout clock, and the GC watermark decision)
// lives in core/txn_ingress.h; the ingress drives the engine through
// ProcessTxn/FinalizeTxn/CollectUpTo in a single well-defined order.
// A KeyEngine instance is single-threaded: exactly one thread (its
// owner) may call into it.
#ifndef CHRONOS_CORE_KEY_ENGINE_H_
#define CHRONOS_CORE_KEY_ENGINE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/flipflop_stats.h"
#include "core/list_kv.h"
#include "core/ongoing_index.h"
#include "core/online_checker.h"
#include "core/spill.h"
#include "core/types.h"
#include "core/versioned_kv.h"
#include "core/violation.h"

namespace chronos {

class KeyEngine {
 public:
  struct Options {
    IsolationLevel mode = IsolationLevel::kSi;  ///< run default: kSi or kSer
    std::string spill_dir;  ///< empty disables spill persistence
  };

  /// The transaction-scoped facts a per-key step needs. `level` is the
  /// effective isolation level the ingress resolved for the arrival
  /// (never kUnspecified); it rides next to the footprint in the sharded
  /// checker's ShardCmd, so per-level evaluation needs no new
  /// synchronization.
  struct TxnCtx {
    TxnId tid = 0;
    Timestamp view_ts = 0;  ///< start_ts (SI) or commit_ts (SER/RC/RA)
    Timestamp commit_ts = 0;
    Timestamp start_ts = 0;
    IsolationLevel level = IsolationLevel::kSi;
  };

  /// One external read of the transaction being processed (op order).
  struct ExtReadReq {
    Key key = 0;
    Value observed = kValueBottom;
  };

  /// One final write of the transaction (distinct keys, first-write op
  /// order, carrying the last written value per key).
  struct WriteReq {
    Key key = 0;
    Value value = kValueInit;
  };

  /// One external list read: the resolved base prefix (the observed list
  /// minus the transaction's own append suffix; see core/list_replay.h)
  /// that must equal the key's committed cumulative append sequence at
  /// the read view.
  struct ListReadReq {
    Key key = 0;
    std::vector<Value> observed;
  };

  /// One list append footprint (distinct keys, first-append op order,
  /// carrying every element the transaction appended to the key).
  struct AppendReq {
    Key key = 0;
    std::vector<Value> delta;
  };

  /// A transaction's full per-key footprint, passed as raw spans so the
  /// monolith can point into ClassifiedOps and a sharded caller into the
  /// per-shard command slices.
  struct OpsView {
    const ExtReadReq* reads = nullptr;
    size_t num_reads = 0;
    const WriteReq* writes = nullptr;
    size_t num_writes = 0;
    const ListReadReq* list_reads = nullptr;
    size_t num_list_reads = 0;
    const AppendReq* appends = nullptr;
    size_t num_appends = 0;
  };

  /// Violation reporting with a deterministic ordering tag: `order_ts`
  /// is the commit timestamp of the transaction the violation is
  /// attributed to, so a coordinator can merge-sort reports from
  /// several engines into one stable stream. The monolith forwards to
  /// its sink directly and ignores the tag.
  using ReportFn = std::function<void(Timestamp order_ts, const Violation&)>;

  /// `stats` and `flips` are owned by the caller and must outlive the
  /// engine; the monolith shares its own structs, a sharded checker
  /// hands each engine private ones and merges on read.
  KeyEngine(const Options& options, CheckerStats* stats, FlipFlopStats* flips,
            ReportFn report);

  KeyEngine(const KeyEngine&) = delete;
  KeyEngine& operator=(const KeyEngine&) = delete;

  /// Runs the per-key steps of Algorithm 3 for one transaction, in the
  /// monolith's exact order: tentative EXT evaluation and registration
  /// for register and list reads (op order; skipped entirely when
  /// `register_reads` is false — the replayed-tid case), version install
  /// + Step-3 re-check per write and per append, then Step-2 NOCONFLICT
  /// and interval registration (SI only; appends are writers too).
  void ProcessTxn(const TxnCtx& ctx, const OpsView& ops, bool register_reads,
                  uint64_t now_ms);

  /// Finalizes this engine's external reads of `tid` (EXT timeout fired):
  /// records flip totals and reports EXT violations for reads that ended
  /// unsatisfied. No-op if the transaction has no reads here.
  void FinalizeTxn(TxnId tid);

  /// Garbage-collects versions and write intervals at or below
  /// `watermark` into the spill store and drops finalized local
  /// transaction state below it. The caller guarantees watermarks are
  /// strictly increasing and safe (no unfinalized read view at or below).
  void CollectUpTo(Timestamp watermark);

  /// Memory-ceiling degradation: trims list element buffers below the
  /// current watermark down to a prefix hash (ListKv::TrimTo). Returns
  /// the number of elements released.
  size_t TrimListsBelowHorizon();

  /// The checkpoint layout of this engine's state (hash maps in sorted
  /// key order), instantiated for StateWriter and StateReader. A read
  /// rebuilds the derivable structures (reader indexes, GC triggers,
  /// epoch cache payloads) instead of transferring them, rejects a
  /// reader level outside IsolationLevel, and assumes an engine
  /// constructed with the same Options (in particular the same
  /// spill_dir, which must still hold the manifest's epoch files).
  template <typename IO>
  void Transfer(IO& io);

  /// Accounting (O(1), backed by running counters). Versions count both
  /// register versions and list version boundaries.
  size_t TotalVersions() const {
    return versions_.TotalVersions() + lists_.TotalVersions();
  }
  size_t TotalIntervals() const { return ongoing_.TotalIntervals(); }
  size_t ApproxBytes() const {
    return versions_.ApproxBytes() + lists_.ApproxBytes();
  }

  Timestamp watermark() const { return watermark_; }

 private:
  struct ExtReadState {
    Key key = 0;
    Value observed = kValueBottom;
    bool satisfied = true;
    uint32_t flips = 0;
    uint64_t last_change_ms = 0;
  };

  struct ListReadState {
    Key key = 0;
    std::vector<Value> observed;  ///< resolved base prefix
    bool satisfied = true;
    uint32_t flips = 0;
    uint64_t last_change_ms = 0;
  };

  /// Per-engine record of a transaction's external reads on this
  /// engine's keys (the key-scoped slice of the monolith's TxnRec).
  struct LocalTxn {
    Timestamp view_ts = 0;
    Timestamp commit_ts = 0;
    std::vector<ExtReadState> ext_reads;
    std::vector<ListReadState> list_reads;
    bool finalized = false;
    /// The reader's effective level: decides the frontier bound its
    /// reads are (re-)evaluated against (SI inclusive snapshot, SER
    /// exclusive commit view, RC/RA committed membership).
    IsolationLevel level = IsolationLevel::kSi;
  };

  // One external-read registration: txn `tid` read `key` at `view_ts`,
  // stored as ext_reads[read_idx]. Chains are flat vectors sorted by
  // view_ts (append-mostly: views arrive in near-timestamp order). At
  // most one external read per (txn, key), and view timestamps are
  // unique per transaction.
  struct ReaderRef {
    Timestamp view_ts = kTsMin;
    TxnId tid = kTxnNone;
    uint32_t read_idx = 0;
  };
  using ReaderChain = std::vector<ReaderRef>;

  // Frontier lookup honoring the GC watermark: below it, consults the
  // spill store. `inclusive` selects the reader-level bound: SI sees the
  // latest version at or before `view`, SER/RC/RA strictly before.
  VersionedKv::Lookup LookupFrontier(Key key, Timestamp view, bool inclusive);
  VersionedKv::Lookup LookupSpilled(Key key, Timestamp view, bool inclusive);

  /// The RC/RA committed-membership query: was `observed` ever a
  /// committed value of `key` strictly before `view` (the initial value
  /// always qualifies)? The window reaches all the way down to the
  /// initial transaction, so once GC has run the in-memory chain alone
  /// is incomplete: the spill store is merged in, or — without one — the
  /// consult degrades to best effort (unsafe_below_watermark, the D7
  /// accounting model).
  bool EvaluateMembership(Key key, Timestamp view, Value observed);

  void InstallVersionAndRecheck(const TxnCtx& ctx, Key key, Value value,
                                uint64_t now_ms);
  void InstallAppendAndRecheck(const TxnCtx& ctx, Key key,
                               const std::vector<Value>& delta,
                               uint64_t now_ms);
  void CheckNoConflictKey(const TxnCtx& ctx, Key key);

  /// The Step-3 walk shared by register and list re-checks: visits every
  /// live (unfinalized, non-writer) reader of `readers` whose view lies
  /// in the affected range — [cts, upper] for an SI reader, (cts, upper]
  /// for a SER reader (the bound is per *reader* level now that one
  /// chain may mix them), unbounded above when `upper` is nullopt
  /// (lists: appends compose; membership chains: versions compose).
  /// `fn(ref, reader)` re-evaluates one read.
  template <typename Fn>
  void WalkAffectedReaders(const ReaderChain& readers, Timestamp cts,
                           const std::optional<Timestamp>& upper,
                           TxnId writer, Fn&& fn);

  /// Evaluates one external list read against the frontier at `view`
  /// (cumulative committed append sequence), consulting the spill store
  /// for views below the collapsed base.
  struct ListEval {
    bool satisfied = false;
    size_t frontier_len = 0;
    TxnId frontier_tid = kTxnNone;
    int64_t divergence = -1;
  };
  ListEval EvaluateListRead(Key key, Timestamp view,
                            const std::vector<Value>& observed);
  /// Visits every spilled list version boundary of `key` (epoch order).
  template <typename Fn>
  void ForEachSpilledListVersion(Key key, Fn&& fn);
  /// (ts, delta) of every spilled list version of `key`, sorted by ts.
  std::vector<std::pair<Timestamp, std::vector<Value>>> SpilledListDeltas(
      Key key);
  /// Lengths-only variant for below-base placement offsets.
  std::vector<std::pair<Timestamp, size_t>> SpilledListLens(Key key);
  /// Rebuilds the three reader indexes from local_txns_ after a read.
  void RebuildReaderIndexes();

  Options options_;
  CheckerStats* stats_;
  FlipFlopStats* flip_stats_;
  ReportFn report_;

  VersionedKv versions_;
  ListKv lists_;
  OngoingIndex ongoing_;
  SpillStore spill_;

  std::unordered_map<TxnId, LocalTxn> local_txns_;
  // (cts, tid) of resident local txns, sorted by cts (append-mostly).
  std::vector<std::pair<Timestamp, TxnId>> commit_index_;
  std::unordered_map<Key, ReaderChain> reader_index_;
  // External list reads per key (same layout; read_idx indexes
  // LocalTxn::list_reads). Kept separate from the register chain: a
  // register write never affects a list read and vice versa.
  std::unordered_map<Key, ReaderChain> list_reader_index_;
  // RC/RA register reads per key, separate from the frontier chain: a
  // membership verdict has no NextVersionAfter upper bound (any newer
  // version with the observed value satisfies it), so keeping these
  // readers out of reader_index_ preserves the bounded frontier walk
  // for SI/SER-only keys.
  std::unordered_map<Key, ReaderChain> membership_reader_index_;
  Timestamp watermark_ = kTsMin;
};

}  // namespace chronos

#endif  // CHRONOS_CORE_KEY_ENGINE_H_

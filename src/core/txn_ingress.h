// The transaction-scoped half of AION: SESSION order, Eq. (1)
// well-formedness, timestamp uniqueness, INT replay/classification, the
// EXT timeout clock, and the global GC watermark decision. The ingress
// never touches key-scoped state; it classifies each arrival into its
// per-key footprint (external reads + final writes) and hands that to a
// Dispatch, which either calls a single KeyEngine inline (the monolithic
// `Aion`) or fans it out to key-partitioned engine shards
// (`ShardedAion`). Because every Dispatch call is issued from one thread
// in a single total order, and engines only consult key-local state, any
// per-shard FIFO delivery of these calls reproduces the monolith's
// verdicts exactly.
#ifndef CHRONOS_CORE_TXN_INGRESS_H_
#define CHRONOS_CORE_TXN_INGRESS_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "core/key_engine.h"
#include "core/list_replay.h"
#include "core/online_checker.h"
#include "core/session_order.h"
#include "core/small_map.h"
#include "core/types.h"

namespace chronos {

/// A transaction's per-key footprint, classified by INT replay:
/// `ext_reads` holds the first read of each key not covered by an
/// earlier internal op (op order); `writes` holds each written key once
/// (first-write order) with the last value written to it. List
/// operations classify the same way (core/list_replay.h): `list_reads`
/// holds each key's resolved external base prefix (at most one per key,
/// from its first consistent list read) and `appends` each appended key
/// once (first-append order) with the transaction's full append delta.
struct ClassifiedOps {
  std::vector<KeyEngine::ExtReadReq> ext_reads;
  std::vector<KeyEngine::WriteReq> writes;
  std::vector<KeyEngine::ListReadReq> list_reads;
  std::vector<KeyEngine::AppendReq> appends;
};

/// ClassifyOps's per-transaction replay state. A caller that classifies
/// many transactions keeps one and passes it to each call: every call
/// clears it, and it keeps its capacity.
struct ClassifyScratch {
  SmallMap<Key, Value> int_val;  // last value read or written per key
  // Register and list namespaces are independent (a key used both ways
  // keeps two states; generated workloads never mix).
  SmallMap<Key, ListAccess> list_state;
  SmallMap<Key, uint32_t> write_at;   // key -> its entry in out->writes
  SmallMap<Key, uint32_t> append_at;  // key -> its entry in out->appends
};

/// Replays `t`'s operations, reporting INT violations through `report`
/// (tagged with t.commit_ts) and, when `out` is non-null, overwriting
/// `*out` with the per-key footprint. Pure per-transaction computation:
/// no key state. A reused `*out` keeps its vectors' capacity.
void ClassifyOps(const Transaction& t, const KeyEngine::ReportFn& report,
                 ClassifiedOps* out, ClassifyScratch* scratch);

/// ClassifyOps with a scratch of its own.
void ClassifyOps(const Transaction& t, const KeyEngine::ReportFn& report,
                 ClassifiedOps* out);

class TxnIngress {
 public:
  /// Receiver of the key-scoped work the ingress produces. Calls arrive
  /// in one total order from the ingress's thread; implementations may
  /// execute them inline or forward them (per key-partition FIFO) to
  /// worker threads.
  class Dispatch {
   public:
    virtual ~Dispatch() = default;
    /// One arrival's footprint. `register_reads` is false for a
    /// replayed tid (reads are evaluated but not retained). The ingress
    /// reuses `ops` for the next arrival: an implementation that moves
    /// from it only costs that arrival its capacity.
    virtual void DispatchTxn(const KeyEngine::TxnCtx& ctx,
                             ClassifiedOps&& ops, bool register_reads,
                             uint64_t now_ms) = 0;
    /// `tid`'s EXT timeout fired: finalize its reads.
    virtual void DispatchFinalize(TxnId tid) = 0;
    /// GC to `watermark` (strictly increasing across calls, safe per the
    /// oldest-unfinalized-view clamp).
    virtual void DispatchGc(Timestamp watermark) = 0;
  };

  /// The cross-transaction verdict of admitting one arrival, everything
  /// OnTransaction decides *except* the per-txn INT replay/classification
  /// (which is pure, see ClassifyOps):
  /// - kDrop: duplicate timestamp — no INT reports, no dispatch.
  /// - kIntOnly: Eq. (1) violation — INT replay still applies, but the
  ///   footprint is not dispatched.
  /// - kDispatch: dispatch the classified footprint with `ctx`;
  ///   `register_reads` is false for a replayed tid.
  struct Admission {
    enum class Kind : uint8_t { kDrop, kIntOnly, kDispatch };
    Kind kind = Kind::kDrop;
    bool register_reads = false;
    KeyEngine::TxnCtx ctx{};
    uint64_t now_ms = 0;  ///< the clamped clock DispatchTxn must carry
  };

  TxnIngress(const CheckerOptions& options, CheckerStats* stats,
             KeyEngine::ReportFn report, Dispatch* dispatch);

  TxnIngress(const TxnIngress&) = delete;
  TxnIngress& operator=(const TxnIngress&) = delete;

  void OnTransaction(const Transaction& t, uint64_t now_ms);
  /// The admission half of OnTransaction: fires deadlines, runs the
  /// Eq. (1)/duplicate-timestamp/SESSION checks, registers the record,
  /// and says what to do with the (separately computed) footprint.
  /// `OnTransaction(t, now)` == `AdmitTxn(t, now)` + ClassifyOps +
  /// DispatchTxn per the returned kind. Both checkers call
  /// OnTransaction; AdmitTxn is public for tests and tracing tools that
  /// observe or time the admission step on its own.
  Admission AdmitTxn(const Transaction& t, uint64_t now_ms);
  void AdvanceTime(uint64_t now_ms);
  /// Clamps to the safe watermark and dispatches GC; returns the
  /// effective watermark used.
  Timestamp Gc(Timestamp up_to);
  void GcToLiveTarget(size_t target);
  /// Finalizes every outstanding transaction (end of stream).
  void Finish();

  Timestamp watermark() const { return watermark_; }
  size_t live_txns() const { return txns_.size(); }
  size_t used_ts_count() const { return used_ts_.size(); }

  /// The checkpoint layout of the transaction-scoped state (hash
  /// containers sorted, heaps drained in order, the timestamp registry
  /// written twice), instantiated for StateWriter and StateReader. The
  /// options/report/dispatch wiring is reconstructed by the caller, not
  /// transferred.
  template <typename IO>
  void Transfer(IO& io);

 private:
  /// Global (cross-key) record of a live transaction; the ext-read
  /// payload lives in the key engines.
  struct TxnRec {
    Timestamp view_ts = 0;  // start_ts (SI) or commit_ts (SER/RC/RA)
    Timestamp commit_ts = 0;
    bool finalized = false;
  };

  void CheckSession(const Transaction& t, IsolationLevel lv);
  /// True when `ts` is in the timestamp registry.
  bool TsUsed(Timestamp ts) const;
  /// Adds `ts` to the registry; false when it was already there.
  bool ClaimTs(Timestamp ts);
  void FireDeadlines(uint64_t now_ms);
  void FinalizeRec(TxnId tid);
  // Oldest view among unfinalized transactions (lazily drops finalized
  // views off the heap top). nullopt when everything is finalized.
  std::optional<Timestamp> OldestUnfinalizedView();

  CheckerOptions options_;
  CheckerStats* stats_;
  KeyEngine::ReportFn report_;
  Dispatch* dispatch_;

  std::unordered_map<TxnId, TxnRec> txns_;
  // (cts, tid) of live txns, sorted by cts (append-mostly flat map).
  std::vector<std::pair<Timestamp, TxnId>> commit_index_;
  // Unfinalized read views: a min-heap of every live view, and a min-heap
  // of the finalized ones, which is a sub-multiset of it. Transactions of
  // the commit-view levels may share a view (RC/RA claim no timestamps),
  // and each finalize cancels one equal entry: the oldest unfinalized
  // view is the first top the two heaps do not share.
  std::priority_queue<Timestamp, std::vector<Timestamp>, std::greater<>>
      view_heap_, finalized_views_;
  // Timestamp-uniqueness registry: every used timestamp above the GC
  // line, ascending. Arrivals come in near-ts order, so membership and
  // inserts search from the back (TailLowerBound); GC erases the prefix
  // at or below the watermark.
  std::vector<Timestamp> used_ts_;
  std::unordered_map<SessionId, SessionState> sessions_;
  // (deadline, tid) FIFO for EXT timeouts: arrival time is non-decreasing
  // and the timeout is constant, so deadlines are already sorted.
  std::deque<std::pair<uint64_t, TxnId>> deadlines_;
  Timestamp watermark_ = kTsMin;
  uint64_t last_now_ms_ = 0;
  // Step 1's per-arrival work space, reused so an arrival's
  // classification does not allocate.
  ClassifyScratch classify_scratch_;
  ClassifiedOps classified_;
};

}  // namespace chronos

#endif  // CHRONOS_CORE_TXN_INGRESS_H_

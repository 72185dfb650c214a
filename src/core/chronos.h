// CHRONOS: the offline timestamp-based isolation checker (paper
// Algorithm 2, Sec. III-B). O(N log N + M) for N transactions and M
// operations: sort all start/commit timestamps, then simulate the
// execution in timestamp order while checking SESSION, INT, EXT and
// NOCONFLICT on the fly.
//
// SER (Sec. VI-A) is the same replay with ChronosOptions::mode kSer: a
// transaction's start event replays at its commit timestamp, the read
// view (ReadView, core/online_checker.h), so all transactions replay
// one after another in commit order. No transaction breaks Eq. (1),
// only commit timestamps must be unique, and NOCONFLICT is not checked.
//
// One replay checks register and list histories alike (Sec. III-B1:
// "easily adaptable to support other data types such as lists", Fig.
// 5b). R/W ops compare against the key's last committed value. A/L ops
// go through core/list_replay.h, the helper AION's ingress uses too: a
// list read that contradicts the transaction's own list ops is INT, and
// the external base it resolves must equal the key's committed
// cumulative append sequence at the snapshot, or it is EXT (reported
// with list lengths and Violation::divergence). Appends and writes share
// the NOCONFLICT bookkeeping; a register-only transaction builds no list
// state.
//
// The replay keeps one table entry per key and nothing per transaction:
// the key's committed register value and list, which a snapshot reads,
// and under SI its ongoing writers. A start event replays the
// transaction's ops against the table (INT, EXT) and joins it to the
// writers of each key it writes or appends. Its commit event walks the
// same ops, which the source still holds: a key's first write or append
// leaves its writers and reports NOCONFLICT against those left, and the
// key's last write is what later snapshots read.
//
// The replay reads its input from a ReplaySource: the well-formedness
// pre-pass over every transaction, then the start/commit events in
// timestamp order. Check(History&&) adapts an in-memory history (one
// sort of every event); hist::EventStream streams a history file
// through a window of events, so a check holds that window rather than
// the file. Both give the same events in the same order, so the
// verdict and the order of the reports are the same.
#ifndef CHRONOS_CORE_CHRONOS_H_
#define CHRONOS_CORE_CHRONOS_H_

#include <cstdint>
#include <unordered_map>

#include "core/event_timeline.h"
#include "core/online_checker.h"
#include "core/session_order.h"
#include "core/stats.h"
#include "core/types.h"
#include "core/violation.h"

namespace chronos {

/// Options controlling the offline check.
struct ChronosOptions {
  /// The level every transaction is checked at, kSi or kSer (iso= tags
  /// are ChronosMixed's).
  IsolationLevel mode = IsolationLevel::kSi;
  /// Trigger a periodic garbage-collection pass after this many commit
  /// events (paper Fig. 6/9: gc-10k, gc-20k, ...). 0 disables periodic GC;
  /// the per-transaction prompt GC of Algorithm 2 lines 30-33 always runs.
  uint64_t gc_every_n_txns = 0;
  /// Return freed memory to the OS after each GC pass (glibc
  /// malloc_trim), making the Fig. 10 RSS sawtooth observable.
  bool trim_on_gc = false;
};

/// What Chronos::Check replays: a history in file order for the
/// pre-pass, then its events in (ts, kind, file index) order, the order
/// BuildSortedEvents gives at the pre-pass's level().
class ReplaySource {
 public:
  virtual ~ReplaySource() = default;

  /// Runs `pre` over every transaction in file order (its Check on
  /// each, its IntOnly on those Check rejects) and adds each
  /// transaction and its ops to `stats`. False stops the check: the input
  /// failed, or it is not one this checker takes.
  virtual bool PrePass(WellFormednessPrePass* pre, CheckStats* stats) = 0;

  /// The next event of an Eq. (1)-valid transaction and that
  /// transaction, valid until the next call. False at the end of the
  /// input and at the first error. A transaction keeps its ops until its
  /// commit event has been replayed: the commit event applies them.
  virtual bool Next(EventKind* kind, Transaction** t) = 0;

  /// A periodic GC pass: release the operation storage of every
  /// transaction whose commit event has been replayed, and of no other.
  virtual void ReleaseCommitted() {}
};

/// Offline SI or SER checker for register and list histories. Not
/// thread-safe; use one instance per check.
class Chronos {
 public:
  Chronos(const ChronosOptions& options, ViolationSink* sink);

  /// Checks `history` at options.mode. Consumes the history: operation
  /// storage is released as transactions are garbage-collected (this is
  /// what makes the Fig. 10 memory curve decrease over time).
  CheckStats Check(History&& history);

  /// Checks what `source` yields at options.mode (Algorithm 2's replay
  /// loop; Check(History&&) runs it over an in-memory source). Stops
  /// early when the source does: the caller reads the source's own
  /// status. Clears a transaction's list_args once its start event has
  /// replayed.
  CheckStats Check(ReplaySource* source);

  /// Convenience: checks a copy of `history` at `level`, no periodic GC.
  static CheckStats CheckHistory(const History& history, ViolationSink* sink,
                                 IsolationLevel level = IsolationLevel::kSi);

 private:
  ChronosOptions options_;
  ViolationSink* sink_;
};

/// CHRONOS-MIXED: the offline mirror of AION on per-transaction
/// isolation levels (Transaction::iso; untagged transactions fall back
/// to `default_level`, kSi or kSer). An independent, batch
/// re-implementation of the online per-level semantics, used by the
/// differ as the white-box reference for mixed histories:
///   - admission replayed in canonical (commit_ts, tid) order with
///     per-level timestamp registration (SER {commit}, Eq.(1)-valid SI
///     {start, commit}, RC/RA none);
///   - version chains built from the final writes of admitted
///     transactions only, with engine-style TS-DUP on per-key commit
///     collisions (the RC/RA dup-gate bypass fallback);
///   - EXT evaluated against the *final* chains per reader level (SI
///     inclusive snapshot, SER exclusive frontier, RC/RA committed
///     membership strictly before the commit view), which equals AION's
///     Finish-time verdicts under an infinite EXT timeout and no GC;
///   - NOCONFLICT as pairwise SI-vs-SI write-interval overlap per key;
///   - SESSION replayed per session in sequence-number order with the
///     per-level ordering rule of TxnIngress::CheckSession.
class ChronosMixed {
 public:
  ChronosMixed(IsolationLevel default_level, ViolationSink* sink)
      : default_level_(default_level), sink_(sink) {}

  CheckStats Check(History&& history);

  static CheckStats CheckHistory(const History& history,
                                 IsolationLevel default_level,
                                 ViolationSink* sink);

 private:
  IsolationLevel default_level_;
  ViolationSink* sink_;
};

}  // namespace chronos

#endif  // CHRONOS_CORE_CHRONOS_H_

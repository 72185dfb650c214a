// Schedule-space model for the exhaustive interleaving enumerator
// (explore/enumerator.h): the canonical arrival list of a small history,
// per-arrival key footprints, and the dependence relation that defines
// which arrival orders are observationally equivalent.
//
// AION's delivery contract is session-preserving (the collector clamps
// to session order, hist/collector.h), so a "schedule" is a linear
// extension of the session partial order — a permutation of the
// canonical arrival list in which each session's transactions keep
// their sno order. Two adjacent arrivals commute (are independent) when
// swapping them cannot change any verdict-affecting decision:
//
//   - different sessions (same-session pairs are ordered by contract,
//     and SESSION bookkeeping is order-sensitive — D4),
//   - disjoint key footprints (registers and lists share the key
//     namespace here; every Step 2/3 decision is key-scoped),
//   - disjoint registered timestamps (a shared timestamp makes the
//     uniqueness check drop whichever twin arrives second — D6; the
//     footprint follows each transaction's effective isolation level,
//     so RC/RA arrivals — which register nothing — commute more widely
//     than their SI/SER peers), and
//   - neither crosses a watermark or finalize decision of the other:
//     with a finite EXT timeout or an active GC cadence, an arrival's
//     position on the virtual clock decides which deadlines fire and
//     where the watermark lands, so *every* pair is conservatively
//     dependent (position_sensitive) and the enumerator degenerates to
//     all linear extensions. The default exploration config (infinite
//     timeout, no GC) makes the condition vacuous: no finalize happens
//     before Finish() and the watermark never moves.
//
// Equivalence is the Mazurkiewicz-trace closure of adjacent independent
// swaps; the enumerator visits exactly one (lexicographically minimal)
// representative per class.
#ifndef CHRONOS_EXPLORE_SCHEDULE_H_
#define CHRONOS_EXPLORE_SCHEDULE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/online_checker.h"
#include "core/types.h"

namespace chronos::explore {

/// Hard cap on the history size the exhaustive enumerator accepts
/// (8 fully dependent arrivals already mean 8! = 40320 schedules).
inline constexpr size_t kMaxExploreTxns = 8;

/// One arrival event of the canonical schedule.
struct Arrival {
  const Transaction* txn = nullptr;
  /// Keys the transaction touches in any way (reads, writes, appends,
  /// list reads) — sorted, deduplicated.
  std::vector<Key> keys;
  /// Timestamps the ingress registers for uniqueness: commit under SER,
  /// start and commit under SI (none for an Eq.(1)-invalid SI txn).
  std::vector<Timestamp> reg_ts;
};

/// The canonical arrival list: transactions ordered by
/// (commit_ts, tid) — the collector's commit-order schedule. Every
/// explored schedule is a session-preserving permutation of this list,
/// and the enumerator's reference schedule is its lex-min extension.
std::vector<Arrival> CanonicalArrivals(const History& h,
                                       IsolationLevel run_level);

/// Symmetric dependence matrix over the canonical arrivals.
/// `position_sensitive` marks every pair dependent (finite timeout or
/// active GC; see the header comment).
class Dependence {
 public:
  Dependence(const std::vector<Arrival>& arrivals, bool position_sensitive);

  bool Depends(size_t i, size_t j) const { return m_[i * n_ + j] != 0; }
  size_t size() const { return n_; }

 private:
  size_t n_;
  std::vector<uint8_t> m_;
};

/// Renders a schedule as the arrival order of transaction ids
/// ("3,1,2") for logs and the .repro schedule sidecar.
std::string FormatSchedule(const std::vector<Arrival>& arrivals,
                           const std::vector<size_t>& perm);

/// The schedule as transaction ids in arrival order (sidecar payload).
std::vector<TxnId> ScheduleTids(const std::vector<Arrival>& arrivals,
                                const std::vector<size_t>& perm);

}  // namespace chronos::explore

#endif  // CHRONOS_EXPLORE_SCHEDULE_H_

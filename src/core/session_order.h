// Shared SESSION-axiom bookkeeping (Algorithm 2 lines 7-10) and the
// offline checkers' well-formedness pre-pass: the last-seen sequence
// number and commit timestamp per session, the set of sequence numbers
// excluded from replay (Eq. (1) violations) that the contiguity check
// steps over instead of false-firing, and the Eq. (1) /
// duplicate-timestamp pre-pass itself. One definition serves Chronos
// and the online ingress so the skip and replay policies
// cannot desynchronize between checkers the differ compares.
#ifndef CHRONOS_CORE_SESSION_ORDER_H_
#define CHRONOS_CORE_SESSION_ORDER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/event_timeline.h"
#include "core/gc_triggers.h"
#include "core/online_checker.h"
#include "core/types.h"
#include "core/violation.h"

namespace chronos {

struct SessionState {
  int64_t last_sno = -1;
  Timestamp last_cts = kTsMin;
  /// snos of transactions excluded from replay; the SESSION contiguity
  /// check skips over them instead of false-firing.
  std::unordered_set<uint64_t> skipped_snos;
};

/// Advances last_sno across contiguously skipped sequence numbers.
inline void AdvanceOverSkipped(SessionState* ss) {
  while (ss->skipped_snos.erase(static_cast<uint64_t>(ss->last_sno + 1)) >
         0) {
    ++ss->last_sno;
  }
}

/// Chronos's offline well-formedness pre-pass (register and list
/// histories, SI or SER), one transaction at a time in file order, over
/// a history in memory or streamed from a file (hist::EventStream).
/// Eq. (1) violations are reported, excluded from replay via
/// skipped_snos and handed to the checker's INT-only check (INT never
/// depends on timestamps); duplicate timestamps across distinct
/// transactions are reported but still replayed (AION instead skips
/// them — divergence entry D6). Both rules read a transaction's read view
/// (ReadView), so under SER no transaction breaks Eq. (1) and only
/// commit timestamps are claimed.
class WellFormednessPrePass {
 public:
  using IntOnlyFn = std::function<void(const Transaction&)>;

  WellFormednessPrePass(IsolationLevel level, ViolationSink* sink,
                        CountingSink* counted,
                        std::unordered_map<SessionId, SessionState>* sessions,
                        IntOnlyFn int_only)
      : level_(level),
        sink_(sink),
        counted_(counted),
        sessions_(sessions),
        int_only_(std::move(int_only)) {}

  /// Checks `t`'s timestamps; its ops are not read. False when `t`
  /// breaks Eq. (1): TS-ORDER is reported and `t` leaves the replay, and
  /// the caller hands `t`, ops included, to IntOnly before the next call.
  bool Check(const Transaction& t) {
    if (!Replayed(t, level_)) {
      sink_->Report({ViolationType::kTsOrder, t.tid, kTxnNone, 0,
                     static_cast<Value>(t.start_ts),
                     static_cast<Value>(t.commit_ts)});
      counted_->Report({ViolationType::kTsOrder, t.tid});
      (*sessions_)[t.sid].skipped_snos.insert(t.sno);
      return false;
    }
    const Timestamp start = ReadView(t, level_);
    if (!Claim(start) || (t.commit_ts != start && !Claim(t.commit_ts))) {
      sink_->Report({ViolationType::kTsDuplicate, t.tid});
      counted_->Report({ViolationType::kTsDuplicate, t.tid});
    }
    return true;
  }

  /// The level the replay checks: where start events replay.
  IsolationLevel level() const { return level_; }

  /// The INT-only check of a transaction Check rejected.
  void IntOnly(const Transaction& t) const { int_only_(t); }

  /// The pre-pass over an in-memory history.
  void CheckAll(const History& history) {
    for (const Transaction& t : history.txns) {
      if (!Check(t)) IntOnly(t);
    }
  }

 private:
  // Registers `ts`; false if an earlier transaction holds it. Claims
  // land in `recent_`, a short ascending vector, which merges into the
  // ascending `settled_` once it holds about sqrt(|settled_|) of them,
  // from the first place it reaches. A file in near timestamp order
  // claims near both tails, so a claim costs O(log n) and a merge moves
  // about what it adds; a file in any order costs O(sqrt n) a claim.
  // Either way the registry is 8 B per timestamp.
  bool Claim(Timestamp ts) {
    if (Holds(settled_, ts) || Holds(recent_, ts)) return false;
    recent_.insert(
        TailLowerBound(recent_.begin(), recent_.end(), ts, std::less<>()),
        ts);
    if (recent_.size() * recent_.size() > settled_.size() &&
        recent_.size() >= kMinMerge) {
      const auto mid = static_cast<std::ptrdiff_t>(settled_.size());
      const auto from = std::lower_bound(settled_.begin(), settled_.end(),
                                         recent_.front());
      const auto skip = from - settled_.begin();
      settled_.insert(settled_.end(), recent_.begin(), recent_.end());
      std::inplace_merge(settled_.begin() + skip, settled_.begin() + mid,
                         settled_.end());
      recent_.clear();
    }
    return true;
  }

  static bool Holds(const std::vector<Timestamp>& v, Timestamp ts) {
    auto it = TailLowerBound(v.begin(), v.end(), ts, std::less<>());
    return it != v.end() && *it == ts;
  }

  static constexpr size_t kMinMerge = 64;

  IsolationLevel level_;
  ViolationSink* sink_;
  CountingSink* counted_;
  std::unordered_map<SessionId, SessionState>* sessions_;
  IntOnlyFn int_only_;
  // Every claimed timestamp, ascending in two parts (see Claim).
  std::vector<Timestamp> settled_;
  std::vector<Timestamp> recent_;
};

}  // namespace chronos

#endif  // CHRONOS_CORE_SESSION_ORDER_H_

// The cross-checker oracle of the fuzzing harness: runs one history
// through every checker in the tree — Aion, ShardedAion{1,2,8}, Chronos
// (with and without periodic GC), Emme-SI/SER, ElleKV/ElleList, PolySI —
// and cross-checks the verdicts against the fault-injection ground truth
// and against each other. List histories run the full online matrix too
// (Aion and ShardedAion understand kAppend/kReadList) with Chronos (and
// Chronos with GC) as the white-box reference and ElleList as the
// black-box one; the register-only baselines (Emme, ElleKV, PolySI) are
// gated out.
//
// Expected-divergence table. A disagreement is only reported when it is
// NOT explained by one of these entries; each entry is exercised by at
// least one corpus history under tests/corpus/ (tags D1..D7):
//
//   D1  White-box detects, black-box accepts. Recording timestamp faults
//       (early-commit, late-start, ts-swap) and stale reads without a
//       cycle witness are provably invisible to black-box checkers
//       (paper Fig. 11 / Sec. V-D). The reverse direction IS checked:
//       black-box detection on a white-box-clean history is a bug.
//   D2  Faults injected, every checker accepts. A fault opportunity can
//       be benign: a lost-update skip with no concurrent writer, an
//       early-committed writer nobody reads in the shifted window.
//       Ground-truth counters are upper bounds on anomalies, not exact.
//   D3  HLC skew > 0: the database itself can commit a version below an
//       already-served snapshot (the paper's Sec. V-D clock-skew bug),
//       so genuine anomalies occur with an empty fault log. The
//       clean-accept rule is waived; checker-vs-checker rules still hold.
//   D4  SESSION multiplicity is observation-order-dependent: Chronos
//       sees timestamp order, AION sees session-clamped arrival order,
//       so a reordered session yields different counts (never a
//       different verdict). SESSION is compared as a boolean.
//   D5  Finite EXT timeout + reordered arrival (delays/shuffle): EXT
//       verdicts finalize before a relevant writer arrives, so online
//       counts may differ from offline in either direction (the paper's
//       timeout tradeoff, Sec. IV-A). Online checkers are exempt from
//       the offline-equality and clean-accept rules; the sharded-vs-
//       monolith identity still holds exactly.
//   D6  Duplicate timestamps: AION skips replaying a duplicate-ts
//       transaction, Chronos replays it; classes other than TS-DUP may
//       diverge on such histories.
//   D7  GC without spill: stragglers below the watermark become
//       unverifiable (unsafe_below_watermark), so online counts may
//       drop or gain relative to offline. Same exemption as D5. RC/RA
//       membership reads below the watermark degrade the same way (the
//       membership window always reaches back to the beginning of time).
//   D8  Mixed isolation levels (Transaction::iso tags): the single-level
//       checkers — Chronos, Emme, ElleKV, PolySI — have no notion of
//       per-transaction levels, so they are gated out on mixed histories
//       rather than compared. ChronosMixed is the white-box
//       reference instead ("chronos-mixed"); the online matrix and all
//       sharded/ckpt identity rules run unchanged.
//   D9  RC/RA commit-timestamp collisions bypass the ingress dup-gate
//       (those levels register no timestamps) and surface as per-key
//       engine TS-DUP at version install instead. Which colliding writer
//       is installed — and therefore the exact EXT verdicts downstream —
//       depends on arrival order, so such histories are compared under
//       the D6 boolean-TS-DUP regime.
#ifndef CHRONOS_FUZZ_DIFFER_H_
#define CHRONOS_FUZZ_DIFFER_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/online_checker.h"
#include "core/types.h"
#include "core/violation.h"
#include "db/fault.h"
#include "fuzz/scenario.h"

namespace chronos::fuzz {

/// Which per-class verdict equalities the expected-divergence table
/// leaves intact when the same history is observed under two different
/// session-preserving arrival orders (or online vs. the offline
/// timestamp order). This is the machine-readable core of entries
/// D4/D5/D6/D7 above, shared by the differ's strict rules and the
/// exhaustive schedule enumerator (explore/oracle.h):
///   - SESSION is always compared as a boolean (D4).
///   - a finite EXT timeout waives exact EXT equality (D5); active GC
///     waives EXT and NOCONFLICT (D7, stragglers below the watermark).
///   - duplicate timestamps change which twin AION replays, so only
///     TS-DUP detection (boolean) is comparable at all (D6).
struct ScheduleInvariance {
  bool dup_replay = false;       ///< D6: compare TS-DUP detection only
  bool ext_exact = true;         ///< D5/D7
  bool noconflict_exact = true;  ///< D7
};

ScheduleInvariance ScheduleInvarianceFor(bool finite_ext_timeout,
                                         bool gc_active, bool has_dup_ts);

/// True when two distinct transactions share a timestamp the ingress
/// registers under their *effective* level (EffectiveLevel against
/// `run_level`): SER registers {commit}, Eq.(1)-valid SI {start,
/// commit}, RC/RA nothing, and a single transaction's start==commit is
/// not a duplicate. Also true when two distinct transactions share a
/// commit timestamp and at least one of them is RC/RA-effective — those
/// bypass the ingress dup-gate and can still collide at version install
/// (entry D9). Conservative on that axis: the install collision is only
/// real when the pair writes a common key, but treating every such
/// history under the D6 boolean regime merely weakens a comparison,
/// never fabricates a disagreement.
bool HistoryHasDuplicateTs(const History& h, IsolationLevel run_level);

/// Plain (non-atomic) copy of the fault-injection ground truth.
struct FaultCounts {
  uint64_t lost_updates = 0;
  uint64_t stale_reads = 0;
  uint64_t early_commits = 0;
  uint64_t late_starts = 0;
  uint64_t value_corruptions = 0;
  uint64_t session_reorders = 0;
  uint64_t ts_swaps = 0;

  uint64_t Total() const {
    return lost_updates + stale_reads + early_commits + late_starts +
           value_corruptions + session_reorders + ts_swaps;
  }
  static FaultCounts FromLog(const db::FaultLog& log);
};

/// What the ground truth says about the history under test.
enum class CleanExpectation {
  kClean,    ///< no fault fired, no skew: any detection is a checker bug
  kFaulty,   ///< faults fired (or skew active): detection is legitimate
  kUnknown,  ///< no ground truth (replayed corpus/repro files)
};

/// One checker's verdict on the history.
struct CheckerReport {
  std::string name;
  bool ran = false;       ///< false: gated out (size cap, wrong mode)
  bool detected = false;
  size_t total = 0;
  std::array<size_t, 6> counts{};  ///< indexed by ViolationType
  /// Online checkers: the exact emission sequence (order-sensitive for
  /// the sharded determinism rule).
  std::vector<Violation> emissions;
  CheckerStats stats;     ///< online checkers only

  size_t Count(ViolationType t) const {
    return counts[static_cast<size_t>(t)];
  }
};

/// A rule breach the divergence table does not explain.
struct Disagreement {
  std::string rule;     ///< stable rule id, e.g. "aion-vs-chronos"
  std::string detail;   ///< human-readable specifics
  /// The offending checker for per-checker rules (clean-accept,
  /// blackbox-implies-whitebox, ...); empty for pairwise rules. The
  /// shrinker keys its failure signature on (rule, checker) so a
  /// reduction cannot swap one checker's false positive for another's.
  std::string checker;
};

/// Full differential verdict for one history.
struct DiffReport {
  std::vector<CheckerReport> checkers;
  std::vector<Disagreement> disagreements;
  FaultCounts injected;
  CleanExpectation expectation = CleanExpectation::kUnknown;
  /// The time budget expired mid-history: remaining checkers were
  /// skipped and no cross-check rules ran (a partial matrix must not
  /// fabricate disagreements). Callers treat the report as "not run".
  bool timed_out = false;

  bool Clean() const { return disagreements.empty(); }
  bool HasRule(const std::string& rule) const;
  const CheckerReport* Find(const std::string& name) const;
  /// Multi-line verdict matrix + disagreement list for fuzz logs.
  std::string Summary() const;
};

/// Returns true when the caller's time budget is spent; polled between
/// checkers inside DiffHistory so one long scenario (a 300-txn matrix
/// pass, a PolySI CEGAR blowup) overshoots a --time-budget by at most
/// one checker run instead of a whole seed.
using OverBudgetFn = std::function<bool()>;

/// Cross-checks an existing history under the scenario's checker knobs.
/// `work_dir` hosts the spill stores when sc.spill is set (created and
/// removed by the call); pass "" to disable spilling regardless.
DiffReport DiffHistory(const History& h, const FuzzScenario& sc,
                       CleanExpectation expect, const std::string& work_dir,
                       const OverBudgetFn& over_budget = {});

/// Generates the scenario's history (database + workload + fault log)
/// and diffs it. The history and ground truth are returned through the
/// optional out-params for shrinking and .repro emission.
DiffReport RunDiffer(const FuzzScenario& sc, const std::string& work_dir,
                     History* out_history = nullptr,
                     FaultCounts* out_injected = nullptr,
                     const OverBudgetFn& over_budget = {});

}  // namespace chronos::fuzz

#endif  // CHRONOS_FUZZ_DIFFER_H_

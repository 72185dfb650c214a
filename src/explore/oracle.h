// Verdict-invariance oracles for the schedule enumerator. Per explored
// schedule, the same arrival order is driven through the full online
// implementation matrix under adversarial pipeline timing — Aion,
// ShardedAion{1,2,8} with cmd_batch=1, minimum ring capacity and forced
// stall injection (CheckerOptions::stall_hook), and a 2-shard variant
// that checkpoint-restores at every arrival boundary — and everything
// must agree byte-for-byte within the schedule (emission sequences,
// stats, watermark). Across schedules, the per-class verdict must be
// invariant modulo the expected-divergence waivers shared with the
// differ (fuzz::ScheduleInvariance: SESSION boolean per D4, EXT waived
// under a finite timeout per D5, EXT/NOCONFLICT under GC per D7, all
// classes but TS-DUP under duplicate timestamps per D6).
//
// A flip — either kind of disagreement — is shrunk with the fuzz
// ddmin shrinker to a minimal .repro whose flipping schedule is pinned
// in a sidecar (FormatScheduleSidecar).
#ifndef CHRONOS_EXPLORE_ORACLE_H_
#define CHRONOS_EXPLORE_ORACLE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/online_checker.h"
#include "core/types.h"
#include "core/violation.h"
#include "explore/schedule.h"
#include "fuzz/differ.h"

namespace chronos::explore {

/// Timeout value meaning "EXT verdicts finalize only at Finish()" (same
/// convention as fuzz/scenario.h). The default exploration config: with
/// it, verdicts are provably schedule-invariant and the dependence
/// relation prunes hardest.
inline constexpr uint64_t kInfiniteTimeoutMs = 1ull << 30;

struct OracleConfig {
  CheckMode mode = CheckMode::kSi;
  uint64_t ext_timeout_ms = kInfiniteTimeoutMs;
  /// GcToLiveTarget(gc_target) every `gc_every` arrivals (0: never).
  /// Non-zero makes every arrival pair position-dependent (watermark
  /// decisions) and waives EXT/NOCONFLICT cross-schedule equality (D7).
  size_t gc_every = 0;
  size_t gc_target = 0;
  /// Adversarial pipeline timing: cmd_batch=1, ring capacity 2, and a
  /// forced-stall hook pulsing every shard worker. Verdicts must not
  /// move — that is the point.
  bool adversarial_timing = true;
  /// Test-only planted verdict-order bug: adds a scratch EXT oracle
  /// with a flipped frontier bound evaluated at *arrival* time (the
  /// schedule-sensitive analogue of shrink_test's BuggyFrontierExt).
  /// The enumerator must catch it as a "planted-frontier" flip; the
  /// self-test and `chronos_explore --plant-bug` set it, nothing else.
  bool plant_frontier_bug = false;

  bool finite_timeout() const { return ext_timeout_ms < kInfiniteTimeoutMs; }
  bool gc_active() const { return gc_every > 0; }
};

/// The outcome of one schedule, reduced to what the oracles compare.
struct ScheduleVerdict {
  /// Per-class counts of the sharded emission stream (== Aion's, or the
  /// run would have been an impl-divergence flip).
  std::array<size_t, 6> counts{};
  /// Normalized violation multiset for cross-schedule comparison:
  /// sorted by content, NOCONFLICT reduced to its unordered (tid,
  /// other_tid) pair + key (attribution order is schedule-dependent),
  /// SESSION and TS-DUP excluded (compared as booleans/waived).
  std::vector<Violation> normalized;
  CheckerStats stats;
  Timestamp watermark = kTsMin;
  uint64_t planted_ext = 0;  ///< plant_frontier_bug only
  /// Non-empty: the implementations disagreed *within* this schedule
  /// (emission bytes, stats, watermark, or a rejected restore image).
  std::string impl_divergence;
};

/// Drives one schedule through the full matrix. `arrivals` must come
/// from CanonicalArrivals(h, cfg.mode); `perm` is a permutation of its
/// indices (from the enumerator).
ScheduleVerdict RunSchedule(const std::vector<Arrival>& arrivals,
                            const std::vector<size_t>& perm,
                            const OracleConfig& cfg);

/// Cross-schedule comparison modulo the shared divergence waivers.
/// Returns "" on agreement, else a human-readable mismatch.
std::string CompareVerdicts(const ScheduleVerdict& ref,
                            const ScheduleVerdict& got,
                            const fuzz::ScheduleInvariance& inv);

struct ExploreOptions {
  OracleConfig oracle;
  /// Bound on explored schedules (0 = exhaust). Hitting it sets
  /// ExploreResult::truncated — never silently.
  uint64_t max_schedules = 0;
  /// Predicate-call budget for ShrinkFlip (each call re-explores the
  /// candidate).
  size_t shrink_predicate_calls = 300;
};

struct ExploreResult {
  std::string error;  ///< non-empty: input rejected (>8 txns), nothing ran
  uint64_t explored = 0;
  uint64_t pruned = 0;
  bool truncated = false;
  bool flip_found = false;
  /// "impl-divergence", "schedule-invariance", or "planted-frontier".
  std::string rule;
  std::string detail;
  std::vector<TxnId> reference_schedule;  ///< tids in arrival order
  std::vector<TxnId> flip_schedule;       ///< the schedule that flipped
  std::array<size_t, 6> reference_counts{};
};

/// Enumerates every inequivalent schedule of `h` and stops at the first
/// flip. The first schedule visited is the reference.
ExploreResult ExploreHistory(const History& h, const ExploreOptions& opts);

/// ddmin-shrinks a flipping history (precondition: ExploreHistory(h)
/// found a flip) while preserving the flip *rule*, then re-explores the
/// minimum to pin its flipping schedule.
struct ShrunkFlip {
  History history;
  ExploreResult result;  ///< exploration of the shrunk history
  size_t predicate_calls = 0;
};
ShrunkFlip ShrinkFlip(const History& h, const ExploreOptions& opts);

/// The `.repro.schedule` sidecar body: rule, detail, reference and
/// flipping schedules (as tid lists), and the enumeration counts.
std::string FormatScheduleSidecar(const ExploreResult& r);

}  // namespace chronos::explore

#endif  // CHRONOS_EXPLORE_ORACLE_H_

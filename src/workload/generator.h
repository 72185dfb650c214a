// The default workload of the paper's evaluation (Table I): multi-session
// read/write transactions over a flat key space with a configurable
// access distribution, executed against the Algorithm-1 database with a
// deterministic interleaving so that transactions genuinely overlap.
#ifndef CHRONOS_WORKLOAD_GENERATOR_H_
#define CHRONOS_WORKLOAD_GENERATOR_H_

#include <cstdint>

#include "core/types.h"
#include "db/database.h"

namespace chronos::workload {

/// Percentage mix of per-transaction isolation-level tags
/// (Transaction::iso). Fields are whole percentages; the remainder up
/// to 100 stays untagged (run-level default). All-zero (the default)
/// disables tagging entirely, so existing single-level workloads stay
/// byte-identical per seed.
struct LevelMix {
  uint32_t si = 0;
  uint32_t ser = 0;
  uint32_t rc = 0;
  uint32_t ra = 0;

  bool empty() const { return si + ser + rc + ra == 0; }
  uint32_t total() const { return si + ser + rc + ra; }
};

/// Deterministically tags `history`'s transactions according to `mix`:
/// each transaction's level is decided by a splitmix64 hash of
/// (seed, tid), so the assignment is stable across runs, independent of
/// transaction order, and reproducible from the seed alone.
void AssignLevels(History* history, const LevelMix& mix, uint64_t seed);

/// Table I parameters with the paper's defaults.
struct WorkloadParams {
  uint32_t sessions = 50;        ///< #sess
  uint64_t txns = 100000;        ///< #txns (committed)
  uint32_t ops_per_txn = 15;     ///< #ops/txn
  double read_ratio = 0.5;       ///< %reads
  uint64_t keys = 1000;          ///< #keys

  enum class KeyDist { kUniform, kZipf, kHotspot };
  KeyDist dist = KeyDist::kZipf; ///< dist
  double zipf_theta = 0.99;

  bool list_mode = false;        ///< list histories (appends + list reads)
  uint64_t seed = 1;
  /// Per-transaction isolation-level tag mix, applied to the exported
  /// history by GenerateDefaultHistory (empty: no tags).
  LevelMix mix;
};

/// Runs the workload to completion against `db` (deterministic
/// single-thread interleaving of `sessions` logical sessions). Aborted
/// transactions are retried with fresh operations; exactly `params.txns`
/// transactions commit.
void RunDefaultWorkload(db::Database* db, const WorkloadParams& params);

/// Convenience: creates a database with `config`, runs the workload, and
/// exports its history.
History GenerateDefaultHistory(const WorkloadParams& params,
                               const db::DbConfig& config = {});

/// Multi-threaded variant used by the DB-throughput bench (Fig. 15):
/// `threads` worker threads each drive a disjoint set of sessions.
/// Returns the committed-transaction throughput in txns/second.
double RunConcurrentWorkload(db::Database* db, const WorkloadParams& params,
                             uint32_t threads);

}  // namespace chronos::workload

#endif  // CHRONOS_WORKLOAD_GENERATOR_H_

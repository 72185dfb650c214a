// Elle-style black-box checkers (Kingsbury & Alvaro, VLDB'20): infer
// transaction dependencies from observed values under the unique-value
// assumption and hunt for cycles. ElleList uses list-append version-order
// recovery (Elle's core strength); ElleKV handles plain registers, where
// version orders are only partially recoverable — the paper notes Elle
// "has limited capabilities" for key-value pairs, and this implementation
// mirrors that: it detects G1a/G1b/INT/G1c-style anomalies and
// read-modify-write ww chains but cannot place blind writes.
#ifndef CHRONOS_BASELINES_ELLE_H_
#define CHRONOS_BASELINES_ELLE_H_

#include "baselines/depgraph.h"
#include "core/stats.h"
#include "core/types.h"
#include "core/violation.h"

namespace chronos::baselines {

/// Result of a baseline black-box check.
struct BaselineResult {
  bool cycle_found = false;   ///< dependency-cycle violation
  size_t anomalies = 0;       ///< non-cycle anomalies (G1a, INT, prefix...)
  size_t graph_edges = 0;
  double seconds = 0;

  bool Accepted() const { return !cycle_found && anomalies == 0; }
};

/// ElleKV: register histories. `level` (kSi or kSer) picks the cycle
/// criterion.
BaselineResult CheckElleKv(const History& h, IsolationLevel level,
                           ViolationSink* sink);

/// ElleList: list-append histories with prefix-based recovery.
BaselineResult CheckElleList(const History& h, IsolationLevel level,
                             ViolationSink* sink);

}  // namespace chronos::baselines

#endif  // CHRONOS_BASELINES_ELLE_H_

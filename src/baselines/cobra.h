// Cobra (Tan et al., OSDI'20): the only pre-existing online SER checker.
// Cobra requires "fence transactions" injected into the client workload
// (often unacceptable in production, as the paper stresses) and verifies
// in rounds of R transactions; fences bound which writer pairs have
// unknown order. This model reproduces its operational profile:
//   - per round, a SER polygraph over the round's transactions is solved
//     with fence-epoch pruning (pairs >= 2 epochs apart are ordered);
//   - the accumulated known graph is re-verified each round, so per-round
//     cost grows with history length (the declining curves of Fig. 12a);
//   - checking stops at the first violation (unlike AION, which reports
//     and continues).
// GPU acceleration is out of scope.
#ifndef CHRONOS_BASELINES_COBRA_H_
#define CHRONOS_BASELINES_COBRA_H_

#include <cstdint>
#include <vector>

#include "core/types.h"
#include "core/violation.h"
#include "hist/collector.h"

namespace chronos::baselines {

struct CobraParams {
  uint32_t round_size = 2400;  ///< transactions per verification round
  uint32_t fence_every = 20;   ///< client txns between fences, per session
  uint32_t sessions = 24;
};

struct CobraRun {
  uint64_t processed = 0;
  bool violation_found = false;
  double wall_seconds = 0;
  /// (wall_seconds_at_round_end, txns_processed_so_far) per round.
  std::vector<std::pair<double, uint64_t>> round_progress;
};

/// Feeds `stream` (delivery order) through Cobra-style online SER
/// checking. Stops at the first violation.
CobraRun RunCobraSer(const std::vector<hist::CollectedTxn>& stream,
                     const CobraParams& params, ViolationSink* sink);

}  // namespace chronos::baselines

#endif  // CHRONOS_BASELINES_COBRA_H_

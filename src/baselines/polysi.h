// PolySI (Huang et al., VLDB'23) and Viper (Zhang et al., EuroSys'23)
// modeled as polygraph checkers: black-box SI checking with unknown
// per-key version orders encoded as SAT variables, solved with a CEGAR
// loop around the in-tree SAT solver (standing in for MonoSAT):
// solve -> build the induced dependency graph -> find a
// cycle -> add a blocking clause -> repeat. Exponential in the worst
// case, which is exactly the scaling behaviour Fig. 4 shows.
//
// Viper differs by (a) pruning order variables that session order or
// read-modify-write chains already fix and (b) using the leaner
// BC-polygraph anti-dependency widening (rw only to the immediate next
// version instead of all later versions).
#ifndef CHRONOS_BASELINES_POLYSI_H_
#define CHRONOS_BASELINES_POLYSI_H_

#include <cstddef>
#include <functional>

#include "baselines/elle.h"
#include "core/types.h"
#include "core/violation.h"

namespace chronos::baselines {

/// Tuning for the polygraph CEGAR check.
struct PolygraphParams {
  IsolationLevel level = IsolationLevel::kSi;  ///< kSi or kSer
  bool prune_known_orders = false;  ///< Viper-style session/RMW pruning
  /// Cobra fence epochs: writer pairs two or more epochs apart are
  /// ordered by epoch instead of a SAT variable (nullptr: disabled).
  std::function<uint64_t(uint32_t txn_index)> epoch_of;
  uint64_t max_cegar_rounds = 10000;
  uint64_t max_conflicts = 2000000;
};

/// Outcome of a polygraph check.
struct PolygraphResult {
  enum class Verdict { kAccepted, kViolation, kUnknown };
  Verdict verdict = Verdict::kUnknown;
  size_t cegar_rounds = 0;
  size_t sat_vars = 0;
  size_t anomalies = 0;
  double seconds = 0;
};

/// Core engine shared by PolySI / Viper / Cobra.
PolygraphResult CheckPolygraph(const History& h, const PolygraphParams& params,
                               ViolationSink* sink);

/// PolySI: SI polygraph, no pruning, full widening.
PolygraphResult CheckPolySi(const History& h, ViolationSink* sink);

/// Viper: SI BC-polygraph with pruning.
PolygraphResult CheckViper(const History& h, ViolationSink* sink);

}  // namespace chronos::baselines

#endif  // CHRONOS_BASELINES_POLYSI_H_

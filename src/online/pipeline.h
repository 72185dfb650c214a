// The online driver: feeds a collected transaction stream into AION
// under one of the paper's GC strategies (Fig. 12: no-gc / checking-gc /
// full-gc, see GcPolicy in core/online_checker.h) and samples throughput
// and memory as it goes. The crash-safe variant of the same step loop is
// DurableRunner (online/checkpoint.h).
#ifndef CHRONOS_ONLINE_PIPELINE_H_
#define CHRONOS_ONLINE_PIPELINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/online_checker.h"
#include "core/violation.h"
#include "hist/collector.h"
#include "online/metrics.h"

namespace chronos::online {

/// One sample of the run's progress.
struct RunSample {
  double wall_seconds = 0;
  uint64_t txns_done = 0;
  size_t rss_bytes = 0;
  size_t live_txns = 0;
};

/// Result of driving a stream through a checker at maximum rate.
struct RunResult {
  double wall_seconds = 0;
  uint64_t txns = 0;
  std::vector<RunSample> samples;        ///< taken every `sample_every` txns
  std::vector<double> tps_per_window;    ///< throughput series (1 s windows)

  double AvgTps() const {
    return wall_seconds > 0 ? static_cast<double>(txns) / wall_seconds : 0;
  }
};

/// A pull source of arrivals: each call returns the next one, valid until
/// the following call, or nullptr once the stream is exhausted.
using ArrivalSource = std::function<const hist::CollectedTxn*()>;

/// Feeds the arrivals into `checker` as fast as it will go (the paper's
/// throughput-limit methodology: pre-collected logs arriving faster than
/// the checker can process), then finishes it. Virtual delivery
/// timestamps drive the EXT timeout clock, so the checker sees exactly
/// the calls a delivery-time replay would make (flip-flop studies,
/// Figs. 13/14); wall time only drives the TPS series. The checker is
/// either the monolithic `Aion` or a `ShardedAion` (the shards knob: see
/// MakeChecker below), whose SPSC ingress rings make the collector ->
/// coordinator -> shards pipeline of Fig. 3 real. A sample is taken
/// every `sample_every` arrivals (0: never).
RunResult RunMaxRate(OnlineChecker* checker, const ArrivalSource& next,
                     const GcPolicy& gc, uint64_t sample_every = 10000);

/// The same loop over a collected stream held in memory.
RunResult RunMaxRate(OnlineChecker* checker,
                     const std::vector<hist::CollectedTxn>& stream,
                     const GcPolicy& gc, uint64_t sample_every = 10000);

/// The shards knob: constructs the checker for `shards` (<= 1 the
/// monolithic `Aion`, otherwise a `ShardedAion` with that many key
/// partitions). Callers that need concrete-type accessors (stats,
/// flip_stats) construct the checker themselves instead.
std::unique_ptr<OnlineChecker> MakeChecker(const CheckerOptions& options,
                                           size_t shards,
                                           ViolationSink* sink);

}  // namespace chronos::online

#endif  // CHRONOS_ONLINE_PIPELINE_H_

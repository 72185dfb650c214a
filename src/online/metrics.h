// Throughput and memory meters for the online experiments (Figs. 12, 15,
// 16, 23), plus the pipeline-health counters the sharded checker exposes
// (per shard ring: traffic, depth high-water mark, stall counts) —
// printed by `chronos_check --stats`.
#ifndef CHRONOS_ONLINE_METRICS_H_
#define CHRONOS_ONLINE_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace chronos::online {

/// Buckets event counts into fixed windows, yielding a throughput series
/// ("TPS over time" curves). Single-threaded.
class ThroughputMeter {
 public:
  explicit ThroughputMeter(uint64_t window_ms = 1000)
      : window_ms_(window_ms) {}

  /// Records `n` events at time `t_ms`.
  void Record(uint64_t t_ms, uint64_t n = 1) {
    size_t bucket = static_cast<size_t>(t_ms / window_ms_);
    if (bucket >= counts_.size()) counts_.resize(bucket + 1, 0);
    counts_[bucket] += n;
  }

  /// Per-window event counts (index i covers [i*window, (i+1)*window)).
  const std::vector<uint64_t>& counts() const { return counts_; }
  uint64_t window_ms() const { return window_ms_; }

  /// Events per second in window i.
  double Tps(size_t i) const {
    if (i >= counts_.size()) return 0;
    return static_cast<double>(counts_[i]) * 1000.0 /
           static_cast<double>(window_ms_);
  }

 private:
  uint64_t window_ms_;
  std::vector<uint64_t> counts_;
};

/// Resident-set size of this process in bytes (Linux /proc/self/statm);
/// 0 when unavailable.
size_t ReadRssBytes();

/// Health counters of one SPSC ring (online/spsc_ring.h): how many
/// items the producer has published, the deepest occupancy it observed
/// at a publication point, and how often each side fell off the spin
/// fast-path into a parked (mutex/condvar) wait. Stall counts are park
/// *events*, not parked time: a producer stall means the downstream
/// stage applied backpressure; a consumer stall means the stage ran dry
/// and idled.
struct RingHealth {
  uint64_t published = 0;
  uint64_t depth_hwm = 0;
  uint64_t producer_stalls = 0;
  uint64_t consumer_stalls = 0;
};

/// One quiescent snapshot of the sharded pipeline's plumbing
/// (ShardedAion::pipeline_health): the caller -> shard command ring and
/// payload ring of every shard.
struct PipelineHealth {
  std::vector<RingHealth> shard_rings;  ///< caller -> shard, per shard
  /// The shards' payload rings; `published` counts 16-byte records.
  std::vector<RingHealth> payload_rings;

  // Inert: always empty / zero. The sharded checker no longer has a
  // pre-stage pool or a sequencer; these stay only so existing readers
  // (e2ebench/trace_layers.cc) compile.
  std::vector<RingHealth> pre_stage_in;   ///< inert, always empty
  std::vector<RingHealth> pre_stage_out;  ///< inert, always empty
  RingHealth seq_ring;                    ///< inert, always zero
  /// Inert, always 0 (there is no sequencer stage to idle).
  double CoordinatorIdleRatio() const { return 0.0; }
};

/// Human-readable dump (one line per ring) for `chronos_check --stats`.
void PrintPipelineHealth(const PipelineHealth& h, std::FILE* out);

}  // namespace chronos::online

#endif  // CHRONOS_ONLINE_METRICS_H_

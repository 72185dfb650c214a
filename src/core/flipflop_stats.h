// Flip-flop bookkeeping for AION's tentative EXT verdicts (paper Sec.
// VI-C and Figs. 13/14/17-21): a flip-flop is a switch of T.EXT between
// satisfied and violated caused by out-of-order arrivals; rectification
// time is how long a transient wrong verdict was held.
#ifndef CHRONOS_CORE_FLIPFLOP_STATS_H_
#define CHRONOS_CORE_FLIPFLOP_STATS_H_

#include <array>
#include <cstdint>
#include <unordered_map>

#include "core/state_io.h"

namespace chronos {

/// Aggregated flip-flop statistics. Single-threaded: owned by the
/// monolithic Aion, or one per shard (merged on read) when sharded.
class FlipFlopStats {
 public:
  /// Rectification latency buckets in milliseconds, matching the paper's
  /// Fig. 13(b) x-axis: [0,1), [1,2), [2,10), [10,99), [99,1000), 1000+.
  static constexpr size_t kNumLatencyBuckets = 6;

  /// Records one verdict flip for (txn, key) rectified after `held_ms`.
  void RecordFlip(uint64_t tid, uint64_t held_ms) {
    ++flips_per_txnkey_total_;
    ++flips_per_txn_[tid];
    ++latency_hist_[LatencyBucket(held_ms)];
  }

  /// Records that a (txn, key) pair finished with `flips` total flips
  /// (called at finalization; zero-flip pairs are not recorded).
  void RecordPairDone(uint32_t flips) {
    if (flips == 0) return;
    ++pair_flip_hist_[FlipBucket(flips)];
  }

  /// Histogram over (txn,key) pairs by number of flips: {1, 2, 3, 4+}.
  std::array<uint64_t, 4> pair_flip_histogram() const {
    return pair_flip_hist_;
  }

  /// Histogram over unique transactions by number of flips: {1, 2, 3, 4+}.
  std::array<uint64_t, 4> txn_flip_histogram() const {
    std::array<uint64_t, 4> h{};
    for (const auto& [tid, flips] : flips_per_txn_) {
      (void)tid;
      if (flips > 0) ++h[FlipBucket(flips)];
    }
    return h;
  }

  /// Rectification-latency histogram (see kNumLatencyBuckets).
  std::array<uint64_t, kNumLatencyBuckets> latency_histogram() const {
    return latency_hist_;
  }

  /// Number of unique transactions that experienced at least one flip.
  uint64_t txns_with_flips() const { return flips_per_txn_.size(); }
  /// Total flips across all (txn, key) pairs.
  uint64_t total_flips() const { return flips_per_txnkey_total_; }

  /// Folds another instance in (sharded checking: one instance per key
  /// shard). Commutative and associative: the pair/latency histograms
  /// and the total are plain sums, and the per-txn flip counts are
  /// summed per tid before `txn_flip_histogram()` buckets them — a
  /// transaction's flips on keys of different shards therefore bucket
  /// exactly as they would in a single instance.
  void Merge(const FlipFlopStats& o) {
    flips_per_txnkey_total_ += o.flips_per_txnkey_total_;
    for (const auto& [tid, flips] : o.flips_per_txn_) {
      flips_per_txn_[tid] += flips;
    }
    for (size_t i = 0; i < pair_flip_hist_.size(); ++i) {
      pair_flip_hist_[i] += o.pair_flip_hist_[i];
    }
    for (size_t i = 0; i < latency_hist_.size(); ++i) {
      latency_hist_[i] += o.latency_hist_[i];
    }
  }

  /// The checkpoint layout; per-txn counts in tid order.
  template <typename IO>
  void Transfer(IO& io) {
    io.U64(flips_per_txnkey_total_);
    io.Map(flips_per_txn_, /*tid, flips*/ 16, [&](auto& f) { io.U64(f); });
    for (auto& v : pair_flip_hist_) io.U64(v);
    for (auto& v : latency_hist_) io.U64(v);
  }

  static const char* LatencyBucketName(size_t i) {
    static const char* kNames[kNumLatencyBuckets] = {"0-1",   "1-2",
                                                     "2-10",  "10-99",
                                                     "99-1000", "1000+"};
    return kNames[i];
  }

 private:
  static size_t FlipBucket(uint32_t flips) {
    return flips >= 4 ? 3 : flips - 1;
  }
  static size_t LatencyBucket(uint64_t ms) {
    if (ms < 1) return 0;
    if (ms < 2) return 1;
    if (ms < 10) return 2;
    if (ms < 99) return 3;
    if (ms < 1000) return 4;
    return 5;
  }

  uint64_t flips_per_txnkey_total_ = 0;
  std::unordered_map<uint64_t, uint32_t> flips_per_txn_;
  std::array<uint64_t, 4> pair_flip_hist_{};
  std::array<uint64_t, kNumLatencyBuckets> latency_hist_{};
};

}  // namespace chronos

#endif  // CHRONOS_CORE_FLIPFLOP_STATS_H_

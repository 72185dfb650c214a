// Fig. 13: flip-flop statistics under injected delays N(100, 10^2) —
// (a) flip counts per transaction and per (txn, key) pair;
// (b) time to rectify transient false positives/negatives.
#include "bench_util.h"
#include "core/aion.h"
#include "online/pipeline.h"

using namespace chronos;

int main() {
  uint64_t scale = bench::ScaleFactor();
  bench::Header("Fig 13", "flip-flops under delays N(100,10^2)");
  History h = bench::DefaultHistory(10000 * scale);
  hist::CollectorParams cp;
  cp.delay_mean_ms = 100;
  cp.delay_stddev_ms = 10;
  auto stream = hist::ScheduleDelivery(h, cp);

  CountingSink sink;
  Aion::Options opt;
  opt.ext_timeout_ms = 5000;  // the paper's conservative 5 s
  Aion checker(opt, &sink);
  online::RunMaxRate(&checker, stream, GcPolicy::None());
  const FlipFlopStats& fs = checker.flip_stats();

  std::printf("(a) flip-flop counts\n");
  std::printf("%10s %10s %10s\n", "flips", "txn", "(txn,key)");
  auto txn_hist = fs.txn_flip_histogram();
  auto pair_hist = fs.pair_flip_histogram();
  const char* buckets[] = {"1", "2", "3", "4+"};
  for (size_t i = 0; i < 4; ++i) {
    std::printf("%10s %10llu %10llu\n", buckets[i],
                static_cast<unsigned long long>(txn_hist[i]),
                static_cast<unsigned long long>(pair_hist[i]));
  }
  std::printf("txns with flip-flops: %llu / %zu (%.1f%%)\n",
              static_cast<unsigned long long>(fs.txns_with_flips()),
              h.txns.size(),
              100.0 * fs.txns_with_flips() / h.txns.size());

  std::printf("(b) rectification latency (virtual ms)\n");
  auto lat = fs.latency_histogram();
  uint64_t total = 0;
  for (auto c : lat) total += c;
  for (size_t i = 0; i < FlipFlopStats::kNumLatencyBuckets; ++i) {
    std::printf("%10s %10llu (%.1f%%)\n", FlipFlopStats::LatencyBucketName(i),
                static_cast<unsigned long long>(lat[i]),
                total > 0 ? 100.0 * lat[i] / total : 0.0);
  }
  return 0;
}

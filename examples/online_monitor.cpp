// Online monitoring (the paper's Fig. 3 workflow): a database runs a
// workload while a collector streams committed transactions — batched,
// delayed, out of order — into AION, which reports violations as EXT
// timeouts expire. Demonstrates flip-flop statistics and GC under a
// live stream.
#include <cstdio>

#include "core/aion.h"
#include "hist/collector.h"
#include "online/pipeline.h"
#include "workload/generator.h"

using namespace chronos;

int main() {
  // A database with a lurking bug: 0.2% of reads are served from a stale
  // snapshot (the kind of defect Jepsen hunts for).
  db::DbConfig cfg;
  cfg.faults.stale_read_prob = 0.002;
  workload::WorkloadParams params;
  params.sessions = 24;
  params.txns = 20000;
  params.ops_per_txn = 8;
  History history = workload::GenerateDefaultHistory(params, cfg);

  // Collector: batches of 500 txns, per-txn delays N(100, 15^2) ms.
  hist::CollectorParams cp;
  cp.batch_size = 500;
  cp.delay_mean_ms = 100;
  cp.delay_stddev_ms = 15;
  auto stream = hist::ScheduleDelivery(history, cp);

  CountingSink sink;
  Aion::Options opt;
  opt.ext_timeout_ms = 5000;  // the paper's conservative timeout
  Aion checker(opt, &sink);
  online::RunResult result =
      online::RunMaxRate(&checker, stream, GcPolicy::Threshold(8000, 4000));

  std::printf("online check: %llu txns in %.2fs (avg %.0f TPS)\n",
              static_cast<unsigned long long>(result.txns),
              result.wall_seconds, result.AvgTps());
  std::printf("violations: EXT=%zu NOCONFLICT=%zu INT=%zu SESSION=%zu\n",
              sink.count(ViolationType::kExt),
              sink.count(ViolationType::kNoConflict),
              sink.count(ViolationType::kInt),
              sink.count(ViolationType::kSession));
  std::printf("flip-flops: %llu across %llu txns (asynchrony-induced "
              "transient verdicts, later rectified)\n",
              static_cast<unsigned long long>(
                  checker.flip_stats().total_flips()),
              static_cast<unsigned long long>(
                  checker.flip_stats().txns_with_flips()));
  std::printf("GC passes: %llu, final live txns: %zu\n",
              static_cast<unsigned long long>(checker.stats().gc_passes),
              checker.GetFootprint().live_txns);
  std::printf("first findings:\n");
  size_t shown = 0;
  for (const Violation& v : sink.first()) {
    if (++shown > 5) break;
    std::printf("  %s\n", v.ToString().c_str());
  }
  return sink.count(ViolationType::kExt) > 0 ? 0 : 1;
}

// Fig. 16: AION under a constrained memory budget — GC triggers at the
// cap, memory oscillates between the cap and the post-GC level, and the
// whole stream still completes.
#include "bench_util.h"
#include "core/aion.h"
#include "online/pipeline.h"

using namespace chronos;

int main() {
  uint64_t scale = bench::ScaleFactor();
  bench::Header("Fig 16", "Aion under constrained memory (live-txn cap)");
  History h = bench::DefaultHistory(100000 * scale);
  hist::CollectorParams cp;
  cp.delay_mean_ms = 2;
  cp.delay_stddev_ms = 1;
  auto stream = hist::ScheduleDelivery(h, cp);

  CountingSink sink;
  Aion::Options opt;
  opt.ext_timeout_ms = 50;
  Aion checker(opt, &sink);
  online::RunResult r = online::RunMaxRate(
      &checker, stream, GcPolicy::HardCap(10000), 5000);
  std::printf("completed %llu txns in %.2fs (avg %.0f TPS), violations=%zu\n",
              static_cast<unsigned long long>(r.txns), r.wall_seconds,
              r.AvgTps(), static_cast<size_t>(sink.total()));
  std::printf("%10s %12s %12s %12s\n", "t(s)", "txns", "live txns", "RSS MB");
  for (const auto& s : r.samples) {
    std::printf("%10.2f %12llu %12zu %12.1f\n", s.wall_seconds,
                static_cast<unsigned long long>(s.txns_done), s.live_txns,
                s.rss_bytes / 1048576.0);
  }
  std::printf("GC passes: %llu\n",
              static_cast<unsigned long long>(checker.stats().gc_passes));
  return 0;
}

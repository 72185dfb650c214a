// Fig. 12 (+ Fig. 23): online checking throughput over time.
//   (a) SER checking, default workload: Aion-SER under three GC
//       strategies vs Cobra under (fence, round) configurations;
//   (b) SI checking, default workload: Aion under three GC strategies;
//   (c, d) SER on RUBiS and Twitter; Fig. 23: SI on RUBiS and Twitter.
#include "baselines/cobra.h"
#include "bench_util.h"
#include "core/aion.h"
#include "online/pipeline.h"
#include "online/sharded_aion.h"
#include "workload/apps.h"

using namespace chronos;

namespace {

std::vector<hist::CollectedTxn> Stream(const History& h) {
  hist::CollectorParams cp;
  cp.delay_mean_ms = 2;
  cp.delay_stddev_ms = 1;
  return hist::ScheduleDelivery(h, cp);
}

void RunAionRow(const char* label, IsolationLevel mode,
                const std::vector<hist::CollectedTxn>& stream,
                GcPolicy gc, size_t shards = 1) {
  CountingSink sink;
  Aion::Options opt;
  opt.mode = mode;
  opt.ext_timeout_ms = 50;
  std::unique_ptr<OnlineChecker> checker =
      online::MakeChecker(opt, shards, &sink);
  online::RunResult r = online::RunMaxRate(checker.get(), stream, gc);
  std::printf("%24s  avg=%8.0f TPS  violations=%-6zu windows:", label,
              r.AvgTps(), static_cast<size_t>(sink.total()));
  for (size_t i = 0; i < r.tps_per_window.size() && i < 8; ++i) {
    std::printf(" %.0f", r.tps_per_window[i]);
  }
  std::printf("\n");
}

void RunCobraRow(const char* label, uint32_t fence, uint32_t round,
                 const std::vector<hist::CollectedTxn>& stream) {
  CountingSink sink;
  baselines::CobraParams cp;
  cp.fence_every = fence;
  cp.round_size = round;
  baselines::CobraRun run = baselines::RunCobraSer(stream, cp, &sink);
  std::printf("%24s  avg=%8.0f TPS  stopped=%-3s round TPS:", label,
              run.wall_seconds > 0 ? run.processed / run.wall_seconds : 0,
              run.violation_found ? "yes" : "no");
  // Per-round throughput: the paper's declining-over-time Cobra curves.
  double prev_t = 0;
  uint64_t prev_n = 0;
  for (const auto& [t, n] : run.round_progress) {
    if (t > prev_t) std::printf(" %.0f", (n - prev_n) / (t - prev_t));
    prev_t = t;
    prev_n = n;
  }
  std::printf("\n");
}

History DefaultFor(bool ser, uint64_t txns) {
  workload::WorkloadParams p;
  p.sessions = 24;
  p.ops_per_txn = 8;
  p.txns = txns;
  // Wider, uniform key space: our interleaved generator holds transactions
  // open far longer than a real client, so the paper's zipf default would
  // drown SER generation in OCC aborts. Checker throughput, the subject
  // of this figure, is unaffected.
  p.keys = 10000;
  p.dist = workload::WorkloadParams::KeyDist::kUniform;
  if (ser) p.read_ratio = 0.9;  // paper: prevents Cobra blow-up
  db::DbConfig cfg;
  if (ser) cfg.isolation = IsolationLevel::kSer;
  return workload::GenerateDefaultHistory(p, cfg);
}

}  // namespace

int main() {
  uint64_t scale = bench::ScaleFactor();
  uint64_t txns = 50000 * scale;  // paper: 500K

  bench::Header("Fig 12a", "SER checking throughput (default workload)");
  {
    auto stream = Stream(DefaultFor(true, txns));
    RunAionRow("Aion-SER-no-gc", IsolationLevel::kSer, stream,
               GcPolicy::None());
    RunAionRow("Aion-SER-checking-gc", IsolationLevel::kSer, stream,
               GcPolicy::Threshold(20000, 10000));
    RunAionRow("Aion-SER-full-gc", IsolationLevel::kSer, stream,
               GcPolicy::HardCap(5000));
    // Cobra's closure is O(N^2) bits of memory (GPU-resident in the
    // original): cap its slice so the CPU model stays within RAM.
    auto cobra_stream = std::vector<hist::CollectedTxn>(
        stream.begin(),
        stream.begin() +
            std::min<size_t>(stream.size(),
                             std::min<uint64_t>(20000 * scale, 24000)));
    RunCobraRow("Cobra-F20-R2k4", 20, 2400, cobra_stream);
    RunCobraRow("Cobra-F20-R4k8", 20, 4800, cobra_stream);
    RunCobraRow("Cobra-F1-R2k4", 1, 2400, cobra_stream);
    RunCobraRow("Cobra-F1-R4k8", 1, 4800, cobra_stream);
  }

  bench::Header("Fig 12b", "SI checking throughput (default workload)");
  {
    auto stream = Stream(DefaultFor(false, txns));
    RunAionRow("Aion-no-gc", IsolationLevel::kSi, stream,
               GcPolicy::None());
    RunAionRow("Aion-checking-gc", IsolationLevel::kSi, stream,
               GcPolicy::Threshold(20000, 10000));
    RunAionRow("Aion-full-gc", IsolationLevel::kSi, stream,
               GcPolicy::HardCap(5000));
    // Key-partitioned checking (collector -> coordinator -> shards).
    RunAionRow("Aion-sharded2-no-gc", IsolationLevel::kSi, stream,
               GcPolicy::None(), /*shards=*/2);
    RunAionRow("Aion-sharded4-no-gc", IsolationLevel::kSi, stream,
               GcPolicy::None(), /*shards=*/4);
    RunAionRow("Aion-sharded4-chk-gc", IsolationLevel::kSi, stream,
               GcPolicy::Threshold(20000, 10000), /*shards=*/4);
  }

  uint64_t app_txns = 20000 * scale;
  bench::Header("Fig 12c/23a", "RUBiS: SER and SI");
  {
    workload::RubisParams rp;
    rp.txns = app_txns;
    db::DbConfig ser_cfg;
    ser_cfg.isolation = IsolationLevel::kSer;
    auto ser_stream = Stream(workload::GenerateRubisHistory(rp, ser_cfg));
    RunAionRow("Aion-SER-rubis", IsolationLevel::kSer, ser_stream,
               GcPolicy::Threshold(20000, 10000));
    auto si_stream = Stream(workload::GenerateRubisHistory(rp));
    RunAionRow("Aion-SI-rubis", IsolationLevel::kSi, si_stream,
               GcPolicy::Threshold(20000, 10000));
  }

  bench::Header("Fig 12d/23b", "Twitter: SER and SI (more keys -> slower)");
  {
    workload::TwitterParams tp;
    tp.txns = app_txns;
    db::DbConfig ser_cfg;
    ser_cfg.isolation = IsolationLevel::kSer;
    auto ser_stream = Stream(workload::GenerateTwitterHistory(tp, ser_cfg));
    RunAionRow("Aion-SER-twitter", IsolationLevel::kSer, ser_stream,
               GcPolicy::Threshold(20000, 10000));
    auto si_stream = Stream(workload::GenerateTwitterHistory(tp));
    RunAionRow("Aion-SI-twitter", IsolationLevel::kSi, si_stream,
               GcPolicy::Threshold(20000, 10000));
  }
  return 0;
}

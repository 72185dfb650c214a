// Fig. 25 (+ Sec. VI-B): online SER checking of a non-conforming history
// (generated under SI, so write skew and commit-order read anomalies are
// present). AION-SER reports every violation and keeps going at full
// speed; Cobra terminates at the first one. The violation count is
// cross-validated against CHRONOS-SER.
#include <utility>

#include "baselines/cobra.h"
#include "bench_util.h"
#include "core/aion.h"
#include "core/chronos.h"
#include "online/pipeline.h"

using namespace chronos;

int main() {
  uint64_t scale = bench::ScaleFactor();
  bench::Header("Fig 25", "Aion-SER on a non-conforming (SI-level) history");
  // SI database, low read ratio: plenty of SER anomalies.
  workload::WorkloadParams p;
  p.sessions = 24;
  p.ops_per_txn = 8;
  p.txns = 50000 * scale;
  p.read_ratio = 0.5;
  History h = workload::GenerateDefaultHistory(p);

  CountingSink ref;
  Chronos::CheckHistory(h, &ref, IsolationLevel::kSer);
  std::printf("Chronos-SER ground truth: %zu violations\n",
              static_cast<size_t>(ref.total()));

  hist::CollectorParams cp;
  cp.delay_mean_ms = 2;
  cp.delay_stddev_ms = 1;
  auto stream = hist::ScheduleDelivery(h, cp);

  const std::pair<const char*, GcPolicy> rows[] = {
      {"Aion-SER-no-gc", GcPolicy::None()},
      {"Aion-SER-checking-gc", GcPolicy::Threshold(20000, 10000)},
      {"Aion-SER-full-gc", GcPolicy::HardCap(5000)}};
  for (const auto& [name, gc] : rows) {
    CountingSink sink;
    Aion::Options opt;
    opt.mode = IsolationLevel::kSer;
    opt.ext_timeout_ms = 50;
    Aion checker(opt, &sink);
    online::RunResult r = online::RunMaxRate(&checker, stream, gc);
    std::printf("%22s  avg=%8.0f TPS  violations=%zu (all reported)\n", name,
                r.AvgTps(), static_cast<size_t>(sink.total()));
  }

  auto cobra_stream = std::vector<hist::CollectedTxn>(
      stream.begin(),
      stream.begin() +
          std::min<size_t>(stream.size(),
                           std::min<uint64_t>(10000 * scale, 24000)));
  CountingSink cobra_sink;
  baselines::CobraParams cparams;
  baselines::CobraRun run =
      baselines::RunCobraSer(cobra_stream, cparams, &cobra_sink);
  std::printf("%22s  processed %llu/%zu before terminating at first "
              "violation\n",
              "Cobra", static_cast<unsigned long long>(run.processed),
              cobra_stream.size());
  return 0;
}

// Twitter-clone end-to-end demo: run the paper's Twitter workload on the
// SER-mode database, check serializability both offline (CHRONOS-SER)
// and online (AION-SER), and show the key-space growth that makes
// Twitter the hard case for online checking (paper Sec. VI-B).
#include <cstdio>
#include <unordered_set>

#include "core/aion.h"
#include "core/chronos.h"
#include "hist/collector.h"
#include "online/pipeline.h"
#include "workload/apps.h"

using namespace chronos;

int main() {
  db::DbConfig cfg;
  cfg.isolation = IsolationLevel::kSer;
  workload::TwitterParams params;
  params.users = 500;
  params.txns = 15000;
  History h = workload::GenerateTwitterHistory(params, cfg);

  std::unordered_set<Key> keys;
  for (const auto& t : h.txns) {
    for (const auto& op : t.ops) keys.insert(op.key);
  }
  std::printf("twitter: %zu txns over %zu distinct keys\n", h.txns.size(),
              keys.size());

  CountingSink offline;
  CheckStats stats = Chronos::CheckHistory(h, &offline, IsolationLevel::kSer);
  std::printf("offline CHRONOS-SER: %.3fs, %zu violations\n",
              stats.TotalSeconds(), stats.violations);

  hist::CollectorParams cp;
  cp.delay_mean_ms = 50;
  cp.delay_stddev_ms = 10;
  auto stream = hist::ScheduleDelivery(h, cp);
  CountingSink online_sink;
  Aion::Options opt;
  opt.mode = IsolationLevel::kSer;
  opt.ext_timeout_ms = 5000;
  Aion checker(opt, &online_sink);
  online::RunResult r = online::RunMaxRate(
      &checker, stream, GcPolicy::Threshold(8000, 4000));
  std::printf("online AION-SER: avg %.0f TPS, %zu violations, %llu "
              "flip-flops\n",
              r.AvgTps(), static_cast<size_t>(online_sink.total()),
              static_cast<unsigned long long>(
                  checker.flip_stats().total_flips()));
  return offline.total() == 0 && online_sink.total() == 0 ? 0 : 1;
}

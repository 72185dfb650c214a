// Fig. 5: (a) Chronos vs ElleKV vs Emme-SI on large key-value histories;
// (b) Chronos vs ElleList on list histories. The paper reports Chronos
// ~10.5x faster than ElleKV and ~7.4x faster than ElleList.
#include "baselines/elle.h"
#include "baselines/emme.h"
#include "bench_util.h"
#include "core/chronos.h"

using namespace chronos;

int main() {
  uint64_t scale = bench::ScaleFactor();

  bench::Header("Fig 5a", "runtime on key-value histories");
  std::printf("%8s %10s %10s %10s %10s\n", "#txns", "ElleKV", "Emme-SI",
              "Chronos", "speedup(Elle/Chronos)");
  for (uint64_t n : {2000, 5000, 10000, 20000}) {
    uint64_t txns = n * scale;
    History h = bench::DefaultHistory(txns);
    CountingSink s1, s2, s3;
    baselines::BaselineResult elle =
        baselines::CheckElleKv(h, IsolationLevel::kSi, &s1);
    baselines::BaselineResult emme = baselines::CheckEmmeSi(h, &s2);
    CheckStats chronos = Chronos::CheckHistory(h, &s3);
    double ct = chronos.sort_seconds + chronos.check_seconds;
    std::printf("%8llu %9.3fs %9.3fs %9.3fs %9.1fx\n",
                static_cast<unsigned long long>(txns), elle.seconds,
                emme.seconds, ct, ct > 0 ? elle.seconds / ct : 0.0);
  }

  bench::Header("Fig 5b", "runtime on list histories");
  std::printf("%8s %10s %10s\n", "#txns", "ElleList", "Chronos");
  for (uint64_t n : {1000, 2000, 5000, 10000}) {
    uint64_t txns = n * scale;
    workload::WorkloadParams p;
    p.txns = txns;
    p.list_mode = true;
    p.keys = 1000;
    History h = workload::GenerateDefaultHistory(p);
    CountingSink s1, s2;
    baselines::BaselineResult elle =
        baselines::CheckElleList(h, IsolationLevel::kSi, &s1);
    CheckStats chronos = Chronos::CheckHistory(h, &s2);
    std::printf("%8llu %9.3fs %9.3fs\n",
                static_cast<unsigned long long>(txns), elle.seconds,
                chronos.sort_seconds + chronos.check_seconds);
  }
  return 0;
}

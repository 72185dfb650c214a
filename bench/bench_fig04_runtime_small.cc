// Fig. 4: runtime comparison of all five SI checkers on key-value
// histories with up to a few thousand transactions. PolySI and Viper grow
// super-linearly; Chronos / ElleKV / Emme-SI stay flat at this scale.
#include "baselines/elle.h"
#include "baselines/emme.h"
#include "baselines/polysi.h"
#include "bench_util.h"
#include "core/chronos.h"

using namespace chronos;

int main() {
  bench::Header("Fig 4", "checker runtime vs #txns (key-value histories)");
  std::printf("%8s %10s %10s %10s %10s %10s\n", "#txns", "PolySI", "Viper",
              "ElleKV", "Emme-SI", "Chronos");
  uint64_t scale = bench::ScaleFactor();
  for (uint64_t n : {200, 500, 1000, 2000, 3000}) {
    uint64_t txns = n * scale;
    History h = bench::DefaultHistory(txns);

    CountingSink s1;
    Stopwatch sw;
    baselines::CheckPolySi(h, &s1);
    double polysi = sw.Seconds();

    CountingSink s2;
    sw.Reset();
    baselines::CheckViper(h, &s2);
    double viper = sw.Seconds();

    CountingSink s3;
    baselines::BaselineResult elle =
        baselines::CheckElleKv(h, IsolationLevel::kSi, &s3);

    CountingSink s4;
    baselines::BaselineResult emme = baselines::CheckEmmeSi(h, &s4);

    CountingSink s5;
    CheckStats chronos = Chronos::CheckHistory(h, &s5);

    std::printf("%8llu %9.3fs %9.3fs %9.3fs %9.3fs %9.3fs\n",
                static_cast<unsigned long long>(txns), polysi, viper,
                elle.seconds, emme.seconds,
                chronos.sort_seconds + chronos.check_seconds);
  }
  return 0;
}

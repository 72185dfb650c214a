// Fig. 7: maximum memory usage of the checkers under varying #txns and
// key distribution. Peak RSS delta is sampled during each run (allocator
// reuse across runs makes the absolute numbers conservative, so the
// internal structure sizes are printed alongside).
#include "baselines/elle.h"
#include "baselines/emme.h"
#include "bench_util.h"
#include "core/chronos.h"

using namespace chronos;

namespace {

void Compare(const History& h, const char* label) {
  auto [elle_s, elle_rss] = bench::TimedWithPeakRss([&] {
    CountingSink s;
    baselines::CheckElleKv(h, IsolationLevel::kSi, &s);
  });
  auto [emme_s, emme_rss] = bench::TimedWithPeakRss([&] {
    CountingSink s;
    baselines::CheckEmmeSi(h, &s);
  });
  auto [chronos_s, chronos_rss] = bench::TimedWithPeakRss([&] {
    CountingSink s;
    Chronos checker(ChronosOptions{.gc_every_n_txns = 2000}, &s);
    History copy = h;
    checker.Check(std::move(copy));
  });
  (void)elle_s;
  (void)emme_s;
  (void)chronos_s;
  CountingSink s;
  baselines::BaselineResult emme_edges = baselines::CheckEmmeSi(h, &s);
  std::printf("%12s %10.1fMB %10.1fMB %10.1fMB   (Emme graph edges: %zu)\n",
              label, elle_rss / 1048576.0, emme_rss / 1048576.0,
              chronos_rss / 1048576.0, emme_edges.graph_edges);
}

}  // namespace

int main() {
  uint64_t scale = bench::ScaleFactor();
  bench::Header("Fig 7", "peak memory delta: ElleKV vs Emme-SI vs Chronos");
  std::printf("%12s %12s %12s %12s\n", "config", "ElleKV", "Emme-SI",
              "Chronos");
  std::printf("-- (a) #txns --\n");
  for (uint64_t n : {10000, 20000, 50000}) {
    Compare(bench::DefaultHistory(n * scale),
            std::to_string(n * scale).c_str());
  }
  std::printf("-- (b) key distribution (20k txns) --\n");
  Compare(bench::DefaultHistory(20000 * scale, 15, 1000, 50,
                                workload::WorkloadParams::KeyDist::kUniform),
          "uniform");
  Compare(bench::DefaultHistory(20000 * scale, 15, 1000, 50,
                                workload::WorkloadParams::KeyDist::kZipf),
          "zipfian");
  Compare(bench::DefaultHistory(20000 * scale, 15, 1000, 50,
                                workload::WorkloadParams::KeyDist::kHotspot),
          "hotspot");
  return 0;
}

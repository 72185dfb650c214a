// Fig. 14 (+ appendix Figs. 17-21): flip-flop counts as functions of the
// delay mean mu and standard deviation sigma. The mean barely matters
// (all transactions shift together); the deviation drives reordering and
// hence flip-flops.
#include "bench_util.h"
#include "core/aion.h"
#include "online/pipeline.h"

using namespace chronos;

namespace {

void RunOne(const History& h, double mu, double sigma) {
  hist::CollectorParams cp;
  cp.delay_mean_ms = mu;
  cp.delay_stddev_ms = sigma;
  cp.seed = 5;
  auto stream = hist::ScheduleDelivery(h, cp);
  CountingSink sink;
  Aion::Options opt;
  opt.ext_timeout_ms = 5000;
  Aion checker(opt, &sink);
  online::RunMaxRate(&checker, stream, GcPolicy::None());
  const FlipFlopStats& fs = checker.flip_stats();
  auto lat = fs.latency_histogram();
  uint64_t fast = lat[0] + lat[1] + lat[2] + lat[3];
  uint64_t total = 0;
  for (auto c : lat) total += c;
  std::printf("  N(%3.0f,%2.0f^2): (txn,key) flips=%-6llu txns=%-6llu "
              "rectified<99ms=%.1f%%\n",
              mu, sigma, static_cast<unsigned long long>(fs.total_flips()),
              static_cast<unsigned long long>(fs.txns_with_flips()),
              total > 0 ? 100.0 * fast / total : 100.0);
}

}  // namespace

int main() {
  uint64_t scale = bench::ScaleFactor();
  History h = bench::DefaultHistory(10000 * scale);

  bench::Header("Fig 14a / 17 / 19 / 20", "flip-flops vs delay mean mu");
  for (double mu : {50, 100, 200, 300, 400, 500}) RunOne(h, mu, 10);

  bench::Header("Fig 14b / 18 / 19 / 21", "flip-flops vs delay stddev sigma");
  for (double sigma : {1, 10, 20, 30, 40, 50}) RunOne(h, 100, sigma);
  return 0;
}

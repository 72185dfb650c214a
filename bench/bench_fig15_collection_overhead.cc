// Fig. 15: database throughput with and without history collection. The
// paper reports a ~5% collection overhead.
#include "bench_util.h"
#include "db/database.h"

using namespace chronos;

int main() {
  uint64_t scale = bench::ScaleFactor();
  bench::Header("Fig 15", "DB throughput with/without history collection");
  std::printf("%10s %14s %14s %10s\n", "#ops/txn", "w/o collecting",
              "w collecting", "overhead");
  for (uint32_t ops : {5, 15, 30, 50, 100}) {
    workload::WorkloadParams p;
    p.sessions = 24;
    p.txns = 20000 * scale / ops;  // keep per-row work comparable
    p.ops_per_txn = ops;
    p.keys = 1000;

    db::DbConfig without;
    without.record_history = false;
    db::Database db1(without);
    double tps_without = workload::RunConcurrentWorkload(&db1, p, 8);

    db::DbConfig with;
    db::Database db2(with);
    double tps_with = workload::RunConcurrentWorkload(&db2, p, 8);

    std::printf("%10u %11.0f TPS %11.0f TPS %9.1f%%\n", ops, tps_without,
                tps_with,
                tps_without > 0
                    ? 100.0 * (tps_without - tps_with) / tps_without
                    : 0.0);
  }
  return 0;
}

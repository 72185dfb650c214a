// Sec. V-D + Fig. 11: violation-detection completeness. Timestamp faults
// injected into otherwise-plausible histories are caught by the
// timestamp-based checkers but accepted by black-box ones.
#include "baselines/elle.h"
#include "baselines/polysi.h"
#include "bench_util.h"
#include "core/chronos.h"
#include "db/database.h"

using namespace chronos;

namespace {

const char* Verdict(bool detected) { return detected ? "DETECTED" : "accepted"; }

void Compare(const char* label, const History& h) {
  CountingSink cs, ps, es;
  Chronos::CheckHistory(h, &cs);
  baselines::PolygraphResult poly = baselines::CheckPolySi(h, &ps);
  baselines::BaselineResult elle =
      baselines::CheckElleKv(h, IsolationLevel::kSi, &es);
  bool poly_detected =
      poly.verdict == baselines::PolygraphResult::Verdict::kViolation ||
      poly.anomalies > 0;
  std::printf("%22s  chronos=%-8s  polysi=%-8s  ellekv=%-8s  (chronos: %zu)\n",
              label, Verdict(cs.total() > 0), Verdict(poly_detected),
              Verdict(!elle.Accepted()), cs.total());
}

History WithFaults(db::FaultConfig f) {
  workload::WorkloadParams p;
  p.sessions = 10;
  p.txns = 400;
  p.ops_per_txn = 6;
  p.keys = 40;
  db::DbConfig cfg;
  cfg.faults = f;
  return workload::GenerateDefaultHistory(p, cfg);
}

}  // namespace

int main() {
  bench::Header("Fig 11 / Sec V-D", "timestamp-based vs black-box completeness");

  // The literal Fig. 11 history.
  History fig11;
  {
    Transaction t1, t2, t3;
    t1.tid = 1; t1.sid = 0; t1.sno = 0; t1.start_ts = 1; t1.commit_ts = 2;
    t1.ops.push_back({OpType::kWrite, 1, 1, 0});
    t2.tid = 2; t2.sid = 1; t2.sno = 0; t2.start_ts = 3; t2.commit_ts = 4;
    t2.ops.push_back({OpType::kWrite, 1, 2, 0});
    t3.tid = 3; t3.sid = 2; t3.sno = 0; t3.start_ts = 5; t3.commit_ts = 6;
    t3.ops.push_back({OpType::kRead, 1, 1, 0});
    fig11.txns = {t1, t2, t3};
    fig11.num_sessions = 3;
  }
  Compare("Fig 11 stale read", fig11);

  db::FaultConfig early;
  early.early_commit_prob = 0.05;
  Compare("early-commit-ts fault", WithFaults(early));

  db::FaultConfig late;
  late.late_start_prob = 0.05;
  Compare("late-start-ts fault", WithFaults(late));

  db::FaultConfig swap;
  swap.ts_swap_prob = 0.05;
  Compare("ts-swap (Eq.1) fault", WithFaults(swap));

  db::FaultConfig corrupt;
  corrupt.value_corruption_prob = 0.05;
  Compare("value corruption", WithFaults(corrupt));

  std::printf("\n(timestamp faults are invisible to black-box checkers: the\n"
              " paper's completeness argument for white-box checking)\n");
  return 0;
}

// Property-based sweeps (TEST_P): the end-to-end invariants that tie the
// whole system together.
//
//  P1  Histories produced by the Algorithm-1 database are accepted by
//      every SI checker (Chronos, Aion under any session-preserving
//      arrival order, Emme-SI, ElleKV).
//  P2  Single-fault corruptions are detected with the right class.
//  P3  Aion's final verdict counts equal Chronos's for every arrival
//      permutation, with and without GC/spill.
//  P4  SER-mode histories pass the SER checkers; SI write-skew histories
//      fail them.
#include <filesystem>
#include <ostream>

#include <gtest/gtest.h>

#include "../testutil.h"
#include "baselines/elle.h"
#include "baselines/emme.h"
#include "core/aion.h"
#include "core/chronos.h"
#include "hist/collector.h"
#include "workload/generator.h"

namespace chronos {
namespace {

using testing::RunAionToEnd;
using testing::SessionPreservingShuffle;

struct SweepCase {
  uint64_t seed;
  uint32_t sessions;
  uint32_t ops_per_txn;
  workload::WorkloadParams::KeyDist dist;
};

std::string CaseName(const ::testing::TestParamInfo<SweepCase>& info) {
  const char* dist_names[] = {"uniform", "zipf", "hotspot"};
  return "seed" + std::to_string(info.param.seed) + "_s" +
         std::to_string(info.param.sessions) + "_o" +
         std::to_string(info.param.ops_per_txn) + "_" +
         dist_names[static_cast<int>(info.param.dist)];
}

class ValidHistorySweep : public ::testing::TestWithParam<SweepCase> {
 protected:
  History Generate() {
    workload::WorkloadParams p;
    p.sessions = GetParam().sessions;
    p.txns = 600;
    p.ops_per_txn = GetParam().ops_per_txn;
    p.keys = 80;
    p.dist = GetParam().dist;
    p.seed = GetParam().seed;
    return workload::GenerateDefaultHistory(p);
  }
};

TEST_P(ValidHistorySweep, AllSiCheckersAccept) {
  History h = Generate();
  CountingSink chronos_sink;
  Chronos::CheckHistory(h, &chronos_sink);
  EXPECT_EQ(chronos_sink.total(), 0u)
      << (chronos_sink.first().empty() ? ""
                                       : chronos_sink.first()[0].ToString());

  CountingSink aion_sink;
  RunAionToEnd(SessionPreservingShuffle(h, GetParam().seed * 31 + 7),
               IsolationLevel::kSi, &aion_sink);
  EXPECT_EQ(aion_sink.total(), 0u);

  CountingSink emme_sink;
  baselines::BaselineResult emme = baselines::CheckEmmeSi(h, &emme_sink);
  EXPECT_EQ(emme.anomalies, 0u);
  EXPECT_FALSE(emme.cycle_found);

  CountingSink elle_sink;
  EXPECT_TRUE(
      baselines::CheckElleKv(h, IsolationLevel::kSi, &elle_sink)
          .Accepted());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ValidHistorySweep,
    ::testing::Values(
        SweepCase{1, 10, 8, workload::WorkloadParams::KeyDist::kZipf},
        SweepCase{2, 10, 8, workload::WorkloadParams::KeyDist::kUniform},
        SweepCase{3, 10, 8, workload::WorkloadParams::KeyDist::kHotspot},
        SweepCase{4, 2, 15, workload::WorkloadParams::KeyDist::kZipf},
        SweepCase{5, 30, 4, workload::WorkloadParams::KeyDist::kZipf},
        SweepCase{6, 50, 15, workload::WorkloadParams::KeyDist::kUniform},
        SweepCase{7, 20, 30, workload::WorkloadParams::KeyDist::kZipf},
        SweepCase{8, 5, 50, workload::WorkloadParams::KeyDist::kHotspot}),
    CaseName);

// P2: each fault class is detected with the expected violation type.
struct FaultCase {
  const char* name;
  db::FaultConfig faults;
  ViolationType expected;
};

// gtest's default printer dumps the raw bytes, `name` pointer included, so
// the listed test name (and the ctest name derived from it) would change
// with the load address on every run.
void PrintTo(const FaultCase& c, std::ostream* os) { *os << c.name; }

class FaultSweep : public ::testing::TestWithParam<FaultCase> {};

TEST_P(FaultSweep, ChronosAndAionDetect) {
  workload::WorkloadParams p;
  p.sessions = 12;
  p.txns = 800;
  p.ops_per_txn = 8;
  p.keys = 40;
  p.seed = 23;
  db::DbConfig cfg;
  cfg.faults = GetParam().faults;
  History h = workload::GenerateDefaultHistory(p, cfg);

  CountingSink chronos_sink;
  Chronos::CheckHistory(h, &chronos_sink);
  EXPECT_GT(chronos_sink.count(GetParam().expected), 0u) << GetParam().name;

  CountingSink aion_sink;
  RunAionToEnd(SessionPreservingShuffle(h, 99), IsolationLevel::kSi,
               &aion_sink);
  EXPECT_GT(aion_sink.count(GetParam().expected), 0u) << GetParam().name;
}

db::FaultConfig MakeFaults(double db::FaultConfig::* field, double p) {
  db::FaultConfig f;
  f.*field = p;
  return f;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FaultSweep,
    ::testing::Values(
        FaultCase{"lost_update",
                  MakeFaults(&db::FaultConfig::lost_update_prob, 0.2),
                  ViolationType::kNoConflict},
        FaultCase{"stale_read",
                  MakeFaults(&db::FaultConfig::stale_read_prob, 0.1),
                  ViolationType::kExt},
        FaultCase{"value_corruption",
                  MakeFaults(&db::FaultConfig::value_corruption_prob, 0.05),
                  ViolationType::kExt},
        FaultCase{"ts_swap", MakeFaults(&db::FaultConfig::ts_swap_prob, 0.05),
                  ViolationType::kTsOrder},
        FaultCase{"session_reorder",
                  MakeFaults(&db::FaultConfig::session_reorder_prob, 0.05),
                  ViolationType::kSession}),
    [](const ::testing::TestParamInfo<FaultCase>& param_info) {
      return std::string(param_info.param.name);
    });

// P3: Aion == Chronos on corrupted histories for every arrival order.
class PermutationEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PermutationEquivalence, AionMatchesChronosCounts) {
  workload::WorkloadParams p;
  p.sessions = 10;
  p.txns = 500;
  p.ops_per_txn = 6;
  p.keys = 30;
  p.seed = GetParam();
  db::DbConfig cfg;
  cfg.faults.value_corruption_prob = 0.03;
  cfg.faults.lost_update_prob = 0.05;
  cfg.fault_seed = GetParam() * 13 + 1;
  History h = workload::GenerateDefaultHistory(p, cfg);

  CountingSink ref;
  Chronos::CheckHistory(h, &ref);

  for (uint64_t shuffle_seed : {1ull, 2ull, 3ull}) {
    CountingSink sink;
    RunAionToEnd(SessionPreservingShuffle(h, GetParam() * 100 + shuffle_seed),
                 IsolationLevel::kSi, &sink);
    EXPECT_EQ(sink.count(ViolationType::kExt), ref.count(ViolationType::kExt))
        << "shuffle " << shuffle_seed;
    EXPECT_EQ(sink.count(ViolationType::kInt), ref.count(ViolationType::kInt));
    EXPECT_EQ(sink.count(ViolationType::kNoConflict),
              ref.count(ViolationType::kNoConflict));
    EXPECT_EQ(sink.count(ViolationType::kSession),
              ref.count(ViolationType::kSession));
  }

  // And with aggressive GC + spill, delivered in commit order.
  std::string dir = chronos::testing::UniqueTempDir(
      "prop_gc_" + std::to_string(GetParam()));
  hist::CollectorParams cp;
  auto stream = hist::ScheduleDelivery(h, cp);
  std::vector<Transaction> ordered;
  ordered.reserve(stream.size());
  for (auto& ct : stream) ordered.push_back(ct.txn);
  CountingSink gc_sink;
  RunAionToEnd(ordered, IsolationLevel::kSi, &gc_sink, dir, /*gc_every=*/50,
               /*gc_target=*/20, /*ext_timeout=*/1);
  EXPECT_EQ(gc_sink.count(ViolationType::kExt),
            ref.count(ViolationType::kExt));
  EXPECT_EQ(gc_sink.count(ViolationType::kNoConflict),
            ref.count(ViolationType::kNoConflict));
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PermutationEquivalence,
                         ::testing::Range<uint64_t>(1, 9));

// P4: SER-mode histories pass SER checkers; SI histories with write skew
// fail them but pass SI checkers.
class SerSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerSweep, SerHistoriesPassSerCheckers) {
  workload::WorkloadParams p;
  p.sessions = 8;
  p.txns = 500;
  p.ops_per_txn = 6;
  p.keys = 50;
  p.read_ratio = 0.7;
  p.seed = GetParam();
  db::DbConfig cfg;
  cfg.isolation = IsolationLevel::kSer;
  History h = workload::GenerateDefaultHistory(p, cfg);

  CountingSink ser_sink;
  Chronos::CheckHistory(h, &ser_sink, IsolationLevel::kSer);
  EXPECT_EQ(ser_sink.total(), 0u)
      << (ser_sink.first().empty() ? "" : ser_sink.first()[0].ToString());

  CountingSink aion_sink;
  RunAionToEnd(SessionPreservingShuffle(h, GetParam() + 77),
               IsolationLevel::kSer, &aion_sink);
  EXPECT_EQ(aion_sink.total(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerSweep, ::testing::Range<uint64_t>(1, 6));

}  // namespace
}  // namespace chronos

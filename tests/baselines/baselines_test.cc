// Baseline checkers: SAT solver, dependency-graph criteria, Elle, Emme,
// PolySI/Viper, Cobra — acceptance of valid histories, detection of
// planted anomalies, and the Fig. 11 completeness gap between black-box
// and timestamp-based checking.
#include <gtest/gtest.h>

#include "../testutil.h"
#include "baselines/cobra.h"
#include "baselines/depgraph.h"
#include "baselines/elle.h"
#include "baselines/emme.h"
#include "baselines/polysi.h"
#include "baselines/sat/solver.h"
#include "core/chronos.h"
#include "hist/collector.h"
#include "workload/generator.h"

namespace chronos::baselines {
namespace {

using chronos::testing::HistoryBuilder;

TEST(SatSolverTest, SolvesTrivialSat) {
  sat::Solver s;
  int a = s.NewVar(), b = s.NewVar();
  s.AddClause({a, b});
  s.AddClause({-a, b});
  ASSERT_EQ(s.Solve(), sat::Solver::Result::kSat);
  EXPECT_TRUE(s.Value(b));
}

TEST(SatSolverTest, DetectsUnsat) {
  sat::Solver s;
  int a = s.NewVar(), b = s.NewVar();
  s.AddClause({a, b});
  s.AddClause({a, -b});
  s.AddClause({-a, b});
  s.AddClause({-a, -b});
  EXPECT_EQ(s.Solve(), sat::Solver::Result::kUnsat);
}

TEST(SatSolverTest, UnitPropagationChains) {
  sat::Solver s;
  std::vector<int> vars;
  for (int i = 0; i < 50; ++i) vars.push_back(s.NewVar());
  s.AddClause({vars[0]});
  for (int i = 0; i + 1 < 50; ++i) s.AddClause({-vars[i], vars[i + 1]});
  ASSERT_EQ(s.Solve(), sat::Solver::Result::kSat);
  for (int v : vars) EXPECT_TRUE(s.Value(v));
}

TEST(SatSolverTest, IncrementalClausesAfterSolve) {
  sat::Solver s;
  int a = s.NewVar();
  ASSERT_EQ(s.Solve(), sat::Solver::Result::kSat);
  s.AddClause({a});
  ASSERT_EQ(s.Solve(), sat::Solver::Result::kSat);
  EXPECT_TRUE(s.Value(a));
  s.AddClause({-a});
  EXPECT_EQ(s.Solve(), sat::Solver::Result::kUnsat);
}

TEST(SatSolverTest, PigeonholeThreeIntoTwoIsUnsat) {
  sat::Solver s;
  int p[3][2];
  for (auto& row : p) {
    for (int& v : row) v = s.NewVar();
  }
  for (auto& row : p) s.AddClause({row[0], row[1]});
  for (int hole = 0; hole < 2; ++hole) {
    for (int i = 0; i < 3; ++i) {
      for (int j = i + 1; j < 3; ++j) {
        s.AddClause({-p[i][hole], -p[j][hole]});
      }
    }
  }
  EXPECT_EQ(s.Solve(), sat::Solver::Result::kUnsat);
}

TEST(DepGraphTest, DetectsSimpleCycle) {
  DepGraph g(3);
  g.AddDep(0, 1);
  g.AddDep(1, 2);
  g.AddDep(2, 0);
  EXPECT_FALSE(SatisfiesSerCriterion(g));
  EXPECT_FALSE(SatisfiesSiCriterion(g));
}

TEST(DepGraphTest, SiAllowsAdjacentRwCycle) {
  // A pure rw-rw cycle (write skew shape) is SI-legal but SER-illegal.
  DepGraph g(2);
  g.AddRw(0, 1);
  g.AddRw(1, 0);
  EXPECT_FALSE(SatisfiesSerCriterion(g));
  EXPECT_TRUE(SatisfiesSiCriterion(g));
}

TEST(DepGraphTest, SiRejectsSingleRwCycle) {
  // dep followed by one rw closing the cycle: illegal under SI.
  DepGraph g(2);
  g.AddDep(0, 1);
  g.AddRw(1, 0);
  EXPECT_FALSE(SatisfiesSiCriterion(g));
}

TEST(DepGraphTest, LargerMixedCycleRespectsAdjacency) {
  // dep: 0->1, rw: 1->2, dep: 2->3, rw: 3->0 — rw edges never adjacent,
  // so SI must reject; 4-node write-skew-like all-rw cycle is accepted.
  DepGraph bad(4);
  bad.AddDep(0, 1);
  bad.AddRw(1, 2);
  bad.AddDep(2, 3);
  bad.AddRw(3, 0);
  EXPECT_FALSE(SatisfiesSiCriterion(bad));

  DepGraph ok(4);
  ok.AddRw(0, 1);
  ok.AddRw(1, 2);
  ok.AddRw(2, 3);
  ok.AddRw(3, 0);
  EXPECT_TRUE(SatisfiesSiCriterion(ok));
}

History ValidHistory(uint64_t txns = 400) {
  workload::WorkloadParams p;
  p.sessions = 8;
  p.txns = txns;
  p.ops_per_txn = 6;
  p.keys = 60;
  return workload::GenerateDefaultHistory(p);
}

TEST(ElleKvTest, AcceptsValidHistory) {
  CountingSink sink;
  BaselineResult r = CheckElleKv(ValidHistory(), IsolationLevel::kSi, &sink);
  EXPECT_TRUE(r.Accepted()) << "anomalies=" << r.anomalies;
}

TEST(ElleKvTest, DetectsPhantomValue) {
  History h = ValidHistory(200);
  h.txns[100].ops[0] = {OpType::kRead, 1, 987654321, 0};  // never written
  CountingSink sink;
  BaselineResult r = CheckElleKv(h, IsolationLevel::kSi, &sink);
  EXPECT_GT(r.anomalies, 0u);
}

TEST(ElleListTest, AcceptsValidListHistory) {
  workload::WorkloadParams p;
  p.sessions = 6;
  p.txns = 400;
  p.ops_per_txn = 6;
  p.keys = 40;
  p.list_mode = true;
  CountingSink sink;
  BaselineResult r = CheckElleList(workload::GenerateDefaultHistory(p),
                                   IsolationLevel::kSi, &sink);
  EXPECT_TRUE(r.Accepted()) << "anomalies=" << r.anomalies;
}

TEST(ElleListTest, DetectsPrefixDivergence) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).A(1, 100)
                  .Txn(2, 1, 0, 3, 4).A(1, 101)
                  .Txn(3, 2, 0, 5, 6).L(1, {100, 101})
                  .Txn(4, 3, 0, 7, 8).L(1, {101, 100})  // incompatible order
                  .Build();
  CountingSink sink;
  BaselineResult r = CheckElleList(h, IsolationLevel::kSi, &sink);
  EXPECT_GT(r.anomalies, 0u);
}

TEST(EmmeSiTest, AcceptsValidHistory) {
  CountingSink sink;
  BaselineResult r = CheckEmmeSi(ValidHistory(), &sink);
  EXPECT_EQ(r.anomalies, 0u)
      << (sink.first().empty() ? "" : sink.first()[0].ToString());
  EXPECT_FALSE(r.cycle_found);
  EXPECT_GT(r.graph_edges, 0u);
}

TEST(EmmeSiTest, DetectsStaleReadLikeChronos) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).W(1, 1)
                  .Txn(2, 1, 0, 3, 4).W(1, 2)
                  .Txn(3, 2, 0, 5, 6).R(1, 1)
                  .Build();
  CountingSink sink;
  BaselineResult r = CheckEmmeSi(h, &sink);
  EXPECT_GT(r.anomalies + (r.cycle_found ? 1 : 0), 0u);
}

TEST(EmmeSiTest, DetectsLostUpdate) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 3).W(1, 5)
                  .Txn(2, 1, 0, 2, 4).W(1, 6)
                  .Build();
  CountingSink sink;
  CheckEmmeSi(h, &sink);
  EXPECT_GE(sink.count(ViolationType::kNoConflict), 1u);
}

TEST(PolySiTest, AcceptsValidHistory) {
  CountingSink sink;
  PolygraphResult r = CheckPolySi(ValidHistory(200), &sink);
  EXPECT_EQ(r.verdict, PolygraphResult::Verdict::kAccepted)
      << "rounds=" << r.cegar_rounds;
}

TEST(PolySiTest, AcceptsWriteSkew) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 3).R(1, 0).W(2, 7)
                  .Txn(2, 1, 0, 2, 4).R(2, 0).W(1, 8)
                  .Build();
  CountingSink sink;
  EXPECT_EQ(CheckPolySi(h, &sink).verdict,
            PolygraphResult::Verdict::kAccepted);
}

TEST(PolySiTest, DetectsFracturedRead) {
  // T3 observes T1's x but T2's y although T1 and T2 both wrote both
  // keys: no version order can justify it under SI.
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).W(1, 1).W(2, 1)
                  .Txn(2, 1, 0, 3, 4).W(1, 2).W(2, 2)
                  .Txn(3, 2, 0, 5, 6).R(1, 1).R(2, 2)
                  .Build();
  CountingSink sink;
  EXPECT_EQ(CheckPolySi(h, &sink).verdict,
            PolygraphResult::Verdict::kViolation);
}

// Paper Fig. 11: black-box checking accepts (it can infer order T1, T3,
// T2) while timestamp-based checking flags the stale read.
TEST(CompletenessTest, Fig11BlackBoxAcceptsTimestampBasedRejects) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).W(1, 1)
                  .Txn(2, 1, 0, 3, 4).W(1, 2)
                  .Txn(3, 2, 0, 5, 6).R(1, 1)
                  .Build();
  CountingSink poly_sink, chronos_sink;
  EXPECT_EQ(CheckPolySi(h, &poly_sink).verdict,
            PolygraphResult::Verdict::kAccepted);
  Chronos::CheckHistory(h, &chronos_sink);
  EXPECT_EQ(chronos_sink.count(ViolationType::kExt), 1u);
}

TEST(ViperTest, AcceptsValidHistoryWithFewerVariables) {
  History h = ValidHistory(200);
  CountingSink s1, s2;
  PolygraphResult poly = CheckPolySi(h, &s1);
  PolygraphResult viper = CheckViper(h, &s2);
  EXPECT_EQ(viper.verdict, PolygraphResult::Verdict::kAccepted);
  EXPECT_LE(viper.sat_vars, poly.sat_vars)
      << "session pruning must not add variables";
}

TEST(CobraTest, AcceptsValidSerStream) {
  db::DbConfig cfg;
  cfg.isolation = IsolationLevel::kSer;
  workload::WorkloadParams p;
  p.sessions = 8;
  p.txns = 600;
  p.ops_per_txn = 6;
  p.keys = 60;
  p.read_ratio = 0.9;
  History h = workload::GenerateDefaultHistory(p, cfg);
  auto stream = hist::ScheduleDelivery(h, hist::CollectorParams{});
  CountingSink sink;
  CobraParams cp;
  cp.round_size = 200;
  CobraRun run = RunCobraSer(stream, cp, &sink);
  EXPECT_FALSE(run.violation_found)
      << (sink.first().empty() ? "" : sink.first()[0].ToString());
  EXPECT_EQ(run.processed, 600u);
  EXPECT_EQ(run.round_progress.size(), 3u);
}

TEST(CobraTest, StopsAtFirstViolation) {
  // An SI-level (write-skew) history checked for SER.
  HistoryBuilder b;
  b.Txn(1, 0, 0, 1, 3).R(1, 0).W(2, 7);
  b.Txn(2, 1, 0, 2, 4).R(2, 0).W(1, 8);
  for (uint64_t i = 0; i < 50; ++i) {
    b.Txn(3 + i, 2 + static_cast<SessionId>(i % 4), i / 4, 10 + 2 * i,
          11 + 2 * i)
        .W(10 + i % 5, static_cast<Value>(1000 + i));
  }
  History h = b.Build();
  auto stream = hist::ScheduleDelivery(h, hist::CollectorParams{});
  CountingSink sink;
  CobraParams cp;
  cp.round_size = 10;
  CobraRun run = RunCobraSer(stream, cp, &sink);
  EXPECT_TRUE(run.violation_found);
  EXPECT_LT(run.processed, h.txns.size()) << "terminates early";
}

}  // namespace
}  // namespace chronos::baselines

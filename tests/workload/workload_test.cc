// Workload generators: Table I parameter compliance, distribution sanity,
// and validity of produced histories under the matching checker.
#include <gtest/gtest.h>

#include <random>
#include <unordered_set>

#include "core/chronos.h"
#include "workload/apps.h"
#include "workload/generator.h"
#include "workload/zipf.h"

namespace chronos::workload {
namespace {

TEST(ZipfTest, StaysInRangeAndSkews) {
  ZipfGenerator zipf(1000, 0.99);
  std::mt19937_64 rng(3);
  size_t low = 0;
  for (int i = 0; i < 20000; ++i) {
    uint64_t k = zipf.Next(rng);
    ASSERT_LT(k, 1000u);
    if (k < 100) ++low;
  }
  EXPECT_GT(low, 20000u / 3) << "zipfian mass concentrates on low keys";
}

TEST(ZipfTest, HotspotRespectsFractions) {
  HotspotGenerator hot(1000, 0.2, 0.8);
  std::mt19937_64 rng(3);
  size_t in_hot = 0;
  for (int i = 0; i < 20000; ++i) {
    if (hot.Next(rng) < 200) ++in_hot;
  }
  EXPECT_NEAR(static_cast<double>(in_hot) / 20000, 0.8, 0.03);
}

TEST(GeneratorTest, ProducesRequestedShape) {
  WorkloadParams p;
  p.sessions = 8;
  p.txns = 500;
  p.ops_per_txn = 10;
  p.keys = 50;
  History h = GenerateDefaultHistory(p);
  ASSERT_EQ(h.txns.size(), 500u);
  size_t reads = 0, writes = 0;
  for (const auto& t : h.txns) {
    EXPECT_EQ(t.ops.size(), 10u);
    EXPECT_LT(t.sid, 8u);
    for (const auto& op : t.ops) {
      EXPECT_LT(op.key, 50u);
      (op.type == OpType::kRead ? reads : writes) += 1;
    }
  }
  double ratio = static_cast<double>(reads) / (reads + writes);
  EXPECT_NEAR(ratio, 0.5, 0.05);
}

TEST(GeneratorTest, HistoriesAreValidSi) {
  for (auto dist : {WorkloadParams::KeyDist::kUniform,
                    WorkloadParams::KeyDist::kZipf,
                    WorkloadParams::KeyDist::kHotspot}) {
    WorkloadParams p;
    p.sessions = 10;
    p.txns = 800;
    p.ops_per_txn = 8;
    p.keys = 100;
    p.dist = dist;
    CountingSink sink;
    Chronos::CheckHistory(GenerateDefaultHistory(p), &sink);
    EXPECT_EQ(sink.total(), 0u) << "dist=" << static_cast<int>(dist);
  }
}

TEST(GeneratorTest, ListHistoriesAreValid) {
  WorkloadParams p;
  p.sessions = 6;
  p.txns = 400;
  p.ops_per_txn = 6;
  p.keys = 30;
  p.list_mode = true;
  CountingSink sink;
  Chronos::CheckHistory(GenerateDefaultHistory(p), &sink);
  EXPECT_EQ(sink.total(), 0u)
      << (sink.first().empty() ? "" : sink.first()[0].ToString());
}

TEST(GeneratorTest, DeterministicForFixedSeed) {
  WorkloadParams p;
  p.sessions = 4;
  p.txns = 100;
  p.ops_per_txn = 5;
  p.seed = 17;
  History a = GenerateDefaultHistory(p);
  History b = GenerateDefaultHistory(p);
  ASSERT_EQ(a.txns.size(), b.txns.size());
  for (size_t i = 0; i < a.txns.size(); ++i) {
    EXPECT_EQ(a.txns[i].commit_ts, b.txns[i].commit_ts);
    ASSERT_EQ(a.txns[i].ops.size(), b.txns[i].ops.size());
  }
}

TEST(AppsTest, TwitterHistoryIsValidAndGrowsKeys) {
  TwitterParams p;
  p.txns = 1500;
  History h = GenerateTwitterHistory(p);
  EXPECT_EQ(h.txns.size(), 1500u);
  CountingSink sink;
  Chronos::CheckHistory(h, &sink);
  EXPECT_EQ(sink.total(), 0u)
      << (sink.first().empty() ? "" : sink.first()[0].ToString());
  // Key space grows with posted tweets (paper: Twitter stresses #keys).
  std::unordered_set<Key> keys;
  for (const auto& t : h.txns) {
    for (const auto& op : t.ops) keys.insert(op.key);
  }
  EXPECT_GT(keys.size(), 500u);
}

TEST(AppsTest, RubisHistoryIsValid) {
  RubisParams p;
  p.txns = 1500;
  CountingSink sink;
  Chronos::CheckHistory(GenerateRubisHistory(p), &sink);
  EXPECT_EQ(sink.total(), 0u)
      << (sink.first().empty() ? "" : sink.first()[0].ToString());
}

TEST(AppsTest, TpccHistoryIsValidAndContended) {
  TpccParams p;
  p.txns = 1000;
  db::DbConfig cfg;
  db::Database db(cfg);
  RunTpccWorkload(&db, p);
  EXPECT_EQ(db.CommittedCount(), 1000u);
  EXPECT_GT(db.AbortedCount(), 0u) << "district hot rows should conflict";
  CountingSink sink;
  Chronos::CheckHistory(db.ExportHistory(), &sink);
  EXPECT_EQ(sink.total(), 0u)
      << (sink.first().empty() ? "" : sink.first()[0].ToString());
}

TEST(AppsTest, SerWorkloadsPassSerChecker) {
  db::DbConfig cfg;
  cfg.isolation = IsolationLevel::kSer;
  RubisParams p;
  p.txns = 800;
  CountingSink sink;
  Chronos::CheckHistory(GenerateRubisHistory(p, cfg), &sink,
                        IsolationLevel::kSer);
  EXPECT_EQ(sink.total(), 0u)
      << (sink.first().empty() ? "" : sink.first()[0].ToString());
}

}  // namespace
}  // namespace chronos::workload

// The schedule-space model: canonical arrival order, key/timestamp
// footprints, and the commutativity (independence) relation that the
// DPOR enumerator prunes with.
#include <vector>

#include <gtest/gtest.h>

#include "explore/schedule.h"

#include "../testutil.h"

namespace chronos::explore {
namespace {

using chronos::testing::HistoryBuilder;

TEST(ScheduleTest, CanonicalArrivalsSortByCommitThenTid) {
  History h = HistoryBuilder()
                  .Txn(3, 0, 0, 1, 9).W(0, 1)
                  .Txn(1, 1, 0, 2, 5).W(1, 1)
                  .Txn(2, 2, 0, 3, 5).W(2, 1)
                  .Build();
  std::vector<Arrival> a = CanonicalArrivals(h, IsolationLevel::kSi);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0].txn->tid, 1u);  // commit 5, tid 1
  EXPECT_EQ(a[1].txn->tid, 2u);  // commit 5, tid 2
  EXPECT_EQ(a[2].txn->tid, 3u);  // commit 9
}

TEST(ScheduleTest, FootprintCollectsAllOpKindsSortedDeduped) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2)
                  .W(5, 1).R(3, 0).W(5, 2).A(7, 1).L(2, {})
                  .Build();
  std::vector<Arrival> a = CanonicalArrivals(h, IsolationLevel::kSi);
  EXPECT_EQ(a[0].keys, (std::vector<Key>{2, 3, 5, 7}));
}

TEST(ScheduleTest, RegisteredTimestampsFollowIngressRules) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 3, 7).W(0, 1)   // SI: start and commit
                  .Txn(2, 1, 0, 4, 4).W(1, 1)   // start == commit: one entry
                  .Txn(3, 2, 0, 9, 8).W(2, 1)   // Eq.(1) invalid: none (SI)
                  .Build();
  std::vector<Arrival> si = CanonicalArrivals(h, IsolationLevel::kSi);
  // Canonical order: tid 2 (commit 4), tid 1 (commit 7), tid 3 (commit 8).
  EXPECT_EQ(si[0].reg_ts, (std::vector<Timestamp>{4}));
  EXPECT_EQ(si[1].reg_ts, (std::vector<Timestamp>{3, 7}));
  EXPECT_TRUE(si[2].reg_ts.empty());

  // SER registers only commit timestamps, Eq.(1) validity is moot.
  std::vector<Arrival> ser = CanonicalArrivals(h, IsolationLevel::kSer);
  EXPECT_EQ(ser[0].reg_ts, (std::vector<Timestamp>{4}));
  EXPECT_EQ(ser[1].reg_ts, (std::vector<Timestamp>{7}));
  EXPECT_EQ(ser[2].reg_ts, (std::vector<Timestamp>{8}));
}

TEST(ScheduleTest, DependenceAxes) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).W(0, 1)    // key 0
                  .Txn(2, 0, 1, 3, 4).W(5, 1)    // same session as tid 1
                  .Txn(3, 1, 0, 5, 6).W(0, 2)    // shares key 0 with tid 1
                  .Txn(4, 2, 0, 7, 8).W(9, 1)    // disjoint from everything
                  .Txn(5, 3, 0, 1, 10).W(7, 1)   // shares start_ts 1 w/ tid 1
                  .Build();
  std::vector<Arrival> a = CanonicalArrivals(h, IsolationLevel::kSi);
  // Canonical order == tid order here (commit 2,4,6,8,10).
  Dependence dep(a, /*position_sensitive=*/false);
  EXPECT_TRUE(dep.Depends(0, 1));   // same session
  EXPECT_TRUE(dep.Depends(0, 2));   // shared key
  EXPECT_FALSE(dep.Depends(0, 3));  // disjoint keys, sessions, timestamps
  EXPECT_TRUE(dep.Depends(0, 4));   // shared registered timestamp
  EXPECT_FALSE(dep.Depends(1, 2));
  EXPECT_FALSE(dep.Depends(2, 3));
  // Symmetry.
  EXPECT_TRUE(dep.Depends(2, 0));
  EXPECT_FALSE(dep.Depends(3, 0));
}

// A finite EXT timeout or an active GC cadence makes an arrival's
// position decide which deadlines fire / where the watermark lands, so
// every pair is conservatively dependent.
TEST(ScheduleTest, PositionSensitiveMarksAllPairsDependent) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).W(0, 1)
                  .Txn(2, 1, 0, 3, 4).W(1, 1)
                  .Build();
  std::vector<Arrival> a = CanonicalArrivals(h, IsolationLevel::kSi);
  EXPECT_FALSE(Dependence(a, false).Depends(0, 1));
  EXPECT_TRUE(Dependence(a, true).Depends(0, 1));
}

TEST(ScheduleTest, FormatAndTids) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).W(0, 1)
                  .Txn(2, 1, 0, 3, 4).W(1, 1)
                  .Build();
  std::vector<Arrival> a = CanonicalArrivals(h, IsolationLevel::kSi);
  EXPECT_EQ(FormatSchedule(a, {1, 0}), "2,1");
  EXPECT_EQ(ScheduleTids(a, {1, 0}), (std::vector<TxnId>{2, 1}));
}

}  // namespace
}  // namespace chronos::explore

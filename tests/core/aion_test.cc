// Unit tests for AION (Algorithm 3): out-of-order arrival, EXT
// re-checking with flip-flops, timeout finalization, NOCONFLICT via
// interval overlap, and agreement with CHRONOS on arbitrary
// session-preserving arrival orders.
#include "core/aion.h"

#include <gtest/gtest.h>

#include "../testutil.h"
#include "core/chronos.h"

namespace chronos {
namespace {

using testing::HistoryBuilder;
using testing::RunAionToEnd;
using testing::SessionPreservingShuffle;

History Fig2History() {
  return HistoryBuilder()
      .Txn(1, 0, 0, 1, 2).W(1, 1)
      .Txn(2, 1, 0, 3, 5).W(1, 2)
      .Txn(5, 2, 0, 4, 7).R(1, 1).W(2, 1)
      .Txn(3, 3, 0, 6, 9).R(1, 2).W(2, 2)
      .Txn(4, 4, 0, 8, 10).R(2, 1)
      .Build();
}

// The paper's Example 5: transactions collected in the order T1, T2, T3,
// T4, T5. T4's read of y=1 is a transient EXT violation until straggler
// T5 arrives; the NOCONFLICT between T5 and T3 must still be found.
TEST(AionTest, Example5StragglerClearsFalseExtAndFindsConflict) {
  History h = Fig2History();
  // Arrival order T1, T2, T3, T4, T5 (indices 0, 1, 3, 4, 2).
  std::vector<Transaction> arrivals = {h.txns[0], h.txns[1], h.txns[3],
                                       h.txns[4], h.txns[2]};
  CountingSink sink;
  Aion::Options opt;
  opt.ext_timeout_ms = 1000;
  Aion aion(opt, &sink);
  uint64_t now = 0;
  for (const Transaction& t : arrivals) aion.OnTransaction(t, now++);
  aion.Finish();

  EXPECT_EQ(sink.count(ViolationType::kExt), 0u) << "T4 was re-justified";
  EXPECT_EQ(sink.count(ViolationType::kNoConflict), 1u);
  // T4's (txn, key) EXT verdict flipped exactly once (false -> true).
  EXPECT_EQ(aion.flip_stats().total_flips(), 1u);
  EXPECT_EQ(aion.flip_stats().txns_with_flips(), 1u);
}

TEST(AionTest, InOrderDeliveryMatchesChronosOnFig2) {
  History h = Fig2History();
  CountingSink chronos_sink, aion_sink;
  Chronos::CheckHistory(h, &chronos_sink);
  RunAionToEnd(h.txns, IsolationLevel::kSi, &aion_sink);
  EXPECT_EQ(aion_sink.count(ViolationType::kNoConflict),
            chronos_sink.count(ViolationType::kNoConflict));
  EXPECT_EQ(aion_sink.count(ViolationType::kExt),
            chronos_sink.count(ViolationType::kExt));
}

TEST(AionTest, ExtViolationReportedOnlyAfterTimeout) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).W(1, 1)
                  .Txn(2, 1, 0, 3, 4).R(1, 99)  // wrong value forever
                  .Build();
  CountingSink sink;
  Aion::Options opt;
  opt.ext_timeout_ms = 100;
  Aion aion(opt, &sink);
  aion.OnTransaction(h.txns[0], 0);
  aion.OnTransaction(h.txns[1], 1);
  EXPECT_EQ(sink.count(ViolationType::kExt), 0u) << "verdict still tentative";
  aion.AdvanceTime(50);
  EXPECT_EQ(sink.count(ViolationType::kExt), 0u);
  aion.AdvanceTime(200);
  EXPECT_EQ(sink.count(ViolationType::kExt), 1u);
}

TEST(AionTest, RecheckSkipsFinalizedTransactions) {
  // Reader finalizes (timeout) before the justifying straggler arrives:
  // per Algorithm 3 line 40, the verdict stays final (a false positive
  // the paper's timeout mechanism accepts).
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).W(1, 1)
                  .Txn(2, 1, 0, 3, 4).R(1, 1)
                  .Build();
  CountingSink sink;
  Aion::Options opt;
  opt.ext_timeout_ms = 10;
  Aion aion(opt, &sink);
  aion.OnTransaction(h.txns[1], 0);  // reader first: tentative violation
  aion.AdvanceTime(100);             // finalize: EXT reported
  EXPECT_EQ(sink.count(ViolationType::kExt), 1u);
  aion.OnTransaction(h.txns[0], 101);  // straggler writer
  aion.Finish();
  EXPECT_EQ(sink.count(ViolationType::kExt), 1u) << "no retraction";
}

TEST(AionTest, NoConflictPairReportedOncePerPair) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 20).W(1, 1)
                  .Txn(2, 1, 0, 2, 10).W(1, 2)
                  .Txn(3, 2, 0, 3, 15).W(1, 3)
                  .Build();
  for (uint64_t seed = 0; seed < 5; ++seed) {
    CountingSink sink;
    RunAionToEnd(SessionPreservingShuffle(h, seed), IsolationLevel::kSi, &sink);
    EXPECT_EQ(sink.count(ViolationType::kNoConflict), 3u) << "seed " << seed;
  }
}

TEST(AionTest, SessionOrderViolationDetected) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).W(1, 1)
                  .Txn(2, 0, 2, 3, 4).W(1, 2)  // sno gap
                  .Build();
  CountingSink sink;
  RunAionToEnd(h.txns, IsolationLevel::kSi, &sink);
  EXPECT_EQ(sink.count(ViolationType::kSession), 1u);
}

TEST(AionTest, TsOrderViolationDetectedAndIntStillChecked) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 9, 2).W(1, 5).R(1, 6)
                  .Build();
  CountingSink sink;
  RunAionToEnd(h.txns, IsolationLevel::kSi, &sink);
  EXPECT_EQ(sink.count(ViolationType::kTsOrder), 1u);
  EXPECT_EQ(sink.count(ViolationType::kInt), 1u);
}

TEST(AionTest, DuplicateTimestampDetected) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 3).W(1, 1)
                  .Txn(2, 1, 0, 3, 5).W(2, 1)
                  .Build();
  CountingSink sink;
  RunAionToEnd(h.txns, IsolationLevel::kSi, &sink);
  EXPECT_EQ(sink.count(ViolationType::kTsDuplicate), 1u);
}

TEST(AionTest, LateWriterBetweenExistingVersionsRechecksOnlyItsWindow) {
  // Versions at ts 2 (v=1) and ts 10 (v=3); readers at 5, 6 and 12.
  // A late writer at ts 4 (v=2) must re-check the readers at 5 and 6 but
  // not the one at 12.
  HistoryBuilder b;
  b.Txn(1, 0, 0, 1, 2).W(1, 1);
  b.Txn(2, 1, 0, 9, 10).W(1, 3);
  b.Txn(3, 2, 0, 5, 5).R(1, 2);   // will be justified by the late writer
  b.Txn(4, 3, 0, 6, 6).R(1, 2);
  b.Txn(5, 4, 0, 12, 12).R(1, 3); // justified by ts-10 version
  b.Txn(6, 5, 0, 3, 4).W(1, 2);   // the straggler
  History h = b.Build();
  CountingSink sink;
  Aion::Options opt;
  opt.ext_timeout_ms = 1u << 30;
  Aion aion(opt, &sink);
  for (size_t i = 0; i + 1 < h.txns.size(); ++i) {
    aion.OnTransaction(h.txns[i], i);
  }
  aion.OnTransaction(h.txns.back(), 10);  // straggler
  aion.Finish();
  EXPECT_EQ(sink.count(ViolationType::kExt), 0u);
  EXPECT_EQ(aion.stats().ext_rechecks, 2u) << "only readers at 5 and 6";
}

TEST(AionTest, AgreesWithChronosUnderArbitraryArrivalOrders) {
  History h = Fig2History();
  CountingSink ref;
  Chronos::CheckHistory(h, &ref);
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    CountingSink sink;
    RunAionToEnd(SessionPreservingShuffle(h, seed), IsolationLevel::kSi, &sink);
    EXPECT_EQ(sink.count(ViolationType::kExt), ref.count(ViolationType::kExt))
        << "seed " << seed;
    EXPECT_EQ(sink.count(ViolationType::kNoConflict),
              ref.count(ViolationType::kNoConflict))
        << "seed " << seed;
    EXPECT_EQ(sink.count(ViolationType::kInt), ref.count(ViolationType::kInt))
        << "seed " << seed;
  }
}

TEST(AionSerTest, CommitOrderReadViewEnforced) {
  // Write skew: SER checker must flag what SI admits.
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 3).R(1, 0).W(2, 7)
                  .Txn(2, 1, 0, 2, 4).R(2, 0).W(1, 8)
                  .Build();
  CountingSink si_sink, ser_sink;
  RunAionToEnd(h.txns, IsolationLevel::kSi, &si_sink);
  RunAionToEnd(h.txns, IsolationLevel::kSer, &ser_sink);
  EXPECT_EQ(si_sink.total(), 0u);
  EXPECT_EQ(ser_sink.count(ViolationType::kExt), 1u);
}

TEST(AionSerTest, OutOfOrderArrivalStillJustifiesReads) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).W(1, 5)
                  .Txn(2, 1, 0, 3, 4).R(1, 5)
                  .Build();
  // Reader first, then writer.
  std::vector<Transaction> arrivals = {h.txns[1], h.txns[0]};
  CountingSink sink;
  RunAionToEnd(arrivals, IsolationLevel::kSer, &sink);
  EXPECT_EQ(sink.count(ViolationType::kExt), 0u);
}

TEST(AionTest, FootprintGrowsWithoutGc) {
  HistoryBuilder b;
  for (uint64_t i = 0; i < 50; ++i) {
    b.Txn(i + 1, 0, i, 10 * i + 1, 10 * i + 2).W(i % 7, static_cast<Value>(i));
  }
  History h = b.Build();
  CountingSink sink;
  Aion::Options opt;
  Aion aion(opt, &sink);
  uint64_t now = 0;
  for (const Transaction& t : h.txns) aion.OnTransaction(t, now++);
  EXPECT_EQ(aion.GetFootprint().live_txns, 50u);
  EXPECT_EQ(aion.GetFootprint().versions, 50u);
}

}  // namespace
}  // namespace chronos

// Edge cases and adversarial inputs across the checker stack: boundary
// timestamps, pathological sessions, empty/degenerate transactions, and
// cross-checker consistency on anomaly zoo histories.
#include <gtest/gtest.h>

#include "../testutil.h"
#include "baselines/emme.h"
#include "core/aion.h"
#include "core/chronos.h"

namespace chronos {
namespace {

using testing::HistoryBuilder;
using testing::RunAionToEnd;

TEST(EdgeCaseTest, TransactionWithNoOps) {
  History h = HistoryBuilder().Txn(1, 0, 0, 1, 1).Build();
  CountingSink sink;
  EXPECT_EQ(Chronos::CheckHistory(h, &sink).violations, 0u);
  CountingSink aion;
  RunAionToEnd(h.txns, IsolationLevel::kSi, &aion);
  EXPECT_EQ(aion.total(), 0u);
}

TEST(EdgeCaseTest, WriteOnlyTransactions) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).W(1, 1).W(2, 1).W(3, 1)
                  .Txn(2, 1, 0, 3, 4).W(1, 2).W(2, 2)
                  .Build();
  CountingSink sink;
  EXPECT_EQ(Chronos::CheckHistory(h, &sink).violations, 0u);
}

TEST(EdgeCaseTest, RepeatedWritesToSameKeyWithinTxn) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).W(1, 1).R(1, 1).W(1, 2).R(1, 2).W(1, 3)
                  .Txn(2, 1, 0, 3, 4).R(1, 3)
                  .Build();
  CountingSink sink;
  EXPECT_EQ(Chronos::CheckHistory(h, &sink).violations, 0u);
}

TEST(EdgeCaseTest, ReadingIntermediateWriteOfOtherTxnIsExt) {
  // T2 must see T1's final write (3), not the intermediate (2).
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).W(1, 2).W(1, 3)
                  .Txn(2, 1, 0, 3, 4).R(1, 2)
                  .Build();
  CountingSink sink;
  Chronos::CheckHistory(h, &sink);
  EXPECT_EQ(sink.count(ViolationType::kExt), 1u);
}

TEST(EdgeCaseTest, LongSessionChainAccepted) {
  HistoryBuilder b;
  for (uint64_t i = 0; i < 200; ++i) {
    b.Txn(i + 1, 0, i, 2 * i + 1, 2 * i + 2)
        .R(1, i == 0 ? kValueInit : static_cast<Value>(i))
        .W(1, static_cast<Value>(i + 1));
  }
  History h = b.Build();
  CountingSink sink;
  EXPECT_EQ(Chronos::CheckHistory(h, &sink).violations, 0u);
  CountingSink aion;
  RunAionToEnd(testing::SessionPreservingShuffle(h, 3), IsolationLevel::kSi,
               &aion);
  EXPECT_EQ(aion.total(), 0u);
}

TEST(EdgeCaseTest, SessionRestartingAtNonZeroSnoFlagged) {
  History h = HistoryBuilder().Txn(1, 0, 5, 1, 2).W(1, 1).Build();
  CountingSink sink;
  Chronos::CheckHistory(h, &sink);
  EXPECT_EQ(sink.count(ViolationType::kSession), 1u);
}

TEST(EdgeCaseTest, ManySessionsSingleTxnEach) {
  HistoryBuilder b;
  for (uint64_t i = 0; i < 100; ++i) {
    b.Txn(i + 1, static_cast<SessionId>(i), 0, 2 * i + 1, 2 * i + 2)
        .W(i % 10, static_cast<Value>(i + 1));
  }
  CountingSink sink;
  EXPECT_EQ(Chronos::CheckHistory(b.Build(), &sink).violations, 0u);
}

TEST(EdgeCaseTest, ConflictSpanningManyCommits) {
  // A long-running writer overlapping five short writers on one key:
  // five conflict pairs plus the short writers pairwise disjoint.
  HistoryBuilder b;
  b.Txn(99, 0, 0, 1, 100).W(7, 999);
  for (uint64_t i = 0; i < 5; ++i) {
    b.Txn(i + 1, static_cast<SessionId>(i + 1), 0, 10 * (i + 1),
          10 * (i + 1) + 5)
        .W(7, static_cast<Value>(i + 1));
  }
  CountingSink sink;
  Chronos::CheckHistory(b.Build(), &sink);
  EXPECT_EQ(sink.count(ViolationType::kNoConflict), 5u);
  CountingSink aion;
  RunAionToEnd(testing::SessionPreservingShuffle(b.Build(), 11),
               IsolationLevel::kSi, &aion);
  EXPECT_EQ(aion.count(ViolationType::kNoConflict), 5u);
}

TEST(EdgeCaseTest, AdjacentButNonOverlappingWritersDoNotConflict) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 5).W(1, 1)
                  .Txn(2, 1, 0, 6, 9).W(1, 2)  // starts right after commit
                  .Build();
  CountingSink sink;
  Chronos::CheckHistory(h, &sink);
  EXPECT_EQ(sink.count(ViolationType::kNoConflict), 0u);
}

TEST(EdgeCaseTest, EmmeAgreesWithChronosOnAnomalyZoo) {
  // Stale read + lost update + INT breakage in one history.
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).W(1, 1)
                  .Txn(2, 1, 0, 3, 4).W(1, 2)
                  .Txn(3, 2, 0, 5, 6).R(1, 1)              // stale (EXT)
                  .Txn(4, 3, 0, 7, 10).R(1, 2).W(2, 1)
                  .Txn(5, 4, 0, 8, 11).R(1, 2).W(2, 2)     // lost update
                  .Txn(6, 5, 0, 12, 13).W(3, 5).R(3, 6)    // INT
                  .Build();
  CountingSink chronos_sink, emme_sink;
  Chronos::CheckHistory(h, &chronos_sink);
  baselines::CheckEmmeSi(h, &emme_sink);
  EXPECT_EQ(chronos_sink.count(ViolationType::kExt), 1u) << "stale read";
  EXPECT_GE(emme_sink.count(ViolationType::kExt), 1u);
  EXPECT_EQ(chronos_sink.count(ViolationType::kNoConflict),
            emme_sink.count(ViolationType::kNoConflict));
  EXPECT_EQ(chronos_sink.count(ViolationType::kInt),
            emme_sink.count(ViolationType::kInt));
}

TEST(EdgeCaseTest, AionSerDuplicateCommitTsDetected) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 5).W(1, 1)
                  .Txn(2, 1, 0, 2, 5).W(2, 1)  // same commit ts
                  .Build();
  CountingSink sink;
  RunAionToEnd(h.txns, IsolationLevel::kSer, &sink);
  EXPECT_EQ(sink.count(ViolationType::kTsDuplicate), 1u);
}

TEST(EdgeCaseTest, AionFlipFlopCountedOncePerRectification) {
  // Reader's verdict flips false -> true exactly once when the straggler
  // writer lands; a second identical re-check must not double count.
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).W(1, 7)
                  .Txn(2, 1, 0, 3, 3).R(1, 7)
                  .Build();
  CountingSink sink;
  Aion::Options opt;
  opt.ext_timeout_ms = 1u << 30;
  Aion aion(opt, &sink);
  aion.OnTransaction(h.txns[1], 0);  // reader first: tentative false
  aion.OnTransaction(h.txns[0], 5);  // writer: flips to true
  aion.Finish();
  EXPECT_EQ(aion.flip_stats().total_flips(), 1u);
  EXPECT_EQ(sink.total(), 0u);
}

TEST(EdgeCaseTest, ChronosSerIgnoresNoConflict) {
  // Overlapping writers are an SI violation but SER (commit-order
  // replay) has no NOCONFLICT axiom.
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 3).W(1, 1)
                  .Txn(2, 1, 0, 2, 4).R(1, 1).W(1, 2)
                  .Build();
  CountingSink si_sink, ser_sink;
  Chronos::CheckHistory(h, &si_sink);
  Chronos::CheckHistory(h, &ser_sink, IsolationLevel::kSer);
  EXPECT_EQ(si_sink.count(ViolationType::kNoConflict), 1u);
  EXPECT_EQ(ser_sink.count(ViolationType::kNoConflict), 0u);
  // Under SER replay T2's read of key 1 correctly sees T1's value.
  EXPECT_EQ(ser_sink.total(), 0u);
}

TEST(EdgeCaseTest, ViolationToStringIsInformative) {
  Violation v{ViolationType::kExt, 42, 43, 7, 10, 11};
  std::string s = v.ToString();
  EXPECT_NE(s.find("EXT"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_NE(s.find("expected=10"), std::string::npos);
}

}  // namespace
}  // namespace chronos

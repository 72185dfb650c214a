// CHRONOS on list histories: append/read-list semantics, INT/EXT
// classification for lists, NOCONFLICT on concurrent appends.
#include "core/chronos.h"

#include <gtest/gtest.h>

#include "../testutil.h"

namespace chronos {
namespace {

using testing::HistoryBuilder;

TEST(ChronosListTest, AcceptsSimpleAppendChain) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).A(1, 100)
                  .Txn(2, 1, 0, 3, 4).A(1, 101)
                  .Txn(3, 2, 0, 5, 6).L(1, {100, 101})
                  .Build();
  CountingSink sink;
  EXPECT_EQ(Chronos::CheckHistory(h, &sink).violations, 0u);
}

TEST(ChronosListTest, EmptyListReadBeforeAnyAppend) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 1).L(1, {})
                  .Txn(2, 1, 0, 2, 3).A(1, 100)
                  .Build();
  CountingSink sink;
  EXPECT_EQ(Chronos::CheckHistory(h, &sink).violations, 0u);
}

TEST(ChronosListTest, SnapshotExcludesConcurrentAppend) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).A(1, 100)
                  .Txn(2, 1, 0, 3, 6).A(1, 101)
                  .Txn(3, 2, 0, 4, 5).L(1, {100})  // T2 not yet committed
                  .Build();
  CountingSink sink;
  EXPECT_EQ(Chronos::CheckHistory(h, &sink).violations, 0u);
}

TEST(ChronosListTest, ObservingUncommittedAppendIsExt) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).A(1, 100)
                  .Txn(2, 1, 0, 3, 6).A(1, 101)
                  .Txn(3, 2, 0, 4, 5).L(1, {100, 101})  // sees future append
                  .Build();
  CountingSink sink;
  Chronos::CheckHistory(h, &sink);
  EXPECT_EQ(sink.count(ViolationType::kExt), 1u);
}

TEST(ChronosListTest, ReadsOwnAppendsAfterSnapshot) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).A(1, 100)
                  .Txn(2, 1, 0, 3, 4).A(1, 101).L(1, {100, 101})
                  .Build();
  CountingSink sink;
  EXPECT_EQ(Chronos::CheckHistory(h, &sink).violations, 0u);
}

TEST(ChronosListTest, MissingOwnAppendIsInt) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).A(1, 100).L(1, {})  // lost own append
                  .Build();
  CountingSink sink;
  Chronos::CheckHistory(h, &sink);
  EXPECT_EQ(sink.count(ViolationType::kInt), 1u);
}

TEST(ChronosListTest, ConcurrentAppendersConflict) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 3).A(1, 100)
                  .Txn(2, 1, 0, 2, 4).A(1, 101)
                  .Build();
  CountingSink sink;
  Chronos::CheckHistory(h, &sink);
  EXPECT_EQ(sink.count(ViolationType::kNoConflict), 1u);
}

TEST(ChronosListTest, WrongPrefixOrderIsExt) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).A(1, 100)
                  .Txn(2, 1, 0, 3, 4).A(1, 101)
                  .Txn(3, 2, 0, 5, 6).L(1, {101, 100})
                  .Build();
  CountingSink sink;
  Chronos::CheckHistory(h, &sink);
  EXPECT_EQ(sink.count(ViolationType::kExt), 1u);
}

// Mismatch reports carry the first divergent element index (and the
// respective lengths), so a shrunk list repro names the exact element.
TEST(ChronosListTest, MismatchReportsFirstDivergentIndex) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).A(1, 100)
                  .Txn(2, 1, 0, 3, 4).A(1, 101)
                  .Txn(3, 2, 0, 5, 6).L(1, {100, 999})
                  .Build();
  CountingSink sink(4);
  Chronos::CheckHistory(h, &sink);
  ASSERT_EQ(sink.count(ViolationType::kExt), 1u);
  // By value: first() returns a copy, so a reference would dangle.
  const Violation v = sink.first()[0];
  EXPECT_EQ(v.divergence, 1);   // element 0 matches, element 1 differs
  EXPECT_EQ(v.expected, 2);     // frontier length
  EXPECT_EQ(v.got, 2);          // observed (resolved base) length

  // A proper-prefix mismatch diverges at the shorter length.
  History h2 = HistoryBuilder()
                   .Txn(1, 0, 0, 1, 2).A(1, 100)
                   .Txn(2, 1, 0, 3, 4).A(1, 101)
                   .Txn(3, 2, 0, 5, 6).L(1, {100})
                   .Build();
  CountingSink sink2(4);
  Chronos::CheckHistory(h2, &sink2);
  ASSERT_EQ(sink2.count(ViolationType::kExt), 1u);
  EXPECT_EQ(sink2.first()[0].divergence, 1);
  EXPECT_EQ(sink2.first()[0].expected, 2);
  EXPECT_EQ(sink2.first()[0].got, 1);
}

// A read whose own-append suffix checks out but whose base prefix
// disagrees with the frontier is an EXT violation (external frontier
// problem), not INT — the classification the online checker shares via
// core/list_replay.h.
TEST(ChronosListTest, BadBaseUnderOwnAppendsIsExt) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).A(1, 100)
                  // Appends 101 then reads [999, 101]: the suffix [101]
                  // matches its own append, the base [999] != [100].
                  .Txn(2, 1, 0, 3, 4).A(1, 101).L(1, {999, 101})
                  .Build();
  CountingSink sink(4);
  Chronos::CheckHistory(h, &sink);
  EXPECT_EQ(sink.count(ViolationType::kInt), 0u);
  ASSERT_EQ(sink.count(ViolationType::kExt), 1u);
  EXPECT_EQ(sink.first()[0].divergence, 0);
}

// Duplicate timestamps across distinct transactions are reported (and
// the duplicate still replays, matching the register Chronos — the D6
// contract AION deliberately diverges from by skipping).
TEST(ChronosListTest, DuplicateTimestampReported) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).A(1, 100)
                  .Txn(2, 1, 0, 2, 3).A(1, 101)  // start reuses ts 2
                  .Txn(3, 2, 0, 4, 5).L(1, {100, 101})
                  .Build();
  CountingSink sink;
  Chronos::CheckHistory(h, &sink);
  EXPECT_EQ(sink.count(ViolationType::kTsDuplicate), 1u);
  EXPECT_EQ(sink.count(ViolationType::kExt), 0u);  // duplicate replayed
}

// Eq. (1)-violating transactions are excluded from replay but still get
// the frontier-independent INT check (mirrors register Chronos).
TEST(ChronosListTest, TsOrderViolationStillChecksInt) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 5, 2).A(1, 100).L(1, {})  // start > commit
                  .Build();
  CountingSink sink;
  Chronos::CheckHistory(h, &sink);
  EXPECT_EQ(sink.count(ViolationType::kTsOrder), 1u);
  EXPECT_EQ(sink.count(ViolationType::kInt), 1u);
}

// The frontier is the cumulative append sequence in commit order: a
// lost-update pair (overlapping appenders) contributes *both* deltas —
// what MvccStore::ApplyAppend actually does — so a reader seeing only
// the second writer's delta is flagged EXT on top of the NOCONFLICT.
TEST(ChronosListTest, CumulativeFrontierKeepsBothConcurrentDeltas) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 3).A(1, 100)
                  .Txn(2, 1, 0, 2, 4).A(1, 101)
                  .Txn(3, 2, 0, 5, 6).L(1, {101})  // dropped 100
                  .Build();
  CountingSink sink(4);
  Chronos::CheckHistory(h, &sink);
  EXPECT_EQ(sink.count(ViolationType::kNoConflict), 1u);
  ASSERT_EQ(sink.count(ViolationType::kExt), 1u);
  EXPECT_EQ(sink.first()[1].divergence, 0);  // [100,101] vs [101]

  History ok = HistoryBuilder()
                   .Txn(1, 0, 0, 1, 3).A(1, 100)
                   .Txn(2, 1, 0, 2, 4).A(1, 101)
                   .Txn(3, 2, 0, 5, 6).L(1, {100, 101})
                   .Build();
  CountingSink ok_sink;
  Chronos::CheckHistory(ok, &ok_sink);
  EXPECT_EQ(ok_sink.count(ViolationType::kExt), 0u);
}

}  // namespace
}  // namespace chronos

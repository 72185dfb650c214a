// Unit tests for the CHRONOS offline SI checker (Algorithm 2), built
// around the paper's running examples (Figs. 1, 2, 11) plus one test per
// axiom and well-formedness rule.
#include "core/chronos.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "../testutil.h"
#include "hist/codec.h"
#include "hist/event_stream.h"

namespace chronos {
namespace {

using testing::HistoryBuilder;

// Paper Fig. 1: a valid SI execution. T0 initializes x and y; T2's
// snapshot excludes T1 (T1 commits after T2 starts); T3 sees T1.
History Fig1History() {
  return HistoryBuilder()
      .Txn(10, 0, 0, 1, 2).W(1, 100).W(2, 200)   // T0: W(x) W(y)
      .Txn(11, 1, 0, 3, 6).W(1, 101).W(2, 201)   // T1: W(x,1) W(y,2)
      .Txn(12, 2, 0, 4, 4).R(1, 100)             // T2: R(x)=T0's value
      .Txn(13, 3, 0, 7, 7).R(2, 201)             // T3: R(y)=T1's value
      .Build();
}

// Paper Fig. 2: T3 and T5 overlap on key y -> one NOCONFLICT violation;
// all reads are justified.
History Fig2History() {
  return HistoryBuilder()
      .Txn(1, 0, 0, 1, 2).W(1, 1)                // T1: W(x,1)
      .Txn(2, 1, 0, 3, 5).W(1, 2)                // T2: W(x,2)
      .Txn(5, 2, 0, 4, 7).R(1, 1).W(2, 1)        // T5: R(x,1) W(y,1)
      .Txn(3, 3, 0, 6, 9).R(1, 2).W(2, 2)        // T3: R(x,2) W(y,2)
      .Txn(4, 4, 0, 8, 10).R(2, 1)               // T4: R(y,1)
      .Build();
}

TEST(ChronosTest, AcceptsEmptyHistory) {
  CountingSink sink;
  CheckStats stats = Chronos::CheckHistory(History{}, &sink);
  EXPECT_EQ(stats.violations, 0u);
  EXPECT_EQ(stats.txns, 0u);
}

TEST(ChronosTest, AcceptsFig1) {
  CountingSink sink;
  CheckStats stats = Chronos::CheckHistory(Fig1History(), &sink);
  EXPECT_EQ(stats.violations, 0u)
      << (sink.first().empty() ? "" : sink.first()[0].ToString());
}

TEST(ChronosTest, Fig2ReportsExactlyOneNoConflict) {
  CountingSink sink;
  CheckStats stats = Chronos::CheckHistory(Fig2History(), &sink);
  EXPECT_EQ(stats.violations, 1u);
  EXPECT_EQ(sink.count(ViolationType::kNoConflict), 1u);
  ASSERT_EQ(sink.first().size(), 1u);
  // Reported at the earlier committer's commit event: T5 conflicts T3.
  EXPECT_EQ(sink.first()[0].tid, 5u);
  EXPECT_EQ(sink.first()[0].other_tid, 3u);
  EXPECT_EQ(sink.first()[0].key, 2u);
}

// Paper Fig. 11: T1, T2 commit sequentially, then T3 reads T1's stale
// value. A timestamp-based checker must flag EXT; black-box checkers
// cannot (they infer order T1, T3, T2).
TEST(ChronosTest, Fig11StaleReadIsExtViolation) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).W(1, 1)
                  .Txn(2, 1, 0, 3, 4).W(1, 2)
                  .Txn(3, 2, 0, 5, 6).R(1, 1)
                  .Build();
  CountingSink sink;
  Chronos::CheckHistory(h, &sink);
  EXPECT_EQ(sink.count(ViolationType::kExt), 1u);
  EXPECT_EQ(sink.first()[0].expected, 2);
  EXPECT_EQ(sink.first()[0].got, 1);
}

TEST(ChronosTest, WriteSkewIsAllowedUnderSi) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 3).R(1, 0).W(2, 7)
                  .Txn(2, 1, 0, 2, 4).R(2, 0).W(1, 8)
                  .Build();
  CountingSink sink;
  CheckStats stats = Chronos::CheckHistory(h, &sink);
  EXPECT_EQ(stats.violations, 0u);
}

TEST(ChronosTest, LostUpdateIsNoConflictViolation) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 3).R(1, 0).W(1, 5)
                  .Txn(2, 1, 0, 2, 4).R(1, 0).W(1, 6)
                  .Build();
  CountingSink sink;
  Chronos::CheckHistory(h, &sink);
  EXPECT_EQ(sink.count(ViolationType::kNoConflict), 1u);
}

TEST(ChronosTest, InternalReadMismatchIsIntViolation) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).W(1, 5).R(1, 6)
                  .Build();
  CountingSink sink;
  Chronos::CheckHistory(h, &sink);
  EXPECT_EQ(sink.count(ViolationType::kInt), 1u);
  EXPECT_EQ(sink.count(ViolationType::kExt), 0u);
}

TEST(ChronosTest, ReadAfterReadIsInternalAndConsistent) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).R(1, 0).R(1, 0)
                  .Build();
  CountingSink sink;
  EXPECT_EQ(Chronos::CheckHistory(h, &sink).violations, 0u);
}

TEST(ChronosTest, SecondReadDisagreeingWithFirstIsInt) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).R(1, 0).R(1, 9)
                  .Build();
  CountingSink sink;
  Chronos::CheckHistory(h, &sink);
  EXPECT_EQ(sink.count(ViolationType::kInt), 1u);
}

TEST(ChronosTest, SessionGapIsSessionViolation) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).W(1, 1)
                  .Txn(2, 0, 2, 3, 4).W(1, 2)  // sno jumps 0 -> 2
                  .Build();
  CountingSink sink;
  Chronos::CheckHistory(h, &sink);
  EXPECT_EQ(sink.count(ViolationType::kSession), 1u);
}

TEST(ChronosTest, StartBeforePredecessorCommitIsSessionViolation) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 5).W(1, 1)
                  .Txn(2, 0, 1, 3, 6).R(1, 0)  // starts inside predecessor
                  .Build();
  CountingSink sink;
  Chronos::CheckHistory(h, &sink);
  EXPECT_GE(sink.count(ViolationType::kSession), 1u);
}

TEST(ChronosTest, StartAfterCommitIsTsOrderViolation) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 5, 2).W(1, 1)
                  .Build();
  CountingSink sink;
  Chronos::CheckHistory(h, &sink);
  EXPECT_EQ(sink.count(ViolationType::kTsOrder), 1u);
}

TEST(ChronosTest, MalformedTxnDoesNotPoisonSessionCheck) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).W(1, 1)
                  .Txn(2, 0, 1, 9, 4).W(1, 2)  // Eq.(1) violated, excluded
                  .Txn(3, 0, 2, 10, 11).R(1, 1)
                  .Build();
  CountingSink sink;
  Chronos::CheckHistory(h, &sink);
  EXPECT_EQ(sink.count(ViolationType::kTsOrder), 1u);
  EXPECT_EQ(sink.count(ViolationType::kSession), 0u);
}

TEST(ChronosTest, DuplicateTimestampsAreReported) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 3).W(1, 1)
                  .Txn(2, 1, 0, 3, 5).W(2, 1)  // start reuses 3
                  .Build();
  CountingSink sink;
  Chronos::CheckHistory(h, &sink);
  EXPECT_EQ(sink.count(ViolationType::kTsDuplicate), 1u);
}

TEST(ChronosTest, ReadOnlyTxnMayHaveEqualStartAndCommit) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).W(1, 4)
                  .Txn(2, 1, 0, 3, 3).R(1, 4)
                  .Build();
  CountingSink sink;
  EXPECT_EQ(Chronos::CheckHistory(h, &sink).violations, 0u);
}

TEST(ChronosTest, FrontierUsesLastWriteOfTxn) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).W(1, 5).W(1, 6)
                  .Txn(2, 1, 0, 3, 4).R(1, 6)
                  .Build();
  CountingSink sink;
  EXPECT_EQ(Chronos::CheckHistory(h, &sink).violations, 0u);
}

TEST(ChronosTest, SnapshotExcludesConcurrentCommit) {
  // Reader starts before writer commits: must see the old value.
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).W(1, 5)
                  .Txn(2, 1, 0, 3, 6).W(1, 7)
                  .Txn(3, 2, 0, 4, 5).R(1, 5)  // starts at 4 < commit 6
                  .Build();
  CountingSink sink;
  EXPECT_EQ(Chronos::CheckHistory(h, &sink).violations, 0u);
}

TEST(ChronosTest, ThreeWayOverlapReportsAllPairs) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 20).W(1, 1)
                  .Txn(2, 1, 0, 2, 10).W(1, 2)
                  .Txn(3, 2, 0, 3, 15).W(1, 3)
                  .Build();
  CountingSink sink;
  Chronos::CheckHistory(h, &sink);
  EXPECT_EQ(sink.count(ViolationType::kNoConflict), 3u);
}

TEST(ChronosTest, PeriodicGcPreservesVerdicts) {
  History h = Fig2History();
  CountingSink plain, gced;
  Chronos::CheckHistory(h, &plain);
  Chronos checker(ChronosOptions{.gc_every_n_txns = 1}, &gced);
  History copy = h;
  CheckStats stats = checker.Check(std::move(copy));
  EXPECT_EQ(gced.total(), plain.total());
  EXPECT_GE(stats.gc_passes, 1u);
}

TEST(ChronosTest, DuplicateTidAppliesEachTransactionsOwnWrites) {
  // Two overlapping transactions share tid 1. The first commits at 10
  // with only its own write, so tid 3's snapshot at 15 has key 2 still
  // at its initial value: an EXT, as AION reports for a replayed tid.
  const History h = HistoryBuilder()
                        .Txn(1, 0, 0, 1, 10).W(1, 5)
                        .Txn(1, 1, 0, 2, 20).W(2, 6)
                        .Txn(3, 2, 0, 15, 16).R(1, 5).R(2, 6)
                        .Build();
  const std::string path = testing::UniqueTempDir("dup_tid") + "/h.hist";
  ASSERT_TRUE(hist::SaveHistory(h, path).ok);
  VectorSink in_memory, streamed;
  Chronos::CheckHistory(h, &in_memory);
  hist::EventStream stream(path);
  Chronos(ChronosOptions{}, &streamed).Check(&stream);
  ASSERT_TRUE(stream.status().ok) << stream.status().message;
  CountingSink online;
  testing::RunAionToEnd(h.txns, IsolationLevel::kSi, &online);
  EXPECT_EQ(online.total(), 1u);
  EXPECT_EQ(online.count(ViolationType::kExt), 1u);
  for (VectorSink* sink : {&in_memory, &streamed}) {
    const std::vector<Violation> v = sink->TakeAll();
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].type, ViolationType::kExt);
    EXPECT_EQ(v[0].tid, 3u);
    EXPECT_EQ(v[0].key, 2u);
    EXPECT_EQ(v[0].expected, kValueInit);
    EXPECT_EQ(v[0].got, 6);
  }
}

TEST(ChronosSerTest, AcceptsSequentialHistory) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).W(1, 5)
                  .Txn(2, 1, 0, 3, 4).R(1, 5).W(2, 6)
                  .Txn(3, 0, 1, 5, 6).R(2, 6)
                  .Build();
  CountingSink sink;
  EXPECT_EQ(Chronos::CheckHistory(h, &sink, IsolationLevel::kSer).violations,
            0u);
}

TEST(ChronosSerTest, WriteSkewIsSerViolation) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 3).R(1, 0).W(2, 7)
                  .Txn(2, 1, 0, 2, 4).R(2, 0).W(1, 8)
                  .Build();
  CountingSink sink;
  Chronos::CheckHistory(h, &sink, IsolationLevel::kSer);
  // In commit order, T2's read of key 2 must see T1's write.
  EXPECT_EQ(sink.count(ViolationType::kExt), 1u);
}

TEST(ChronosSerTest, SessionOrderMustMatchCommitOrder) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 10).W(1, 1)
                  .Txn(2, 0, 1, 2, 5).W(2, 1)  // commits before predecessor
                  .Build();
  CountingSink sink;
  Chronos::CheckHistory(h, &sink, IsolationLevel::kSer);
  EXPECT_GE(sink.count(ViolationType::kSession), 1u);
}

TEST(ChronosSerTest, StartTimestampsIgnored) {
  // start > commit would be an Eq.(1) error under SI but SER ignores it.
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 9, 2).W(1, 1)
                  .Txn(2, 1, 0, 1, 4).R(1, 1)
                  .Build();
  CountingSink sink;
  EXPECT_EQ(Chronos::CheckHistory(h, &sink, IsolationLevel::kSer).violations,
            0u);
}

// Two SER transactions that share a commit_ts: a TS-DUP, reported and
// still replayed. Both read the frontier below the shared commit_ts (the
// exclusive SER read view), so T2 does not see T1's write, and the two
// writers of key 1 are no NOCONFLICT at SER. T3 sees the later writer in
// file order.
TEST(ChronosSerTest, SharedCommitTsReadsTheFrontierBelowIt) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 5).W(1, 1)
                  .Txn(2, 1, 0, 2, 5).R(1, 0).W(1, 2)
                  .Txn(3, 0, 1, 6, 7).R(1, 2)
                  .Build();
  CountingSink sink;
  Chronos::CheckHistory(h, &sink, IsolationLevel::kSer);
  EXPECT_EQ(sink.count(ViolationType::kTsDuplicate), 1u);
  EXPECT_EQ(sink.count(ViolationType::kNoConflict), 0u);
  EXPECT_EQ(sink.count(ViolationType::kExt), 0u);
  EXPECT_EQ(sink.total(), 1u);
}

// The pre-pass's timestamp registry against a hash set, the rule it
// replaced: a transaction is a TS-DUP when its start, or else its
// distinct commit, was claimed before; a duplicate start claims nothing.
// Claims in timestamp order, nearly so, reversed and shuffled, with
// collisions, reach every merge of the registry's two parts.
TEST(WellFormednessPrePassTest, DuplicatesMatchAHashSetInAnyOrder) {
  std::mt19937_64 rng(5);
  for (const char* order : {"sorted", "near", "reversed", "shuffled"}) {
    std::vector<std::pair<Timestamp, Timestamp>> spans;
    for (Timestamp ts = 1; spans.size() < 20000; ts += 1 + rng() % 3) {
      spans.push_back({ts, ts + rng() % 4});  // neighbours collide
    }
    const std::string o = order;
    if (o == "near") {
      for (size_t i = 0; i + 8 <= spans.size(); i += 8) {
        std::shuffle(spans.begin() + static_cast<std::ptrdiff_t>(i),
                     spans.begin() + static_cast<std::ptrdiff_t>(i + 8), rng);
      }
    } else if (o == "reversed") {
      std::reverse(spans.begin(), spans.end());
    } else if (o == "shuffled") {
      std::shuffle(spans.begin(), spans.end(), rng);
    }
    std::unordered_set<Timestamp> seen;
    std::vector<TxnId> want;
    History h;
    for (const auto& [start, commit] : spans) {
      Transaction t;
      t.tid = h.txns.size() + 1;
      t.start_ts = start;
      t.commit_ts = commit;
      if (!seen.insert(start).second ||
          (commit != start && !seen.insert(commit).second)) {
        want.push_back(t.tid);
      }
      h.txns.push_back(std::move(t));
    }
    VectorSink sink;
    CountingSink counted(0);
    std::unordered_map<SessionId, SessionState> sessions;
    WellFormednessPrePass(IsolationLevel::kSi, &sink, &counted, &sessions,
                          [](const Transaction&) {})
        .CheckAll(h);
    std::vector<TxnId> got;
    for (const Violation& v : sink.TakeAll()) {
      ASSERT_EQ(v.type, ViolationType::kTsDuplicate);
      got.push_back(v.tid);
    }
    EXPECT_GT(want.size(), 1000u) << order;
    EXPECT_EQ(got, want) << order;
  }
}

}  // namespace
}  // namespace chronos

// Tests for the Algorithm-1 database substrate: snapshot reads,
// first-committer-wins, SER read validation, oracles, and fault
// injection producing checker-detectable anomalies.
#include "db/database.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "core/chronos.h"
#include "db/oracle.h"

namespace chronos::db {
namespace {

TEST(OracleTest, CentralizedIsStrictlyIncreasing) {
  CentralizedOracle oracle;
  Timestamp prev = 0;
  for (int i = 0; i < 1000; ++i) {
    Timestamp ts = oracle.Next(0);
    EXPECT_GT(ts, prev);
    prev = ts;
  }
}

TEST(OracleTest, HlcIsUniqueAcrossNodes) {
  HlcOracle oracle(3, {0, 0, 0});
  std::set<Timestamp> seen;
  for (int i = 0; i < 3000; ++i) {
    EXPECT_TRUE(seen.insert(oracle.Next(i % 3)).second);
  }
}

TEST(OracleTest, HlcSkewProducesCrossNodeInversions) {
  HlcOracle oracle(2, {1000, -1000});
  Timestamp fast = oracle.Next(0);
  Timestamp slow = oracle.Next(1);
  EXPECT_GT(fast, slow) << "skewed node 0 runs ahead of node 1";
}

TEST(DatabaseTest, ReadsOwnBufferedWrites) {
  Database db(DbConfig{});
  auto txn = db.Begin(0);
  db.Write(txn.get(), 1, 42);
  EXPECT_EQ(db.Read(txn.get(), 1), 42);
}

TEST(DatabaseTest, SnapshotReadIgnoresLaterCommits) {
  Database db(DbConfig{});
  auto reader = db.Begin(0);
  auto writer = db.Begin(1);
  db.Write(writer.get(), 1, 7);
  ASSERT_EQ(db.Commit(std::move(writer)), Database::CommitResult::kCommitted);
  // Reader started before the writer committed: sees the initial value.
  EXPECT_EQ(db.Read(reader.get(), 1), kValueInit);
  auto late = db.Begin(1);
  EXPECT_EQ(db.Read(late.get(), 1), 7);
}

TEST(DatabaseTest, FirstCommitterWinsAbortsSecondWriter) {
  Database db(DbConfig{});
  auto t1 = db.Begin(0);
  auto t2 = db.Begin(1);
  db.Write(t1.get(), 1, 1);
  db.Write(t2.get(), 1, 2);
  EXPECT_EQ(db.Commit(std::move(t1)), Database::CommitResult::kCommitted);
  EXPECT_EQ(db.Commit(std::move(t2)), Database::CommitResult::kAborted);
  EXPECT_EQ(db.AbortedCount(), 1u);
}

TEST(DatabaseTest, SiAllowsWriteSkewSerForbidsIt) {
  {
    Database si(DbConfig{});
    auto t1 = si.Begin(0);
    auto t2 = si.Begin(1);
    si.Read(t1.get(), 1);
    si.Write(t1.get(), 2, 1);
    si.Read(t2.get(), 2);
    si.Write(t2.get(), 1, 1);
    EXPECT_EQ(si.Commit(std::move(t1)), Database::CommitResult::kCommitted);
    EXPECT_EQ(si.Commit(std::move(t2)), Database::CommitResult::kCommitted);
  }
  {
    DbConfig cfg;
    cfg.isolation = IsolationLevel::kSer;
    Database ser(cfg);
    auto t1 = ser.Begin(0);
    auto t2 = ser.Begin(1);
    ser.Read(t1.get(), 1);
    ser.Write(t1.get(), 2, 1);
    ser.Read(t2.get(), 2);
    ser.Write(t2.get(), 1, 1);
    EXPECT_EQ(ser.Commit(std::move(t1)), Database::CommitResult::kCommitted);
    EXPECT_EQ(ser.Commit(std::move(t2)), Database::CommitResult::kAborted)
        << "OCC read validation must abort the write-skew partner";
  }
}

TEST(DatabaseTest, ReadOnlyTxnCommitsAtStartTimestamp) {
  Database db(DbConfig{});
  auto t = db.Begin(0);
  db.Read(t.get(), 1);
  ASSERT_EQ(db.Commit(std::move(t)), Database::CommitResult::kCommitted);
  History h = db.ExportHistory();
  ASSERT_EQ(h.txns.size(), 1u);
  EXPECT_EQ(h.txns[0].start_ts, h.txns[0].commit_ts);
}

TEST(DatabaseTest, HistoryRecordsSessionSequence) {
  Database db(DbConfig{});
  for (int i = 0; i < 3; ++i) {
    auto t = db.Begin(7);
    db.Write(t.get(), 1, i);
    ASSERT_EQ(db.Commit(std::move(t)), Database::CommitResult::kCommitted);
  }
  History h = db.ExportHistory();
  ASSERT_EQ(h.txns.size(), 3u);
  for (uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(h.txns[i].sid, 7u);
    EXPECT_EQ(h.txns[i].sno, i);
  }
}

TEST(DatabaseTest, ListAppendAndSnapshotRead) {
  Database db(DbConfig{});
  auto t1 = db.Begin(0);
  db.Append(t1.get(), 5, 100);
  db.Append(t1.get(), 5, 101);
  ASSERT_EQ(db.Commit(std::move(t1)), Database::CommitResult::kCommitted);
  auto t2 = db.Begin(0);
  db.Append(t2.get(), 5, 102);
  std::vector<Value> observed = db.ReadList(t2.get(), 5);
  EXPECT_EQ(observed, (std::vector<Value>{100, 101, 102}));
}

TEST(DatabaseTest, ValidHistoryPassesChronos) {
  Database db(DbConfig{});
  std::vector<std::unique_ptr<Database::Txn>> open;
  for (SessionId s = 0; s < 4; ++s) open.push_back(db.Begin(s));
  for (int round = 0; round < 50; ++round) {
    for (SessionId s = 0; s < 4; ++s) {
      db.Read(open[s].get(), round % 10);
      db.Write(open[s].get(), (round + s) % 10,
               static_cast<Value>(round * 10 + s + 1));
    }
    for (SessionId s = 0; s < 4; ++s) {
      db.Commit(std::move(open[s]));
      open[s] = db.Begin(s);
    }
  }
  for (SessionId s = 0; s < 4; ++s) db.Commit(std::move(open[s]));
  CountingSink sink;
  Chronos::CheckHistory(db.ExportHistory(), &sink);
  EXPECT_EQ(sink.total(), 0u)
      << (sink.first().empty() ? "" : sink.first()[0].ToString());
}

TEST(DatabaseTest, ConcurrentSessionsProduceValidHistory) {
  Database db(DbConfig{});
  std::vector<std::thread> threads;
  for (SessionId s = 0; s < 8; ++s) {
    threads.emplace_back([&db, s] {
      for (int i = 0; i < 100; ++i) {
        auto t = db.Begin(s);
        db.Read(t.get(), i % 16);
        db.Write(t.get(), (i + s) % 16,
                 static_cast<Value>(s) * 100000 + i + 1);
        db.Commit(std::move(t));
      }
    });
  }
  for (auto& t : threads) t.join();
  CountingSink sink;
  Chronos::CheckHistory(db.ExportHistory(), &sink);
  EXPECT_EQ(sink.total(), 0u)
      << (sink.first().empty() ? "" : sink.first()[0].ToString());
}

class FaultDetectionTest : public ::testing::Test {
 protected:
  // Runs a contended workload with the given faults and returns the
  // checker counts. The database (and its fault log) lives in the
  // fixture so `log` stays valid.
  void RunWithFaults(const FaultConfig& faults, FaultLog const** log) {
    DbConfig cfg;
    cfg.faults = faults;
    db_ = std::make_unique<Database>(cfg);
    std::vector<std::unique_ptr<Database::Txn>> open;
    for (SessionId s = 0; s < 4; ++s) open.push_back(db_->Begin(s));
    Value v = 1;
    for (int round = 0; round < 100; ++round) {
      for (SessionId s = 0; s < 4; ++s) {
        db_->Read(open[s].get(), (round + s) % 5);
        db_->Write(open[s].get(), (round + 2 * s) % 5, v++);
      }
      for (SessionId s = 0; s < 4; ++s) {
        db_->Commit(std::move(open[s]));
        open[s] = db_->Begin(s);
      }
    }
    for (SessionId s = 0; s < 4; ++s) db_->Commit(std::move(open[s]));
    *log = &db_->fault_log();
    sink_.Reset();
    Chronos::CheckHistory(db_->ExportHistory(), &sink_);
  }

  std::unique_ptr<Database> db_;
  CountingSink sink_;
};

TEST_F(FaultDetectionTest, LostUpdatesYieldNoConflict) {
  FaultConfig f;
  f.lost_update_prob = 0.3;
  const FaultLog* log = nullptr;
  RunWithFaults(f, &log);
  ASSERT_GT(log->lost_updates.load(), 0u);
  EXPECT_GT(sink_.count(ViolationType::kNoConflict), 0u);
}

TEST_F(FaultDetectionTest, StaleReadsYieldExt) {
  FaultConfig f;
  f.stale_read_prob = 0.2;
  const FaultLog* log = nullptr;
  RunWithFaults(f, &log);
  ASSERT_GT(log->stale_reads.load(), 0u);
  EXPECT_GT(sink_.count(ViolationType::kExt), 0u);
}

TEST_F(FaultDetectionTest, ValueCorruptionYieldsReadAnomalies) {
  FaultConfig f;
  f.value_corruption_prob = 0.1;
  const FaultLog* log = nullptr;
  RunWithFaults(f, &log);
  ASSERT_GT(log->value_corruptions.load(), 0u);
  EXPECT_GT(sink_.count(ViolationType::kExt) + sink_.count(ViolationType::kInt),
            0u);
}

TEST_F(FaultDetectionTest, TsSwapYieldsTsOrder) {
  FaultConfig f;
  f.ts_swap_prob = 0.1;
  const FaultLog* log = nullptr;
  RunWithFaults(f, &log);
  ASSERT_GT(log->ts_swaps.load(), 0u);
  EXPECT_GT(sink_.count(ViolationType::kTsOrder), 0u);
}

TEST_F(FaultDetectionTest, SessionReorderYieldsSessionViolation) {
  FaultConfig f;
  f.session_reorder_prob = 0.1;
  const FaultLog* log = nullptr;
  RunWithFaults(f, &log);
  ASSERT_GT(log->session_reorders.load(), 0u);
  EXPECT_GT(sink_.count(ViolationType::kSession), 0u);
}

TEST_F(FaultDetectionTest, EarlyCommitRecordingYieldsViolations) {
  FaultConfig f;
  f.early_commit_prob = 0.2;
  const FaultLog* log = nullptr;
  RunWithFaults(f, &log);
  ASSERT_GT(log->early_commits.load(), 0u);
  EXPECT_GT(sink_.total(), 0u);
}

}  // namespace
}  // namespace chronos::db

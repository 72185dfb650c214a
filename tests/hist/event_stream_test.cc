// hist::EventStream, the offline CHRONOS replay streamed from a history
// file in two passes, against the in-memory Chronos::Check: the same
// reports in the same order, the same stats, a window that holds the
// event window rather than the file, and the inputs it does not stream.
#include "hist/event_stream.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "../testutil.h"
#include "core/chronos.h"
#include "db/database.h"
#include "fuzz/scenario.h"
#include "hist/codec.h"
#include "workload/generator.h"

namespace chronos::hist {
namespace {

std::string TempPath(const char* name) {
  return chronos::testing::UniqueTempDir("stream") + "/" + name;
}

struct CheckRun {
  std::vector<Violation> reports;
  CheckStats stats;
};

CheckRun InMemory(History h, uint64_t gc_every,
                  IsolationLevel mode = IsolationLevel::kSi) {
  ChronosOptions opt;
  opt.mode = mode;
  opt.gc_every_n_txns = gc_every;
  VectorSink sink;
  CheckRun run;
  run.stats = Chronos(opt, &sink).Check(std::move(h));
  run.reports = sink.TakeAll();
  return run;
}

CheckRun Streamed(const std::string& path, uint64_t gc_every,
                  EventStream* stream,
                  IsolationLevel mode = IsolationLevel::kSi) {
  ChronosOptions opt;
  opt.mode = mode;
  opt.gc_every_n_txns = gc_every;
  VectorSink sink;
  CheckRun run;
  run.stats = Chronos(opt, &sink).Check(stream);
  run.reports = sink.TakeAll();
  EXPECT_TRUE(stream->status().ok) << path << ": "
                                   << stream->status().message;
  return run;
}

// The file streamed through Chronos emits exactly what the in-memory
// check of the loaded history emits, in the same order.
void ExpectStreamMatchesMemory(const std::string& path, uint64_t gc_every,
                               const std::string& what,
                               IsolationLevel mode = IsolationLevel::kSi) {
  History loaded;
  ASSERT_TRUE(LoadHistory(path, &loaded).ok) << what;
  const CheckRun want = InMemory(std::move(loaded), gc_every, mode);
  EventStream stream(path);
  ASSERT_TRUE(stream.status().ok) << what;
  ASSERT_TRUE(stream.seekable()) << what;
  const CheckRun got = Streamed(path, gc_every, &stream, mode);
  ASSERT_FALSE(stream.tagged()) << what;
  EXPECT_EQ(got.reports, want.reports) << what;
  EXPECT_EQ(got.stats.txns, want.stats.txns) << what;
  EXPECT_EQ(got.stats.ops, want.stats.ops) << what;
  EXPECT_EQ(got.stats.violations, want.stats.violations) << what;
  EXPECT_EQ(got.stats.gc_passes, want.stats.gc_passes) << what;
}

// Moves transactions inside consecutive windows of `window` into a
// seeded random order: commit-order inversions at most a window deep.
History ShuffleInsideWindows(History h, size_t window, uint64_t seed) {
  std::mt19937_64 rng(seed);
  for (size_t i = 0; i < h.txns.size(); i += window) {
    const auto first = h.txns.begin() + static_cast<std::ptrdiff_t>(i);
    std::shuffle(first, first + static_cast<std::ptrdiff_t>(std::min(
                                    window, h.txns.size() - i)),
                 rng);
  }
  return h;
}

// A register history with every kind of report: engine and recording
// faults (EXT, INT, NOCONFLICT, SESSION, TS-ORDER with INT-only
// replays), plus duplicated start timestamps (TS-DUP).
History FaultyHistory(uint64_t txns, uint64_t seed) {
  workload::WorkloadParams p;
  p.sessions = 8;
  p.txns = txns;
  p.ops_per_txn = 6;
  p.keys = 40;
  p.seed = seed;
  db::DbConfig cfg;
  cfg.faults.lost_update_prob = 0.02;
  cfg.faults.stale_read_prob = 0.02;
  cfg.faults.value_corruption_prob = 0.02;
  cfg.faults.session_reorder_prob = 0.01;
  cfg.faults.ts_swap_prob = 0.02;
  cfg.faults.early_commit_prob = 0.01;
  cfg.fault_seed = seed;
  History h = workload::GenerateDefaultHistory(p, cfg);
  for (size_t i = 50; i < h.txns.size(); i += 97) {
    Transaction& t = h.txns[i];
    const Timestamp dup = h.txns[i - 1].start_ts;
    if (dup <= t.commit_ts) t.start_ts = dup;
  }
  return h;
}

bool HasEveryReportType(const History& h) {
  VectorSink sink;
  Chronos::CheckHistory(h, &sink);
  std::vector<bool> seen(6, false);
  for (const Violation& v : sink.TakeAll()) {
    seen[static_cast<size_t>(v.type)] = true;
  }
  return std::all_of(seen.begin(), seen.end(), [](bool b) { return b; });
}

TEST(EventStreamTest, StreamEmitsWhatTheInMemoryCheckEmits) {
  workload::WorkloadParams clean;
  clean.sessions = 8;
  clean.txns = 1500;
  clean.ops_per_txn = 6;
  const History faulty = FaultyHistory(1500, 7);
  ASSERT_TRUE(HasEveryReportType(faulty));
  const std::pair<const char*, History> histories[] = {
      {"clean", workload::GenerateDefaultHistory(clean)},
      {"faulty", faulty},
  };
  const std::string path = TempPath("replay.hist");
  for (const auto& [name, h] : histories) {
    for (size_t window : {1, 2, 9, 64}) {
      ASSERT_TRUE(
          SaveHistory(ShuffleInsideWindows(h, window, window), path).ok);
      for (uint64_t gc_every : {0, 7}) {
        ExpectStreamMatchesMemory(
            path, gc_every,
            name + (" window " + std::to_string(window) + " gc every " +
                    std::to_string(gc_every)));
      }
    }
  }
}

// The differential fuzzer's histories: HLC skew, every injected fault,
// list and register workloads, in commit order and, where the scenario
// reorders arrivals, in a session-preserving shuffle of the file.
TEST(EventStreamTest, FuzzScenarioHistoriesStreamLikeTheyLoad) {
  const std::string path = TempPath("fuzz.hist");
  int streamed = 0;
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    const fuzz::FuzzScenario sc = fuzz::ScenarioFromSeed(seed);
    db::Database database(sc.db);
    workload::RunDefaultWorkload(&database, sc.wl);
    History h = database.ExportHistory();
    if (sc.shuffle_seed != 0) {
      h.txns = chronos::testing::SessionPreservingShuffle(h, sc.shuffle_seed);
    }
    ASSERT_TRUE(SaveHistory(h, path).ok);
    for (uint64_t gc_every : {uint64_t{0}, uint64_t{sc.gc_every}}) {
      ExpectStreamMatchesMemory(path, gc_every, sc.Describe());
    }
    ++streamed;
  }
  EXPECT_EQ(streamed, 150);
}

TEST(EventStreamTest, CorpusFilesStreamLikeTheyLoad) {
  int streamed = 0, tagged = 0, lists = 0;
  size_t list_reports = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           CHRONOS_TEST_SRCDIR "/tests/corpus")) {
    if (entry.path().extension() != ".repro") continue;
    const std::string path = entry.path().string();
    History h;
    ASSERT_TRUE(LoadHistory(path, &h).ok) << path;
    if (HistoryHasLevelTags(h)) {
      // Not Chronos's: the check stops at the first tag, reporting
      // nothing that reaches a verdict, and Load still reads it all.
      EventStream stream(path);
      VectorSink sink;
      Chronos(ChronosOptions{}, &sink).Check(&stream);
      EXPECT_TRUE(stream.tagged()) << path;
      History again;
      ASSERT_TRUE(stream.Load(&again).ok) << path;
      EXPECT_EQ(again.txns.size(), h.txns.size()) << path;
      ++tagged;
      continue;
    }
    for (IsolationLevel mode : {IsolationLevel::kSi, IsolationLevel::kSer}) {
      for (uint64_t gc_every : {0, 1}) {
        ExpectStreamMatchesMemory(
            path, gc_every,
            path + (mode == IsolationLevel::kSer ? " at ser" : " at si"), mode);
      }
    }
    ++streamed;
    if (HistoryHasListOps(h)) {
      ++lists;
      list_reports += InMemory(std::move(h), 0).reports.size();
    }
  }
  EXPECT_GE(streamed, 14);
  EXPECT_GE(tagged, 3);
  // The list files are checked, not skipped: list_stale_read's EXT and
  // list_int_divergence's INT are their only reports.
  EXPECT_GE(lists, 5);
  EXPECT_EQ(list_reports, 2u);
}

// Once the third block is read, A's commit at ts 10 sits exactly at
// M - D - L = 14 - 1 - 3, and B, read after it, starts at 10: B's start
// (a start sorts first) must still replay before A's commit, so B reads
// the initial value rather than A's write. The shared ts is a TS-DUP,
// reported and replayed like any other.
TEST(EventStreamTest, AnEventAtTheWindowEdgeWaitsForLaterBlocks) {
  const History h = chronos::testing::HistoryBuilder()
                        .Txn(1, 0, 0, 8, 10).W(1, 5)    // A
                        .Txn(2, 1, 0, 12, 14).W(2, 7)   // C
                        .Txn(3, 2, 0, 10, 13).R(1, 0)   // B
                        .Build();
  const std::string path = TempPath("edge.hist");
  ASSERT_TRUE(SaveHistory(h, path).ok);
  ExpectStreamMatchesMemory(path, 0, "edge");
  EventStream stream(path);
  const CheckRun run = Streamed(path, 0, &stream);
  EXPECT_EQ(stream.commit_lag(), 1u);
  EXPECT_EQ(stream.txn_span(), 3u);
  ASSERT_EQ(run.reports.size(), 1u);
  EXPECT_EQ(run.reports[0].type, ViolationType::kTsDuplicate);
}

// The reader stops at the footer, so neither pass reads what follows it.
TEST(EventStreamTest, BlocksAfterTheFooterAreNotRead) {
  const History h = FaultyHistory(300, 5);
  const std::string path = TempPath("trailing.hist");
  ASSERT_TRUE(SaveHistory(h, path).ok);
  const Transaction& first = h.txns.front();
  std::ofstream(path, std::ios::binary | std::ios::app)
      << "T 999 0 0 " << first.start_ts << " " << first.commit_ts + 1
      << " 1\nR 1 12345\n";
  ExpectStreamMatchesMemory(path, 0, "trailing block");
}

TEST(EventStreamTest, HoldsTheEventWindowNotTheFile) {
  workload::WorkloadParams p;
  p.sessions = 16;
  p.txns = 20000;
  p.ops_per_txn = 2;
  const std::string path = TempPath("bounded.hist");
  ASSERT_TRUE(SaveHistory(workload::GenerateDefaultHistory(p), path).ok);
  EventStream stream(path);
  const CheckRun run = Streamed(path, 0, &stream);
  EXPECT_EQ(run.stats.txns, p.txns);
  // The window spans the D + L ts units behind the newest commit, a
  // few transactions per open session, not a share of the file.
  EXPECT_GT(stream.max_held(), 0u);
  EXPECT_LT(stream.max_held(), p.txns / 100) << "D " << stream.commit_lag()
                                             << " L " << stream.txn_span();
}

TEST(EventStreamTest, LongSpanTxnWidensTheWindowNotTheVerdict) {
  History h = FaultyHistory(3000, 11);
  const std::string path = TempPath("span.hist");
  ASSERT_TRUE(SaveHistory(h, path).ok);
  EventStream narrow(path);
  Streamed(path, 0, &narrow);
  // One transaction near the end started before almost every other one:
  // its start event sorts near the front of the replay.
  Transaction& t = h.txns[h.txns.size() - 10];
  ASSERT_TRUE(t.TimestampsOrdered());
  t.start_ts = h.txns[3].commit_ts + 1;
  ASSERT_TRUE(SaveHistory(h, path).ok);
  ExpectStreamMatchesMemory(path, 0, "long span");
  ExpectStreamMatchesMemory(path, 5, "long span, gc");
  EventStream wide(path);
  Streamed(path, 0, &wide);
  EXPECT_EQ(wide.txn_span(), t.commit_ts - t.start_ts);
  EXPECT_GT(wide.txn_span(), narrow.txn_span());
  EXPECT_GT(wide.max_held(), 10 * narrow.max_held());
}

TEST(EventStreamTest, PipeInputIsLoadedWhole) {
  const History h = FaultyHistory(800, 3);
  const std::string path = TempPath("piped.hist");
  ASSERT_TRUE(SaveHistory(h, path).ok);
  std::ifstream in(path, std::ios::binary);
  const std::string bytes(std::istreambuf_iterator<char>(in), {});
  const std::string fifo = TempPath("pipe");
  ASSERT_EQ(mkfifo(fifo.c_str(), 0600), 0);
  // The writer blocks in open until the stream opens the read side.
  std::thread writer([&fifo, &bytes] {
    std::ofstream(fifo, std::ios::binary) << bytes;
  });
  EventStream stream(fifo);
  ASSERT_TRUE(stream.status().ok) << stream.status().message;
  EXPECT_FALSE(stream.seekable());
  History loaded;
  const CodecStatus st = stream.Load(&loaded);
  writer.join();
  ASSERT_TRUE(st.ok) << st.message;
  const CheckRun piped = InMemory(std::move(loaded), 0);
  const CheckRun direct = InMemory(h, 0);
  EXPECT_EQ(piped.reports, direct.reports);
}

// Rewrites `path` in place, same length, between the passes: one
// transaction's timestamps move far below its neighbours'.
TEST(EventStreamTest, InputChangedBetweenThePassesStopsWithAnError) {
  // Five-digit timestamps, so an edit keeps every line's length.
  History h;
  h.num_sessions = 1;
  for (uint64_t i = 0; i < 6000; ++i) {
    Transaction t;
    t.tid = i + 1;
    t.sno = i;
    t.start_ts = 10000 + 2 * i;
    t.commit_ts = t.start_ts + 1;
    t.ops.push_back({OpType::kWrite, i % 13, static_cast<Value>(i)});
    h.txns.push_back(std::move(t));
  }
  const std::string path = TempPath("changed.hist");
  ASSERT_TRUE(SaveHistory(h, path).ok);
  const Transaction& late = h.txns[5900];
  std::string from = "T " + std::to_string(late.tid) + " 0 " +
                     std::to_string(late.sno) + " " +
                     std::to_string(late.start_ts) + " " +
                     std::to_string(late.commit_ts) + " ";
  std::string to = "T " + std::to_string(late.tid) + " 0 " +
                   std::to_string(late.sno) + " 10100 10101 ";
  ASSERT_EQ(from.size(), to.size());
  std::ifstream in(path, std::ios::binary);
  const std::string bytes(std::istreambuf_iterator<char>(in), {});
  const size_t at = bytes.find(from);
  ASSERT_NE(at, std::string::npos);
  ASSERT_GT(at, size_t{1} << 17);  // past what Open buffered

  EventStream stream(path);
  VectorSink sink;
  struct Editing : ReplaySource {
    EventStream* inner;
    std::string path, to;
    size_t at;
    bool PrePass(WellFormednessPrePass* pre, CheckStats* stats) override {
      if (!inner->PrePass(pre, stats)) return false;
      std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
      f.seekp(static_cast<std::streamoff>(at));
      f.write(to.data(), static_cast<std::streamsize>(to.size()));
      return true;
    }
    bool Next(EventKind* kind, Transaction** t) override {
      return inner->Next(kind, t);
    }
  } editing;
  editing.inner = &stream;
  editing.path = path;
  editing.to = to;
  editing.at = at;
  Chronos(ChronosOptions{}, &sink).Check(&editing);
  ASSERT_FALSE(stream.status().ok);
  EXPECT_NE(stream.status().message.find("input changed while streaming"),
            std::string::npos)
      << stream.status().message;
}

}  // namespace
}  // namespace chronos::hist

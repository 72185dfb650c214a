// History codec round-trips and failure handling; collector delivery
// schedules (batching, delays, session-order preservation).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <unordered_map>
#include <utility>

#include "../testutil.h"
#include "hist/codec.h"
#include "hist/collector.h"
#include "workload/generator.h"

namespace chronos::hist {
namespace {

std::string TempPath(const char* name) {
  return chronos::testing::UniqueTempDir("hist") + "/" + name;
}

TEST(CodecTest, RoundTripsRegisterHistory) {
  workload::WorkloadParams p;
  p.sessions = 4;
  p.txns = 200;
  p.ops_per_txn = 6;
  History h = workload::GenerateDefaultHistory(p);
  std::string path = TempPath("rt.hist");
  ASSERT_TRUE(SaveHistory(h, path).ok);
  History loaded;
  CodecStatus st = LoadHistory(path, &loaded);
  ASSERT_TRUE(st.ok) << st.message;
  ASSERT_EQ(loaded.txns.size(), h.txns.size());
  EXPECT_EQ(loaded.num_sessions, h.num_sessions);
  for (size_t i = 0; i < h.txns.size(); ++i) {
    EXPECT_EQ(loaded.txns[i].tid, h.txns[i].tid);
    EXPECT_EQ(loaded.txns[i].start_ts, h.txns[i].start_ts);
    EXPECT_EQ(loaded.txns[i].commit_ts, h.txns[i].commit_ts);
    ASSERT_EQ(loaded.txns[i].ops.size(), h.txns[i].ops.size());
    for (size_t j = 0; j < h.txns[i].ops.size(); ++j) {
      EXPECT_EQ(loaded.txns[i].ops[j].type, h.txns[i].ops[j].type);
      EXPECT_EQ(loaded.txns[i].ops[j].key, h.txns[i].ops[j].key);
      EXPECT_EQ(loaded.txns[i].ops[j].value, h.txns[i].ops[j].value);
    }
  }
  std::filesystem::remove(path);
}

TEST(CodecTest, RoundTripsListHistory) {
  workload::WorkloadParams p;
  p.sessions = 4;
  p.txns = 100;
  p.ops_per_txn = 5;
  p.list_mode = true;
  History h = workload::GenerateDefaultHistory(p);
  std::string path = TempPath("rt_list.hist");
  ASSERT_TRUE(SaveHistory(h, path).ok);
  History loaded;
  ASSERT_TRUE(LoadHistory(path, &loaded).ok);
  ASSERT_EQ(loaded.txns.size(), h.txns.size());
  for (size_t i = 0; i < h.txns.size(); ++i) {
    ASSERT_EQ(loaded.txns[i].list_args.size(), h.txns[i].list_args.size());
    for (size_t j = 0; j < h.txns[i].list_args.size(); ++j) {
      EXPECT_EQ(loaded.txns[i].list_args[j], h.txns[i].list_args[j]);
    }
  }
  std::filesystem::remove(path);
}

TEST(CodecTest, MissingFileFails) {
  History h;
  EXPECT_FALSE(LoadHistory("/nonexistent/nowhere.hist", &h).ok);
}

TEST(CodecTest, TruncatedFileFails) {
  std::string path = TempPath("trunc.hist");
  FILE* f = fopen(path.c_str(), "w");
  fprintf(f, "chronos-history v1 sessions=2 txns=5\nT 1 0 0 1 2 3\nR 1 0\n");
  fclose(f);
  History h;
  CodecStatus st = LoadHistory(path, &h);
  EXPECT_FALSE(st.ok);
  std::filesystem::remove(path);
}

TEST(CodecTest, BadHeaderFails) {
  std::string path = TempPath("badhdr.hist");
  FILE* f = fopen(path.c_str(), "w");
  fprintf(f, "not-a-history\n");
  fclose(f);
  History h;
  EXPECT_FALSE(LoadHistory(path, &h).ok);
  std::filesystem::remove(path);
}

TEST(CodecTest, MissingEndFooterFails) {
  // A header-complete file whose txn count matches but that lacks the
  // `# end txns=<m>` footer is indistinguishable from a file truncated
  // at a transaction boundary — it must be rejected.
  std::string path = TempPath("nofooter.hist");
  FILE* f = fopen(path.c_str(), "w");
  fprintf(f, "chronos-history v1 sessions=1 txns=1\nT 1 0 0 1 2 1\nR 1 0\n");
  fclose(f);
  History h;
  CodecStatus st = LoadHistory(path, &h);
  EXPECT_FALSE(st.ok);
  std::filesystem::remove(path);
}

TEST(CodecTest, FooterCountMismatchFails) {
  std::string path = TempPath("badcount.hist");
  FILE* f = fopen(path.c_str(), "w");
  fprintf(f,
          "chronos-history v1 sessions=1 txns=1\nT 1 0 0 1 2 1\nR 1 0\n"
          "# end txns=2\n");
  fclose(f);
  History h;
  EXPECT_FALSE(LoadHistory(path, &h).ok);
  std::filesystem::remove(path);
}

TEST(CodecTest, SaveIsAtomicAndFooterTerminated) {
  workload::WorkloadParams p;
  p.sessions = 2;
  p.txns = 20;
  p.ops_per_txn = 4;
  History h = workload::GenerateDefaultHistory(p);
  std::string path = TempPath("atomic.hist");
  ASSERT_TRUE(SaveHistory(h, path).ok);
  // The temp file used for the atomic rename must be gone.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  // The last line is the footer with the exact transaction count.
  FILE* f = fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char line[128];
  std::string last;
  while (fgets(line, sizeof(line), f) != nullptr) last = line;
  fclose(f);
  EXPECT_EQ(last, "# end txns=20\n");
  History loaded;
  EXPECT_TRUE(LoadHistory(path, &loaded).ok);
  std::filesystem::remove(path);
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

// The codec's text for every transaction of `h`: compares every field,
// list arguments and levels included.
std::string Blocks(const History& h) {
  std::string out;
  for (const Transaction& t : h.txns) AppendTxnBlock(t, &out);
  return out;
}

// One transaction of every shape the grammar has: R/W/A/L ops, negative
// values, an empty list read, no ops at all, and every iso= tag.
History AllShapes() {
  return chronos::testing::HistoryBuilder()
      .Txn(1, 0, 0, 1, 2).W(1, -7).R(2, 0)
      .Txn(2, 1, 0, 3, 5).Iso(IsolationLevel::kRc).A(3, -1).L(3, {})
      .L(3, {-1, 4})
      .Txn(3, 1, 1, 6, 7).Iso(IsolationLevel::kSer)
      .Txn(4, 0, 1, 8, 9).Iso(IsolationLevel::kSi).R(1, -7)
      .Txn(5, 0, 2, 10, 11).Iso(IsolationLevel::kRa).W(2, 9)
      .Build();
}

constexpr char kAllShapesText[] =
    "chronos-history v1 sessions=2 txns=5\n"
    "T 1 0 0 1 2 2\n"
    "W 1 -7\n"
    "R 2 0\n"
    "T 2 1 0 3 5 3 iso=rc\n"
    "A 3 -1\n"
    "L 3 0\n"
    "L 3 2 -1 4\n"
    "T 3 1 1 6 7 0 iso=ser\n"
    "T 4 0 1 8 9 1 iso=si\n"
    "R 1 -7\n"
    "T 5 0 2 10 11 1 iso=ra\n"
    "W 2 9\n"
    "# end txns=5\n";

TEST(CodecTest, SaveWritesPinnedBytes) {
  // History files and WAL records share this writer: its bytes are what
  // corpus files, e2ebench pins and durable directories depend on.
  const std::string path = TempPath("golden.hist");
  ASSERT_TRUE(SaveHistory(AllShapes(), path).ok);
  EXPECT_EQ(Slurp(path), kAllShapesText);
  History loaded;
  CodecStatus st = LoadHistory(path, &loaded);
  ASSERT_TRUE(st.ok) << st.message;
  EXPECT_EQ(loaded.num_sessions, 2u);
  EXPECT_EQ(Blocks(loaded), Blocks(AllShapes()));
}

TEST(CodecTest, CorpusFilesResaveByteIdentically) {
  const std::string path = TempPath("resave.hist");
  size_t files = 0;
  for (const auto& e : std::filesystem::directory_iterator(
           CHRONOS_TEST_SRCDIR "/tests/corpus")) {
    if (e.path().extension() != ".repro") continue;
    ++files;
    History h;
    CodecStatus st = LoadHistory(e.path().string(), &h);
    ASSERT_TRUE(st.ok) << e.path() << ": " << st.message;
    ASSERT_TRUE(SaveHistory(h, path).ok);
    EXPECT_EQ(Slurp(path), Slurp(e.path().string())) << e.path();
  }
  EXPECT_GT(files, 0u);
}

TEST(CodecTest, HugeCountsAreErrorsNotAllocations) {
  // Each count is far beyond what the file holds (the last two beyond
  // any vector's max_size): the load must fail cleanly, allocating
  // only what the file's bytes justify.
  const char* files[] = {
      "chronos-history v1 sessions=1 txns=99999999999999999\n"
      "T 1 0 0 1 2 1\nW 1 1\n# end txns=1\n",
      "chronos-history v1 sessions=1 txns=1\n"
      "T 1 0 0 1 2 4611686018427387904\nW 1 1\n# end txns=1\n",
      "chronos-history v1 sessions=1 txns=1\n"
      "T 1 0 0 1 2 1\nL 1 4611686018427387904 5\n# end txns=1\n",
      "chronos-history v1 sessions=1 txns=1\n"
      "T 1 0 0 1 2 1\nL 1 3 5\n# end txns=1\n",
  };
  const std::string path = TempPath("huge.hist");
  for (const char* bytes : files) {
    WriteBytes(path, bytes);
    History h;
    EXPECT_FALSE(LoadHistory(path, &h).ok) << bytes;
  }
}

TEST(CodecTest, CorruptionAtEveryByteIsSafe) {
  // No checksum guards a history file, so a replaced byte may still
  // parse; whatever loads must be a history the codec can write back.
  // Every truncation fails: each line must end in '\n' and the footer
  // is mandatory.
  const std::string good = kAllShapesText;
  const std::string path = TempPath("sweep.hist");
  const std::string resaved = TempPath("sweep_resave.hist");
  for (size_t i = 0; i < good.size(); ++i) {
    for (char c : {'9', ' ', '\n', static_cast<char>(good[i] ^ 0x40)}) {
      std::string bad = good;
      bad[i] = c;
      WriteBytes(path, bad);
      History h;
      if (!LoadHistory(path, &h).ok) continue;
      ASSERT_TRUE(SaveHistory(h, resaved).ok);
      History again;
      ASSERT_TRUE(LoadHistory(resaved, &again).ok) << "byte " << i;
      EXPECT_EQ(Blocks(again), Blocks(h)) << "byte " << i;
    }
  }
  for (size_t len = 0; len < good.size(); ++len) {
    WriteBytes(path, good.substr(0, len));
    History h;
    EXPECT_FALSE(LoadHistory(path, &h).ok) << "len " << len;
  }
}

TEST(CollectorTest, PreservesSessionOrder) {
  workload::WorkloadParams p;
  p.sessions = 8;
  p.txns = 2000;
  p.ops_per_txn = 4;
  History h = workload::GenerateDefaultHistory(p);
  CollectorParams cp;
  cp.delay_mean_ms = 100;
  cp.delay_stddev_ms = 40;
  auto stream = ScheduleDelivery(h, cp);
  ASSERT_EQ(stream.size(), h.txns.size());
  std::unordered_map<SessionId, uint64_t> last_sno;
  for (const auto& ct : stream) {
    auto it = last_sno.find(ct.txn.sid);
    if (it != last_sno.end()) {
      EXPECT_GT(ct.txn.sno, it->second)
          << "session order broken at sid=" << ct.txn.sid;
    }
    last_sno[ct.txn.sid] = ct.txn.sno;
  }
}

TEST(CollectorTest, DeliveryTimesAreSorted) {
  workload::WorkloadParams p;
  p.sessions = 4;
  p.txns = 600;
  History h = workload::GenerateDefaultHistory(p);
  CollectorParams cp;
  cp.delay_mean_ms = 50;
  cp.delay_stddev_ms = 20;
  auto stream = ScheduleDelivery(h, cp);
  for (size_t i = 1; i < stream.size(); ++i) {
    EXPECT_LE(stream[i - 1].deliver_at_ms, stream[i].deliver_at_ms);
  }
}

TEST(CollectorTest, DelaysReorderCommitOrder) {
  workload::WorkloadParams p;
  p.sessions = 16;
  p.txns = 2000;
  History h = workload::GenerateDefaultHistory(p);
  CollectorParams cp;
  cp.delay_mean_ms = 100;
  cp.delay_stddev_ms = 30;
  auto stream = ScheduleDelivery(h, cp);
  size_t inversions = 0;
  for (size_t i = 1; i < stream.size(); ++i) {
    if (stream[i].txn.commit_ts < stream[i - 1].txn.commit_ts) ++inversions;
  }
  EXPECT_GT(inversions, 0u) << "asynchrony must reorder arrivals";
}

TEST(CollectorTest, ZeroDelayKeepsCommitOrder) {
  workload::WorkloadParams p;
  p.sessions = 4;
  p.txns = 300;
  History h = workload::GenerateDefaultHistory(p);
  auto stream = ScheduleDelivery(h, CollectorParams{});
  for (size_t i = 1; i < stream.size(); ++i) {
    EXPECT_LE(stream[i - 1].txn.commit_ts, stream[i].txn.commit_ts);
  }
}

TEST(CollectorTest, MovedHistoryGivesTheSameStreamAsACopiedOne) {
  // A list history, so list_args travel too; delays reorder arrivals.
  workload::WorkloadParams p;
  p.sessions = 8;
  p.txns = 400;
  p.ops_per_txn = 6;
  p.list_mode = true;
  History h = workload::GenerateDefaultHistory(p);
  CollectorParams cp;
  cp.delay_mean_ms = 20;
  cp.delay_stddev_ms = 10;
  const auto copied = ScheduleDelivery(h, cp);
  const size_t n = h.txns.size();
  const auto moved = ScheduleDelivery(std::move(h), cp);
  ASSERT_EQ(moved.size(), n);
  ASSERT_EQ(copied.size(), n);
  size_t list_reads = 0;
  for (size_t i = 0; i < n; ++i) {
    const Transaction& a = copied[i].txn;
    const Transaction& b = moved[i].txn;
    EXPECT_EQ(a.tid, b.tid) << "at " << i;
    EXPECT_EQ(copied[i].deliver_at_ms, moved[i].deliver_at_ms) << "at " << i;
    ASSERT_EQ(a.ops.size(), b.ops.size()) << "at " << i;
    for (size_t j = 0; j < a.ops.size(); ++j) {
      EXPECT_EQ(a.ops[j].type, b.ops[j].type);
      EXPECT_EQ(a.ops[j].key, b.ops[j].key);
      EXPECT_EQ(a.ops[j].value, b.ops[j].value);
      EXPECT_EQ(a.ops[j].list_index, b.ops[j].list_index);
    }
    EXPECT_EQ(a.list_args, b.list_args) << "at " << i;
    list_reads += a.list_args.size();
  }
  EXPECT_GT(list_reads, 0u) << "the stream must carry list reads";
}

}  // namespace
}  // namespace chronos::hist

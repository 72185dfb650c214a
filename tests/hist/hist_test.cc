// History codec round-trips and failure handling; the reader's scanner
// against the strict line parsers, and every reader against a
// line-by-line reference loader under seeded mutations; collector
// delivery schedules (batching, delays, session-order preservation); the
// pull reader and the streamed schedule against the in-memory ones; and
// chronos_check's handling of input errors met mid-stream and of the
// inputs its offline check loads instead of streaming.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/wait.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "../testutil.h"
#include "hist/codec.h"
#include "core/chronos.h"
#include "core/event_timeline.h"
#include "core/session_order.h"
#include "core/violation.h"
#include "hist/collector.h"
#include "hist/event_stream.h"
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

// LoadHistory's loop, written out over the reader.
CodecStatus ReadAll(const std::string& path, History* out) {
  HistoryReader reader;
  out->txns.clear();
  if (!reader.Open(path).ok) return reader.status();
  out->num_sessions = reader.num_sessions();
  Transaction t;
  while (reader.Next(&t)) out->txns.push_back(std::move(t));
  return reader.status();
}

// Each arrival as text: its delivery time, then its codec block, which
// carries tid, ops, list arguments and the iso= tag.
std::vector<std::string> AsText(const std::vector<CollectedTxn>& arrivals) {
  std::vector<std::string> out;
  for (const CollectedTxn& ct : arrivals) {
    std::string line = std::to_string(ct.deliver_at_ms) + " ";
    AppendTxnBlock(ct.txn, &line);
    out.push_back(std::move(line));
  }
  return out;
}

std::vector<CollectedTxn> Drain(DeliveryStream* stream) {
  std::vector<CollectedTxn> out;
  CollectedTxn ct;
  while (stream->Next(&ct)) out.push_back(std::move(ct));
  return out;
}

// The schedule as two stable sorts over the whole history, which is how
// ScheduleDelivery computed it before it drained a DeliveryStream: the
// reference the stream's release rules must reproduce.
std::vector<CollectedTxn> ReferenceSchedule(const History& history,
                                            const CollectorParams& params) {
  std::vector<size_t> order(history.txns.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return history.txns[a].commit_ts < history.txns[b].commit_ts;
  });
  std::mt19937_64 rng(params.seed);
  std::normal_distribution<double> delay(
      params.delay_mean_ms,
      params.delay_stddev_ms > 0 ? params.delay_stddev_ms : 1);
  const uint64_t batch = std::max<uint32_t>(params.batch_size, 1);
  std::unordered_map<SessionId, uint64_t> session_floor;
  std::vector<CollectedTxn> out;
  for (size_t i = 0; i < order.size(); ++i) {
    const Transaction& t = history.txns[order[i]];
    const double d = std::max(
        0.0, params.delay_stddev_ms > 0 ? delay(rng) : params.delay_mean_ms);
    uint64_t at = i / batch * params.batch_interval_ms +
                  static_cast<uint64_t>(d);
    uint64_t& floor = session_floor[t.sid];
    at = std::max(at, floor);
    floor = at;
    out.push_back({t, at});
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const CollectedTxn& a, const CollectedTxn& b) {
                     return a.deliver_at_ms < b.deliver_at_ms;
                   });
  return out;
}

// A file's history as streamed, next to the schedule of the history
// LoadHistory gives: the statuses must match and, when the file loads,
// so must the arrivals, and both must equal the reference schedule.
void ExpectStreamMatchesLoad(const std::string& path,
                             const CollectorParams& cp,
                             const std::string& what) {
  History loaded;
  const CodecStatus load = LoadHistory(path, &loaded);
  DeliveryStream stream(path, cp);
  const std::vector<CollectedTxn> streamed = Drain(&stream);
  ASSERT_EQ(stream.status().ok, load.ok) << what << ": " << load.message;
  EXPECT_EQ(stream.status().message, load.message) << what;
  if (!load.ok) return;
  const std::vector<std::string> reference =
      AsText(ReferenceSchedule(loaded, cp));
  EXPECT_EQ(AsText(streamed), reference) << what;
  EXPECT_EQ(AsText(ScheduleDelivery(std::move(loaded), cp)), reference)
      << what;
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

// The block encoder as it was before it sized its buffer once: one
// string append per field. AppendTxnBlock must write the same bytes.
template <typename Int>
void ReferenceField(std::string* out, Int v) {
  char buf[24];
  out->push_back(' ');
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

void ReferenceTxnBlock(const Transaction& t, std::string* out) {
  static constexpr std::string_view kTags = "RWAL";
  out->push_back('T');
  for (uint64_t v : {t.tid, uint64_t{t.sid}, t.sno, t.start_ts, t.commit_ts,
                     uint64_t{t.ops.size()}}) {
    ReferenceField(out, v);
  }
  if (t.iso != IsolationLevel::kUnspecified) {
    out->append(" iso=").append(IsolationLevelName(t.iso));
  }
  out->push_back('\n');
  for (const Op& op : t.ops) {
    out->push_back(kTags[static_cast<size_t>(op.type)]);
    ReferenceField(out, op.key);
    if (op.type == OpType::kReadList) {
      const std::vector<Value>& elems = t.list_args[op.list_index];
      ReferenceField(out, elems.size());
      for (Value e : elems) ReferenceField(out, e);
    } else {
      ReferenceField(out, op.value);
    }
    out->push_back('\n');
  }
}

// Every transaction of `h` through both encoders, appended after a
// prefix (as SaveHistory and the WAL append), and inside its bound.
void ExpectEncodersAgree(const History& h, const std::string& what) {
  std::string got = "prefix\n", want = got;
  for (const Transaction& t : h.txns) {
    const size_t before = got.size();
    AppendTxnBlock(t, &got);
    ReferenceTxnBlock(t, &want);
    ASSERT_EQ(got, want) << what << ": tid " << t.tid;
    EXPECT_LE(got.size() - before, TxnBlockBound(t)) << what;
  }
}

TEST(CodecTest, AppendTxnBlockMatchesTheFieldByFieldEncoder) {
  workload::WorkloadParams reg;
  reg.sessions = 8;
  reg.txns = 1000;
  reg.ops_per_txn = 8;
  workload::WorkloadParams list = reg;
  list.txns = 300;
  list.list_mode = true;
  workload::WorkloadParams mixed = reg;
  mixed.mix = {40, 20, 20, 20};
  db::DbConfig faulty;
  faulty.faults.lost_update_prob = 0.05;
  faulty.faults.ts_swap_prob = 0.05;
  faulty.fault_seed = 3;
  ExpectEncodersAgree(workload::GenerateDefaultHistory(reg, faulty),
                      "register");
  ExpectEncodersAgree(workload::GenerateDefaultHistory(list, faulty), "list");
  ExpectEncodersAgree(workload::GenerateDefaultHistory(mixed, faulty),
                      "mixed");
  ExpectEncodersAgree(AllShapes(), "all shapes");

  // Extreme fields: every one at its widest, and the empty shapes.
  constexpr Value kMin = std::numeric_limits<Value>::min();
  constexpr Value kMax = std::numeric_limits<Value>::max();
  constexpr Key kMaxKey = std::numeric_limits<Key>::max();
  constexpr uint64_t kMaxU64 = std::numeric_limits<uint64_t>::max();
  chronos::testing::HistoryBuilder b;
  b.Txn(kMaxU64, std::numeric_limits<SessionId>::max(), kMaxU64, kMaxU64 - 1,
        kMaxU64)
      .R(kMaxKey, kMin)
      .W(kMaxKey, kMax)
      .A(kMaxKey, kMin)
      .L(kMaxKey, {kMin, kMax, 0, -1})
      .L(0, {});
  b.Txn(1, 0, 0, 0, 0);  // no ops
  for (IsolationLevel level :
       {IsolationLevel::kUnspecified, IsolationLevel::kSer,
        IsolationLevel::kSi, IsolationLevel::kRc, IsolationLevel::kRa}) {
    b.Txn(2, 0, 1, 1, 2).Iso(level);
    b.Txn(3, 0, 2, 3, 4).Iso(level).W(kMaxKey, kMin).L(kMaxKey, {kMax});
  }
  ExpectEncodersAgree(b.Build(), "hand cases");
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
    const CodecStatus load = LoadHistory(path, &h);
    EXPECT_FALSE(load.ok) << bytes;
    const CodecStatus read = ReadAll(path, &h);
    EXPECT_FALSE(read.ok) << bytes;
    EXPECT_EQ(read.message, load.message) << bytes;
    ExpectStreamMatchesLoad(path, CollectorParams{}, bytes);
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
      const CodecStatus load = LoadHistory(path, &h);
      History read;
      const CodecStatus read_st = ReadAll(path, &read);
      ASSERT_EQ(read_st.ok, load.ok) << "byte " << i;
      EXPECT_EQ(read_st.message, load.message) << "byte " << i;
      ExpectStreamMatchesLoad(path, CollectorParams{},
                              "byte " + std::to_string(i));
      if (!load.ok) continue;
      EXPECT_EQ(Blocks(read), Blocks(h)) << "byte " << i;
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
    EXPECT_FALSE(ReadAll(path, &h).ok) << "len " << len;
    ExpectStreamMatchesLoad(path, CollectorParams{},
                            "len " + std::to_string(len));
  }
}

// Inputs LoadHistory rejected before it became a loop over
// HistoryReader, with the message it gave then; {path} stands for the
// file's path.
struct Rejected {
  const char* bytes;
  const char* message;
};

constexpr char kHeader1[] = "chronos-history v1 sessions=1 txns=1\n";

const Rejected kRejected[] = {
    {"", "bad header in {path}"},
    {"not-a-history\n", "bad header in {path}"},
    {"chronos-history v1 sessions=1 txns=1", "bad header in {path}"},
    {"chronos-history v1 sessions=1 txns=1 \n", "bad header in {path}"},
    {"chronos-history v1 sessions=99999999999 txns=1\nT 1 0 0 1 2 0\n"
     "# end txns=1\n",
     "bad header in {path}"},
    {"T 1 0 0 1 2 1\nX 1 0\n# end txns=1\n", "line 3: unknown op tag: X 1"},
    {"T 1 0 0 1 2\n# end txns=1\n", "line 2: malformed transaction header"},
    {"T 1 0 0 1 2 0 iso=xx\n# end txns=1\n",
     "line 2: bad transaction header suffix:  iso=xx"},
    {"T 1 0 0 1 2 2\nR 1 0\n# end txns=1\n", "line 4: unknown op tag: # e"},
    {"T 1 0 0 1 2 2\nR 1 0\n", "line 3: truncated operation list"},
    {"T 1 0 0 1 2 1\nR 1 0 5\n# end txns=1\n",
     "line 3: trailing bytes on op line"},
    {"T 1 0 0 1 2 1\nL 1 3 5\n# end txns=1\n", "line 3: truncated list read"},
    {"T 1 0 0 1 2 1\nW 1 1\n# end txns=x\n", "line 4: malformed footer"},
    {"T 1 0 0 1 2 1\nW 1 1\n# end txns=2\n",
     "header declared 1 txns, footer 2, found 1"},
    {"T 1 0 0 1 2 1\nW 1 1\n",
     "missing end footer (truncated file?): {path}"},
    {"R 1 0\n# end txns=1\n", "line 2: malformed transaction header"},
    {"T 1 0 0 1 2 1\nW 1\n# end txns=1\n", "line 3: malformed op line"},
    {"T 1 0 0 1 2 1\nW 1 1\n# end txns=1",
     "missing end footer (truncated file?): {path}"},
    {"T 1 0 0 1 2 1\nW 1 1\n\n# end txns=1\n",
     "line 4: malformed transaction header"},
    {"T 1 0 0 1 2 1\nW 1 1\n#end txns=1\n", "line 4: malformed footer"},
    {"T 1 0 0 1 2 1\nW  1 1\n# end txns=1\n", "line 3: malformed op line"},
};

TEST(HistoryReaderTest, RejectsWhatLoadHistoryRejectedAtTheSameLine) {
  const std::string path = TempPath("rejected.hist");
  const auto expected = [&path](const char* message) {
    std::string m = message;
    const size_t at = m.find("{path}");
    return at == std::string::npos ? m : m.replace(at, 6, path);
  };
  for (const Rejected& r : kRejected) {
    // Cases without a header of their own get the one-txn header.
    const std::string bytes =
        std::string(r.bytes).rfind("chronos-history", 0) == 0 ||
                std::string(r.bytes).rfind("not-", 0) == 0 || !*r.bytes
            ? std::string(r.bytes)
            : kHeader1 + std::string(r.bytes);
    WriteBytes(path, bytes);
    History h;
    EXPECT_EQ(LoadHistory(path, &h).message, expected(r.message)) << bytes;
    EXPECT_EQ(ReadAll(path, &h).message, expected(r.message)) << bytes;
    DeliveryStream stream(path, CollectorParams{});
    Drain(&stream);
    EXPECT_FALSE(stream.status().ok) << bytes;
    EXPECT_EQ(stream.status().message, expected(r.message)) << bytes;
  }
  // The same line numbers deep in a file: a bad op in the third block.
  WriteBytes(path,
             "chronos-history v1 sessions=2 txns=3\nT 1 0 0 1 2 1\nW 1 1\n"
             "T 2 1 0 3 4 2\nR 1 1\nW 2 5\nT 3 0 1 5 6 2\nR 2 5\nW 3 x\n"
             "# end txns=3\n");
  History h;
  EXPECT_EQ(LoadHistory(path, &h).message, "line 9: malformed op line");
  DeliveryStream stream(path, CollectorParams{});
  Drain(&stream);
  EXPECT_EQ(stream.status().message, "line 9: malformed op line");
}

// HistoryReader parses "R/W <key> <value>" lines on a fast path of its
// own and hands every other line to ParseOpLine. Each line here, read as
// a block's only op, must give what ParseOpLine gives: the same op, or
// the same error at the line's number.
TEST(HistoryReaderTest, OpLineFastPathMatchesParseOpLine) {
  const std::string lines[] = {
      "R 1 2", "W 1 2", "W 0 0", "R 007 0042", "W 00000000000000000000001 1",
      "R 1 -2", "R 1 -0", "R -1 2", "R -0 1", "R +1 2", "R 1 +2",
      "R 18446744073709551615 9223372036854775807",
      "R 18446744073709551616 0", "R 1 9223372036854775808",
      "W 1 -9223372036854775808", "W 1 -9223372036854775809",
      "R  1 2", "R 1  2", "R 1 2 ", "R 1 2  ", " R 1 2", "R\t1 2",
      "R 1\t2", "R 1 2\r", "R 1", "R 1 ", "R", "R ", "", "W1 2", "R 1 2x",
      "R x 2", "R 1 -", "W 1 2 3", "X 1 2", "r 1 2", "w 1 2", "A 1 5",
      "A 1 -5", "A 1 5 6", "L 1 0", "L 1 2 3 4", "L 1 2 3", "L 1 2 3 4 ",
      "L 1 1 -7", "L  1 0"};
  const std::string path = TempPath("fast_path.hist");
  for (const std::string& line : lines) {
    Transaction want;
    const CodecStatus parsed = ParseOpLine(line, &want);
    WriteBytes(path, std::string(kHeader1) + "T 1 0 0 1 2 1\n" + line +
                         "\n# end txns=1\n");
    HistoryReader reader;
    ASSERT_TRUE(reader.Open(path).ok);
    Transaction got;
    const bool read = reader.Next(&got);
    ASSERT_EQ(read, parsed.ok) << line << ": " << reader.status().message;
    if (!read) {
      EXPECT_EQ(reader.status().message, "line 3: " + parsed.message) << line;
      continue;
    }
    ASSERT_EQ(got.ops.size(), 1u) << line;
    EXPECT_EQ(got.ops[0].type, want.ops[0].type) << line;
    EXPECT_EQ(got.ops[0].key, want.ops[0].key) << line;
    EXPECT_EQ(got.ops[0].value, want.ops[0].value) << line;
    EXPECT_EQ(got.ops[0].list_index, want.ops[0].list_index) << line;
    EXPECT_EQ(got.list_args, want.list_args) << line;
    EXPECT_FALSE(reader.Next(&got)) << line;
    EXPECT_TRUE(reader.status().ok) << line << ": " << reader.status().message;
  }
}

// The scanner reads an R or W line of at most 16 bytes with fields of at
// most 8 digits from one 16-byte load where SSE2 is available, and other
// lines digit by digit. Every key and value length on both sides of
// those limits, signed or not, well-formed or broken by one byte, must
// read as ParseOpLine reads it: the same op, or the same error.
TEST(HistoryReaderTest, OpLinesOfEveryFieldLengthMatchParseOpLine) {
  std::vector<std::string> lines;
  for (const char* tag : {"R ", "W "}) {
    for (size_t key_digits = 1; key_digits <= 10; ++key_digits) {
      for (size_t value_digits = 1; value_digits <= 10; ++value_digits) {
        for (const char* sign : {"", "-"}) {
          const std::string key = std::string("9081726354").substr(
              0, key_digits);
          const std::string value = std::string("1029384756").substr(
              0, value_digits);
          const std::string line = tag + key + " " + sign + value;
          lines.push_back(line);
          lines.push_back(line + " ");
          lines.push_back(line + "x");
          lines.push_back(tag + key + "  " + sign + value);
          lines.push_back(tag + key + "x " + sign + value);
          lines.push_back(tag + key + " " + sign + "+" + value);
          lines.push_back(tag + key + " " + sign + value.substr(1) + "/");
        }
      }
    }
  }
  const std::string path = TempPath("op_lengths.hist");
  for (const std::string& line : lines) {
    Transaction want;
    const CodecStatus parsed = ParseOpLine(line, &want);
    WriteBytes(path, std::string(kHeader1) + "T 1 0 0 1 2 1\n" + line +
                         "\n# end txns=1\n");
    HistoryReader reader;
    ASSERT_TRUE(reader.Open(path).ok);
    Transaction got;
    const bool read = reader.Next(&got);
    ASSERT_EQ(read, parsed.ok) << line << ": " << reader.status().message;
    if (!read) {
      EXPECT_EQ(reader.status().message, "line 3: " + parsed.message) << line;
      continue;
    }
    ASSERT_EQ(got.ops.size(), 1u) << line;
    EXPECT_EQ(got.ops[0].type, want.ops[0].type) << line;
    EXPECT_EQ(got.ops[0].key, want.ops[0].key) << line;
    EXPECT_EQ(got.ops[0].value, want.ops[0].value) << line;
  }
}

// LoadHistory written line by line from the codec's strict functions
// alone, ParseTxnLine and ParseOpLine, and the header and footer rules:
// the reference every reader of a history file must agree with, status
// message and blocks alike. `bytes` is the file at `path`.
template <typename Int>
bool TakePrefixed(std::string_view* s, std::string_view prefix, Int* v) {
  if (s->substr(0, prefix.size()) != prefix) return false;
  const char* end = s->data() + s->size();
  const auto [p, ec] = std::from_chars(s->data() + prefix.size(), end, *v);
  if (ec != std::errc()) return false;
  s->remove_prefix(static_cast<size_t>(p - s->data()));
  return true;
}

CodecStatus ReferenceLoad(const std::string& bytes, const std::string& path,
                          History* out) {
  out->txns.clear();
  out->num_sessions = 0;
  size_t at = 0;         // the next line's first byte
  uint64_t line_no = 0;  // lines read
  std::string_view line;
  // The next '\n'-terminated line; false at the end of the bytes, also
  // after a last line without its '\n'.
  auto next = [&] {
    const size_t nl = bytes.find('\n', at);
    if (nl == std::string::npos) return false;
    line = std::string_view(bytes).substr(at, nl - at);
    at = nl + 1;
    ++line_no;
    return true;
  };
  auto at_line = [&](const std::string& what) {
    return CodecStatus::Error("line " + std::to_string(line_no) + ": " +
                              what);
  };
  uint32_t sessions = 0;
  uint64_t declared = 0;
  if (!next() ||
      !TakePrefixed(&line, "chronos-history v1 sessions=", &sessions) ||
      !TakePrefixed(&line, " txns=", &declared) || !line.empty()) {
    return CodecStatus::Error("bad header in " + path);
  }
  out->num_sessions = sessions;
  for (uint64_t read = 0;; ++read) {
    if (!next()) {
      return CodecStatus::Error("missing end footer (truncated file?): " +
                                path);
    }
    if (!line.empty() && line[0] == '#') {
      uint64_t footer = 0;
      if (!TakePrefixed(&line, "# end txns=", &footer) || !line.empty()) {
        return at_line("malformed footer");
      }
      if (declared != read || footer != read) {
        return CodecStatus::Error(
            "header declared " + std::to_string(declared) + " txns, footer " +
            std::to_string(footer) + ", found " + std::to_string(read));
      }
      return CodecStatus::Ok();
    }
    Transaction t;
    size_t nops = 0;
    CodecStatus st = ParseTxnLine(line, bytes.size() - at, &t, &nops);
    for (size_t i = 0; st.ok && i < nops; ++i) {
      st = next() ? ParseOpLine(line, &t)
                  : CodecStatus::Error("truncated operation list");
    }
    if (!st.ok) return at_line(st.message);
    out->txns.push_back(std::move(t));
  }
}

TEST(ReferenceLoaderTest, GivesEveryMessageLoadHistoryGave) {
  const std::string path = TempPath("reference.hist");
  for (const Rejected& r : kRejected) {
    const std::string raw = r.bytes;
    const std::string bytes = raw.rfind("chronos-history", 0) == 0 ||
                                      raw.rfind("not-", 0) == 0 || raw.empty()
                                  ? raw
                                  : kHeader1 + raw;
    std::string want = r.message;
    if (const size_t at = want.find("{path}"); at != std::string::npos) {
      want.replace(at, 6, path);
    }
    History h;
    EXPECT_EQ(ReferenceLoad(bytes, path, &h).message, want) << bytes;
  }
  History h;
  const CodecStatus st = ReferenceLoad(kAllShapesText, path, &h);
  ASSERT_TRUE(st.ok) << st.message;
  EXPECT_EQ(Blocks(h), Blocks(AllShapes()));
}

// HistoryReader scans "T <six fields>" lines on its fast path and hands
// every other T line to ParseTxnLine. Each line here, read as a block's T
// line, must give what ParseTxnLine gives: the same header fields, or
// the same error at the same line. The reference loader decides what
// follows (the block's op lines, or an error at one of them).
TEST(HistoryReaderTest, TxnLineFastPathMatchesParseTxnLine) {
  const std::string lines[] = {
      "T 1 0 0 1 2 1", "T 0 0 0 0 0 0", "T 7 3 5 10 20 2",
      "T 007 0003 0 0010 00020 01",
      "T 00000000000000000000001 0 0 1 2 1",
      "T 1 0000000000000000000000003 0 1 2 1",
      "T 1 0 0 1 2 00000000000000000000001",
      "T 18446744073709551615 0 0 1 2 1",
      "T 9999999999999999999 0 0 1 2 1", "T 18446744073709551616 0 0 1 2 1",
      "T 1 4294967295 0 1 2 1", "T 1 4294967296 0 1 2 1",
      "T 1 0 18446744073709551615 1 2 1", "T 1 0 0 18446744073709551615 2 1",
      "T 1 0 0 1 18446744073709551615 1", "T 1 0 0 2 1 1",
      "T 1 0 0 1 2 4611686018427387904", "T 1 0 0 1 2 1 iso=si",
      "T 1 0 0 1 2 1 iso=ser", "T 1 0 0 1 2 1 iso=rc", "T 1 0 0 1 2 1 iso=ra",
      "T 1 0 0 1 2 1 iso=xx", "T 1 0 0 1 2 1 iso=", "T 1 0 0 1 2 1 iso=si ",
      "T 1 0 0 1 2 1 ", "T 1 0 0 1 2 1  ", "T 1 0 0 1 2 1\r", "T  1 0 0 1 2 1",
      "T 1  0 0 1 2 1", "T\t1 0 0 1 2 1", "T 1 0 0 1 2\t1", " T 1 0 0 1 2 1",
      "T 1 0 0 1 2", "T 1 0 0 1 2 ", "T 1 0 0 1 2 1 5", "T 1 0 0 1 2 x",
      "T -1 0 0 1 2 1", "T 1 -0 0 1 2 1", "T +1 0 0 1 2 1", "T 1 0 0 1 2 -1",
      "T1 0 0 1 2 1", "t 1 0 0 1 2 1", "T", "T ", "T 1 0 0 1 2 1x"};
  const std::string path = TempPath("txn_fast_path.hist");
  for (const std::string& line : lines) {
    Transaction want;
    size_t nops = 0;
    const CodecStatus parsed = ParseTxnLine(line, 0, &want, &nops);
    // As many "W 1 1" op lines as the line declares, up to three.
    std::string bytes = std::string(kHeader1) + line + "\n";
    for (size_t i = 0; parsed.ok && i < std::min<size_t>(nops, 3); ++i) {
      bytes += "W 1 1\n";
    }
    bytes += "# end txns=1\n";
    WriteBytes(path, bytes);
    History reference;
    const CodecStatus expected = ReferenceLoad(bytes, path, &reference);
    HistoryReader reader;
    ASSERT_TRUE(reader.Open(path).ok) << line;
    Transaction got;
    const bool read = reader.Next(&got);
    if (!parsed.ok) {
      EXPECT_FALSE(read) << line;
      EXPECT_EQ(reader.status().message, "line 2: " + parsed.message) << line;
    } else if (read) {
      EXPECT_EQ(got.tid, want.tid) << line;
      EXPECT_EQ(got.sid, want.sid) << line;
      EXPECT_EQ(got.sno, want.sno) << line;
      EXPECT_EQ(got.start_ts, want.start_ts) << line;
      EXPECT_EQ(got.commit_ts, want.commit_ts) << line;
      EXPECT_EQ(got.iso, want.iso) << line;
      EXPECT_EQ(got.ops.size(), nops) << line;
      reader.Next(&got);
    }
    EXPECT_EQ(reader.status().ok, expected.ok) << line;
    EXPECT_EQ(reader.status().message, expected.message) << line;
  }
}

// The blocks an EventStream hands out at their commit events, in that
// order, and its final status. A history pass 1 finds tagged is read
// through Load instead, as chronos_check reads it.
CodecStatus DrainEvents(const std::string& path,
                        std::vector<std::string>* blocks) {
  EventStream stream(path);
  if (!stream.status().ok) return stream.status();
  CountingSink sink;
  std::unordered_map<SessionId, SessionState> sessions;
  WellFormednessPrePass pre(IsolationLevel::kSi, &sink, &sink, &sessions,
                            [](const Transaction&) {});
  CheckStats stats;
  if (!stream.PrePass(&pre, &stats)) {
    if (!stream.tagged()) return stream.status();
    History h;
    const CodecStatus st = stream.Load(&h);
    for (const Transaction& t : h.txns) AppendTxnBlock(t, &blocks->emplace_back());
    return st;
  }
  EventKind kind;
  Transaction* t = nullptr;
  while (stream.Next(&kind, &t)) {
    if (kind == EventKind::kCommit) AppendTxnBlock(*t, &blocks->emplace_back());
  }
  return stream.status();
}

// The bytes at `path` through LoadHistory, a DeliveryStream and an
// EventStream, each against the reference loader: the same status
// message and, when the file loads, the same blocks in each reader's
// order.
void ExpectReadersMatchReference(const std::string& bytes,
                                 const std::string& path,
                                 const std::string& what) {
  WriteBytes(path, bytes);
  History want;
  const CodecStatus ref = ReferenceLoad(bytes, path, &want);

  History loaded;
  const CodecStatus load = LoadHistory(path, &loaded);
  EXPECT_EQ(load.ok, ref.ok) << what;
  EXPECT_EQ(load.message, ref.message) << what;
  if (ref.ok) {
    EXPECT_EQ(Blocks(loaded), Blocks(want)) << what;
  }

  const CollectorParams cp;
  DeliveryStream stream(path, cp);
  const std::vector<CollectedTxn> arrivals = Drain(&stream);
  EXPECT_EQ(stream.status().ok, ref.ok) << what;
  EXPECT_EQ(stream.status().message, ref.message) << what;
  if (ref.ok) {
    EXPECT_EQ(AsText(arrivals), AsText(ReferenceSchedule(want, cp))) << what;
  }

  std::vector<std::string> events;
  const CodecStatus replay = DrainEvents(path, &events);
  EXPECT_EQ(replay.ok, ref.ok) << what;
  EXPECT_EQ(replay.message, ref.message) << what;
  if (ref.ok) {
    // Commit events leave in (commit_ts, file index) order, and a block
    // that breaks Eq. (1) has none. A tagged history loads in file order.
    std::vector<const Transaction*> order;
    for (const Transaction& t : want.txns) order.push_back(&t);
    const bool tagged = std::any_of(
        order.begin(), order.end(), [](const Transaction* t) {
          return t->iso != IsolationLevel::kUnspecified;
        });
    if (!tagged) {
      order.erase(std::remove_if(order.begin(), order.end(),
                                 [](const Transaction* t) {
                                   return !Replayed(*t, IsolationLevel::kSi);
                                 }),
                  order.end());
      std::stable_sort(order.begin(), order.end(),
                       [](const Transaction* a, const Transaction* b) {
                         return a->commit_ts < b->commit_ts;
                       });
    }
    std::vector<std::string> expected;
    for (const Transaction* t : order) {
      AppendTxnBlock(*t, &expected.emplace_back());
    }
    EXPECT_EQ(events, expected) << what;
  }
}

// A history text for the mutation sweep: a generated register history
// written field by field, some numbers with leading zeros (up to 22
// digits, past what the scanner takes) or at the limits of their type,
// spanning at least four reader blocks, and one block in the middle with
// an A op and an L line longer than a reader block.
std::string MutationBase(uint64_t seed) {
  workload::WorkloadParams p;
  p.sessions = 8;
  p.txns = 9000;
  p.ops_per_txn = 6;
  p.keys = 200;
  p.seed = seed;
  const History h = workload::GenerateDefaultHistory(p);
  std::mt19937_64 rng(seed);
  auto num = [&rng](uint64_t v) {
    std::string s = std::to_string(v);
    switch (rng() % 48) {
      case 0: return "0" + s;
      case 1: return std::string(s.size() < 20 ? 20 - s.size() : 1, '0') + s;
      case 2: return std::string(s.size() < 22 ? 22 - s.size() : 1, '0') + s;
      default: return s;
    }
  };
  auto field = [](std::string* out, const std::string& s) {
    out->push_back(' ');
    out->append(s);
  };
  std::string out = "chronos-history v1 sessions=" +
                    std::to_string(p.sessions + 1) +
                    " txns=" + std::to_string(h.txns.size() + 1) + "\n";
  for (size_t i = 0; i < h.txns.size(); ++i) {
    const Transaction& t = h.txns[i];
    if (i == h.txns.size() / 2) {
      // The list block, in a session of its own.
      out += "T 999999 " + std::to_string(p.sessions) + " 0 " +
             std::to_string(t.start_ts) + " " + std::to_string(t.start_ts) +
             " 2\nA 7 3\nL 7 150000";
      for (int e = 0; e < 150000; ++e) field(&out, std::to_string(e % 10));
      out += "\n";
    }
    out += "T";
    for (uint64_t v : {t.tid, uint64_t{t.sid}, t.sno, t.start_ts, t.commit_ts,
                       uint64_t{t.ops.size()}}) {
      field(&out, num(v));
    }
    out += "\n";
    for (const Op& op : t.ops) {
      out += op.type == OpType::kRead ? "R" : "W";
      switch (rng() % 64) {
        case 0:
          out += " 18446744073709551615 -9223372036854775808\n";
          continue;
        case 1:
          out += " 9999999999999999999 9223372036854775807\n";
          continue;
        default:
          field(&out, num(op.key));
          field(&out, op.value < 0 ? std::to_string(op.value)
                                   : num(static_cast<uint64_t>(op.value)));
          out += "\n";
      }
    }
  }
  return out + "# end txns=" + std::to_string(h.txns.size() + 1) + "\n";
}

// Seeded mutations of two base files, each read by every reader against
// the reference: bit flips, byte replacements, truncations, splices of
// the two files, and a count field made huge. Eight shards of 250.
class CodecMutationTest : public ::testing::TestWithParam<int> {};

TEST_P(CodecMutationTest, EveryReaderMatchesTheReference) {
  const uint64_t shard = static_cast<uint64_t>(GetParam());
  const std::string base = MutationBase(2 * shard + 1);
  const std::string other = MutationBase(2 * shard + 2);
  ASSERT_GE(base.size(), 4 * LineReader::kBlockBytes);
  ASSERT_GT(base.find("\nT", base.find("\nL 7 ")) - base.find("\nL 7 "),
            LineReader::kBlockBytes);
  const std::string path = TempPath("mutated.hist");
  ExpectReadersMatchReference(base, path, "unmutated");
  std::mt19937_64 rng(shard);
  const std::string bytes_pool = "0123456789 \nTRWAL#-+x\r\t";
  for (int m = 0; m < 250; ++m) {
    std::string bytes = base;
    std::string what;
    const size_t at = rng() % base.size();
    switch (m % 5) {
      case 0:
        bytes[at] = static_cast<char>(bytes[at] ^ (1 << (rng() % 8)));
        what = "bit flip at " + std::to_string(at);
        break;
      case 1:
        bytes[at] = bytes_pool[rng() % bytes_pool.size()];
        what = "byte at " + std::to_string(at);
        break;
      case 2:
        bytes.resize(at);
        what = "truncated to " + std::to_string(at);
        break;
      case 3: {
        const size_t from = rng() % other.size();
        bytes = base.substr(0, at) + other.substr(from);
        what = "splice at " + std::to_string(at) + " from " +
               std::to_string(from);
        break;
      }
      default: {
        // A count made huge: the op count of the T line after `at`, or
        // the L line's length.
        size_t field_at = base.find("\nL 7 ") + 5;
        if (rng() % 8 != 0) {
          const size_t t = base.find("\nT ", at);
          if (t == std::string::npos) continue;
          field_at = base.rfind(' ', base.find('\n', t + 1)) + 1;
        }
        const char* huge[] = {"4611686018427387904", "18446744073709551615",
                              "99999999999999999999", "1000000000"};
        bytes.replace(field_at, base.find_first_of(" \n", field_at) - field_at,
                      huge[rng() % 4]);
        what = "huge count at " + std::to_string(field_at);
      }
    }
    ExpectReadersMatchReference(bytes, path, what);
    if (HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, CodecMutationTest, ::testing::Range(0, 8));

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

TEST(CollectorTest, ZeroBatchSizeActsAsOne) {
  workload::WorkloadParams p;
  p.sessions = 4;
  p.txns = 300;
  History h = workload::GenerateDefaultHistory(p);
  CollectorParams cp;
  cp.delay_mean_ms = 20;
  cp.delay_stddev_ms = 10;
  cp.batch_size = 1;
  const auto one = ScheduleDelivery(h, cp);
  cp.batch_size = 0;
  const auto zero = ScheduleDelivery(h, cp);
  EXPECT_EQ(AsText(zero), AsText(one));
  const std::string path = TempPath("zero_batch.hist");
  ASSERT_TRUE(SaveHistory(h, path).ok);
  ExpectStreamMatchesLoad(path, cp, "batch_size 0");
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

// Many commit_ts ties (three transactions per timestamp), so the
// stream's tie-breaks by file and commit index are exercised.
History TiedTimestamps(size_t txns, uint32_t sessions) {
  History h;
  h.num_sessions = sessions;
  std::vector<uint64_t> sno(sessions, 0);
  for (size_t i = 0; i < txns; ++i) {
    Transaction t;
    t.tid = i + 1;
    t.sid = static_cast<SessionId>(i * 7 % sessions);
    t.sno = sno[t.sid]++;
    t.commit_ts = 10 + i / 3;
    t.start_ts = t.commit_ts - 1;
    t.ops.push_back({OpType::kWrite, i % 17, static_cast<Value>(i)});
    h.txns.push_back(std::move(t));
  }
  return h;
}

std::vector<CollectorParams> StreamParams() {
  std::vector<CollectorParams> out;
  for (auto [mean, stddev] : {std::pair{0.0, 0.0}, std::pair{20.0, 10.0},
                              std::pair{100.0, 40.0}}) {
    for (uint32_t batch : {1u, 7u, 500u}) {
      CollectorParams cp;
      cp.delay_mean_ms = mean;
      cp.delay_stddev_ms = stddev;
      cp.batch_size = batch;
      out.push_back(cp);
    }
  }
  return out;
}

std::string Describe(const CollectorParams& cp) {
  return "delay " + std::to_string(cp.delay_mean_ms) + "+-" +
         std::to_string(cp.delay_stddev_ms) + " batch " +
         std::to_string(cp.batch_size);
}

TEST(DeliveryStreamTest, FileStreamEqualsTheInMemorySchedule) {
  workload::WorkloadParams reg;
  reg.sessions = 8;
  reg.txns = 1500;
  reg.ops_per_txn = 6;
  workload::WorkloadParams list = reg;
  list.txns = 300;
  list.list_mode = true;
  workload::WorkloadParams mixed = reg;
  mixed.mix = {40, 20, 20, 20};
  const std::pair<const char*, History> histories[] = {
      {"register", workload::GenerateDefaultHistory(reg)},
      {"list", workload::GenerateDefaultHistory(list)},
      {"mixed", workload::GenerateDefaultHistory(mixed)},
  };
  const std::string path = TempPath("stream.hist");
  for (const auto& [name, h] : histories) {
    ASSERT_TRUE(SaveHistory(h, path).ok);
    for (const CollectorParams& cp : StreamParams()) {
      ExpectStreamMatchesLoad(path, cp, name + (" " + Describe(cp)));
    }
  }
}

TEST(DeliveryStreamTest, CommitOrderInversionsKeepTheSchedule) {
  workload::WorkloadParams reg;
  reg.sessions = 8;
  reg.txns = 1500;
  reg.ops_per_txn = 4;
  workload::WorkloadParams list = reg;
  list.txns = 300;
  list.list_mode = true;
  const std::pair<const char*, History> histories[] = {
      {"register", workload::GenerateDefaultHistory(reg)},
      {"list", workload::GenerateDefaultHistory(list)},
      {"tied", TiedTimestamps(900, 5)},
  };
  const std::string path = TempPath("inverted.hist");
  for (const auto& [name, h] : histories) {
    for (size_t window : {2, 9, 64}) {
      ASSERT_TRUE(SaveHistory(ShuffleInsideWindows(h, window, window), path)
                      .ok);
      DeliveryStream probe(path, CollectorParams{});
      EXPECT_GT(probe.commit_lag(), 0u) << name << " window " << window;
      for (const CollectorParams& cp : StreamParams()) {
        ExpectStreamMatchesLoad(path, cp,
                                name + (" window " + std::to_string(window) +
                                        " " + Describe(cp)));
      }
    }
  }
}

TEST(DeliveryStreamTest, BuffersHoldTheWindowNotTheFile) {
  workload::WorkloadParams p;
  p.sessions = 16;
  p.txns = 20000;
  p.ops_per_txn = 2;
  const std::string path = TempPath("bounded.hist");
  ASSERT_TRUE(SaveHistory(workload::GenerateDefaultHistory(p), path).ok);
  CollectorParams cp;
  cp.delay_mean_ms = 20;
  cp.delay_stddev_ms = 10;
  DeliveryStream stream(path, cp);
  ASSERT_TRUE(stream.status().ok);
  ASSERT_NE(stream.commit_lag(), DeliveryStream::kUnboundedLag);
  size_t most = 0, arrivals = 0;
  CollectedTxn ct;
  while (stream.Next(&ct)) {
    most = std::max(most, stream.buffered());
    ++arrivals;
  }
  ASSERT_TRUE(stream.status().ok) << stream.status().message;
  EXPECT_EQ(arrivals, p.txns);
  // A 20+-10 ms delay spans about two 40 ms batches of 500.
  EXPECT_LT(most, 3 * cp.batch_size) << "of " << p.txns;
}

TEST(DeliveryStreamTest, PipeInputIsBufferedWholeAndGivesTheSameStream) {
  workload::WorkloadParams p;
  p.sessions = 8;
  p.txns = 800;
  p.list_mode = true;
  const History h = ShuffleInsideWindows(workload::GenerateDefaultHistory(p),
                                         9, 3);
  const std::string path = TempPath("piped.hist");
  ASSERT_TRUE(SaveHistory(h, path).ok);
  const std::string bytes = Slurp(path);
  const std::string fifo = TempPath("pipe");
  ASSERT_EQ(mkfifo(fifo.c_str(), 0600), 0);
  CollectorParams cp;
  cp.delay_mean_ms = 20;
  cp.delay_stddev_ms = 10;
  cp.batch_size = 7;
  // The writer blocks in open until the stream opens the read side.
  std::thread writer([&fifo, &bytes] {
    std::ofstream(fifo, std::ios::binary) << bytes;
  });
  DeliveryStream stream(fifo, cp);
  const std::vector<CollectedTxn> streamed = Drain(&stream);
  writer.join();
  ASSERT_TRUE(stream.status().ok) << stream.status().message;
  EXPECT_EQ(stream.commit_lag(), DeliveryStream::kUnboundedLag);
  EXPECT_EQ(AsText(streamed), AsText(ReferenceSchedule(h, cp)));
}

// chronos_check, run as a subprocess: its exit status and its output.
struct CheckRun {
  int exit_code = -1;
  std::string output;
};

const std::string kCheck = std::string(CHRONOS_BUILD_DIR) + "/chronos_check";

// A shell command line, its stderr into its output.
CheckRun RunShell(const std::string& command) {
  CheckRun run;
  const std::string cmd = command + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return run;
  char buf[4096];
  while (fgets(buf, sizeof(buf), pipe) != nullptr) run.output += buf;
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

CheckRun RunCheck(const std::string& args) {
  return RunShell(kCheck + " " + args);
}

bool HaveChronosCheck() { return std::filesystem::exists(kCheck); }

History CliHistory(uint64_t txns) {
  workload::WorkloadParams p;
  p.sessions = 8;
  p.txns = txns;
  p.ops_per_txn = 4;
  return workload::GenerateDefaultHistory(p);
}

TEST(CheckCliTest, MalformedOpLineMidRunExitsOneWithoutAVerdict) {
  if (!HaveChronosCheck()) GTEST_SKIP() << "chronos_check not built";
  const std::string dir = chronos::testing::UniqueTempDir("cli");
  const std::string path = dir + "/bad.hist";
  ASSERT_TRUE(SaveHistory(CliHistory(3000), path).ok);
  // Break the first op line of the 2000th block: 1999 arrivals are
  // streamed in before the reader meets it.
  std::string bytes = Slurp(path);
  size_t at = 0;
  for (int blocks = 0; blocks < 2000; ++blocks) at = bytes.find("\nT ", at + 1);
  const size_t op = bytes.find('\n', at + 1) + 1;
  const auto lines_before = std::count(
      bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(op), '\n');
  const size_t line = static_cast<size_t>(lines_before) + 1;
  bytes.replace(op, bytes.find('\n', op) - op, "W 1 x");
  WriteBytes(path, bytes);
  const std::string message =
      "load failed: line " + std::to_string(line) + ": malformed op line";
  const std::string common = "--in=" + path + " --online --delay-mean=20 "
                             "--delay-stddev=10 --timeout-ms=50";
  for (const std::string& extra :
       {std::string(), std::string(" --shards=2"),
        " --checkpoint-dir=" + dir + "/ckpt --checkpoint-every=500"}) {
    const CheckRun run = RunCheck(common + extra);
    EXPECT_EQ(run.exit_code, 1) << extra << "\n" << run.output;
    EXPECT_NE(run.output.find(message), std::string::npos)
        << extra << "\n" << run.output;
    EXPECT_EQ(run.output.find("violations:"), std::string::npos)
        << extra << "\n" << run.output;
  }
  // The durable run logged the arrivals it checked before the bad line.
  EXPECT_GT(std::filesystem::file_size(dir + "/ckpt/wal.log"), 0u);
}

// The output from the `violations:` line on: the verdict and the
// violations shown.
std::string Verdict(const std::string& output) {
  const size_t at = output.find("violations:");
  return at == std::string::npos ? std::string() : output.substr(at);
}

TEST(CheckCliTest, MalformedOpLineMidFileOfflineExitsOneWithoutAVerdict) {
  if (!HaveChronosCheck()) GTEST_SKIP() << "chronos_check not built";
  const std::string dir = chronos::testing::UniqueTempDir("cli");
  const std::string path = dir + "/bad.hist";
  ASSERT_TRUE(SaveHistory(CliHistory(3000), path).ok);
  // Break an op line of the 2000th block: the streamed check has
  // replayed most of what precedes it when its second pass meets it.
  std::string bytes = Slurp(path);
  size_t at = 0;
  for (int blocks = 0; blocks < 2000; ++blocks) at = bytes.find("\nT ", at + 1);
  const size_t op = bytes.find('\n', at + 1) + 1;
  bytes.replace(op, bytes.find('\n', op) - op, "W 1 x");
  WriteBytes(path, bytes);
  History h;
  const CodecStatus load = LoadHistory(path, &h);
  ASSERT_FALSE(load.ok);
  for (const char* extra : {"", " --gc-every=100", " --level=ser"}) {
    const CheckRun run = RunCheck("--in=" + path + extra);
    EXPECT_EQ(run.exit_code, 1) << extra << "\n" << run.output;
    EXPECT_NE(run.output.find("load failed: " + load.message),
              std::string::npos)
        << extra << "\n" << run.output;
    EXPECT_EQ(run.output.find("violations:"), std::string::npos)
        << extra << "\n" << run.output;
  }
}

TEST(CheckCliTest, OfflineStreamsFilesAndLoadsPipesAndTaggedHistories) {
  if (!HaveChronosCheck()) GTEST_SKIP() << "chronos_check not built";
  const std::string dir = chronos::testing::UniqueTempDir("cli");
  workload::WorkloadParams p;
  p.sessions = 8;
  p.txns = 3000;
  p.ops_per_txn = 4;
  p.keys = 50;
  db::DbConfig faulty;
  faulty.faults.stale_read_prob = 0.02;
  faulty.faults.ts_swap_prob = 0.01;
  const std::string path = dir + "/h.hist";
  ASSERT_TRUE(
      SaveHistory(workload::GenerateDefaultHistory(p, faulty), path).ok);
  const CheckRun file = RunCheck("--in=" + path + " --max-report=1000");
  ASSERT_EQ(file.exit_code, 3) << file.output;
  EXPECT_EQ(file.output.rfind("streamed " + path + ": 3000 txns", 0), 0u)
      << file.output;
  // A pipe cannot be read twice: it is loaded, and checked the same.
  const CheckRun piped = RunShell("cat " + path + " | " + kCheck +
                                  " --in=/dev/stdin --max-report=1000");
  EXPECT_EQ(piped.exit_code, file.exit_code) << piped.output;
  EXPECT_NE(piped.output.find("loaded 3000 txns"), std::string::npos)
      << piped.output;
  EXPECT_EQ(Verdict(piped.output), Verdict(file.output));

  // Per-transaction iso= tags still go to the mixed-level checker.
  p.mix = {40, 20, 20, 20};
  const History tagged = workload::GenerateDefaultHistory(p, faulty);
  ASSERT_TRUE(SaveHistory(tagged, path).ok);
  CountingSink want;
  ChronosMixed::CheckHistory(tagged, IsolationLevel::kSi, &want);
  const CheckRun mixed = RunCheck("--in=" + path);
  EXPECT_EQ(mixed.exit_code, want.total() > 0 ? 3 : 0) << mixed.output;
  EXPECT_EQ(mixed.output.rfind("loaded 3000 txns", 0), 0u) << mixed.output;
  EXPECT_NE(mixed.output.find("offline mixed(default=si) check"),
            std::string::npos)
      << mixed.output;
  EXPECT_NE(mixed.output.find("violations: total=" +
                              std::to_string(want.total()) + " "),
            std::string::npos)
      << mixed.output;
}

// List ops are checked at the default level too, and --level=list (a
// spelling of si) and --level=ser stream rather than load: each reports
// what the list corpus files pin, as --online does at every level.
TEST(CheckCliTest, OfflineListHistoriesStreamAtEveryLevelSpelling) {
  if (!HaveChronosCheck()) GTEST_SKIP() << "chronos_check not built";
  const struct {
    const char* file;
    const char* verdict;
  } cases[] = {
      {"list_stale_read.repro",
       "violations: total=1 SESSION=0 INT=0 EXT=1 NOCONFLICT=0"},
      {"list_int_divergence.repro",
       "violations: total=1 SESSION=0 INT=1 EXT=0 NOCONFLICT=0"},
  };
  for (const auto& c : cases) {
    const std::string path =
        std::string(CHRONOS_TEST_SRCDIR "/tests/corpus/") + c.file;
    for (const char* level : {"", " --level=list", " --level=ser"}) {
      const CheckRun run = RunCheck("--in=" + path + level);
      EXPECT_EQ(run.exit_code, 3) << c.file << level << "\n" << run.output;
      EXPECT_EQ(run.output.rfind("streamed " + path + ": ", 0), 0u)
          << c.file << level << "\n" << run.output;
      EXPECT_EQ(Verdict(run.output).rfind(c.verdict, 0), 0u)
          << c.file << level << "\n" << run.output;
    }
  }
}

TEST(CheckCliTest, ResumeWithAShorterInputFails) {
  if (!HaveChronosCheck()) GTEST_SKIP() << "chronos_check not built";
  const std::string dir = chronos::testing::UniqueTempDir("cli");
  ASSERT_TRUE(SaveHistory(CliHistory(3000), dir + "/full.hist").ok);
  ASSERT_TRUE(SaveHistory(CliHistory(1000), dir + "/short.hist").ok);
  const std::string flags = " --online --checkpoint-dir=" + dir +
                            "/ckpt --checkpoint-every=700";
  const CheckRun full = RunCheck("--in=" + dir + "/full.hist" + flags);
  ASSERT_TRUE(full.exit_code == 0 || full.exit_code == 3) << full.output;
  const CheckRun again =
      RunCheck("--in=" + dir + "/full.hist" + flags + " --resume");
  EXPECT_TRUE(again.exit_code == 0 || again.exit_code == 3) << again.output;
  const CheckRun short_run =
      RunCheck("--in=" + dir + "/short.hist" + flags + " --resume");
  EXPECT_EQ(short_run.exit_code, 1) << short_run.output;
  EXPECT_NE(short_run.output.find("ends after 1000 arrivals, but the "
                                  "recovered run had fed 3000"),
            std::string::npos)
      << short_run.output;
  EXPECT_EQ(short_run.output.find("violations:"), std::string::npos)
      << short_run.output;
}

}  // namespace
}  // namespace chronos::hist

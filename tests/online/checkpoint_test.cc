// Checkpoint & WAL durability layer (online/checkpoint.h): WAL record
// roundtrip and torn-tail handling, checkpoint file atomicity, checksum
// validation and retention, full checker-state export/import identity
// over workloads that populate every state section (version chains,
// lists, spill manifests, unfinalized transactions, EXT deadlines,
// buffered violations), and the --memory-ceiling degradation path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "../testutil.h"
#include "core/spill.h"
#include "core/state_io.h"
#include "hist/codec.h"
#include "online/checkpoint.h"
#include "online/pipeline.h"
#include "online/recovery.h"
#include "online/sharded_aion.h"
#include "workload/generator.h"

namespace chronos::online {
namespace {

namespace fs = std::filesystem;

using chronos::testing::SessionPreservingShuffle;

// ReadWal, collecting the records it hands over.
bool ReadWalRecords(const std::string& path, std::vector<WalRecord>* recs,
                    uint64_t* valid) {
  recs->clear();
  return ReadWal(
      path, [recs](const WalRecord& r) { recs->push_back(r); }, valid);
}

std::string FreshDir(const std::string& name) {
  return chronos::testing::UniqueTempDir(name);
}

History MakeWorkload(uint64_t txns, uint64_t seed, bool list_mode) {
  workload::WorkloadParams p;
  p.sessions = 8;
  p.txns = txns;
  p.ops_per_txn = 6;
  p.keys = 40;
  p.seed = seed;
  p.list_mode = list_mode;
  db::DbConfig cfg;
  cfg.faults.lost_update_prob = 0.04;
  cfg.faults.early_commit_prob = 0.03;
  cfg.faults.ts_swap_prob = 0.02;
  cfg.fault_seed = seed * 13 + 5;
  return workload::GenerateDefaultHistory(p, cfg);
}

Transaction OneTxn() {
  Transaction t;
  t.tid = 7;
  t.sid = 2;
  t.sno = 3;
  t.start_ts = 100;
  t.commit_ts = 120;
  t.ops.push_back({OpType::kRead, 1, 11, 0});
  t.ops.push_back({OpType::kWrite, 2, -5, 0});
  t.ops.push_back({OpType::kAppend, 3, 42, 0});
  Op l;
  l.type = OpType::kReadList;
  l.key = 3;
  l.list_index = 0;
  t.ops.push_back(l);
  t.list_args.push_back({1, -2, 3});
  return t;
}

constexpr IsolationLevel kLevels[] = {IsolationLevel::kSer,
                                      IsolationLevel::kSi, IsolationLevel::kRc,
                                      IsolationLevel::kRa};

// The codec text of `t`: equal texts mean equal transactions.
std::string Block(const Transaction& t) {
  std::string out;
  hist::AppendTxnBlock(t, &out);
  return out;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

TEST(WalTest, RoundTripAllRecordShapes) {
  std::string dir = FreshDir("wal_roundtrip");
  std::string path = dir + "/wal.log";
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(path));
    WalRecord r1;
    r1.seq = 1;
    r1.now_ms = 17;
    r1.txn = OneTxn();
    ASSERT_TRUE(w.LogStep(r1));
    WalRecord r2;
    r2.seq = 2;
    r2.now_ms = 18;
    r2.txn = OneTxn();
    r2.txn.tid = 8;
    r2.txn.ops.clear();
    r2.txn.list_args.clear();
    r2.gc = true;
    r2.gc_target = 32;
    r2.shed = true;
    ASSERT_TRUE(w.LogStep(r2));
    uint64_t seq = 3;
    for (IsolationLevel level : kLevels) {
      WalRecord r;
      r.seq = seq++;
      r.txn = OneTxn();
      r.txn.iso = level;
      ASSERT_TRUE(w.LogStep(r));
    }
    ASSERT_TRUE(w.Sync());
  }
  std::vector<WalRecord> recs;
  uint64_t valid = 0;
  ASSERT_TRUE(ReadWalRecords(path, &recs, &valid));
  ASSERT_EQ(recs.size(), 2u + std::size(kLevels));
  EXPECT_EQ(valid, fs::file_size(path));
  EXPECT_EQ(recs[0].seq, 1u);
  EXPECT_EQ(recs[0].now_ms, 17u);
  EXPECT_FALSE(recs[0].gc);
  EXPECT_FALSE(recs[0].shed);
  ASSERT_EQ(recs[0].txn.ops.size(), 4u);
  EXPECT_EQ(recs[0].txn.tid, 7u);
  EXPECT_EQ(recs[0].txn.sid, 2u);
  EXPECT_EQ(recs[0].txn.sno, 3u);
  EXPECT_EQ(recs[0].txn.start_ts, 100u);
  EXPECT_EQ(recs[0].txn.commit_ts, 120u);
  EXPECT_EQ(recs[0].txn.ops[1].value, -5);
  ASSERT_EQ(recs[0].txn.list_args.size(), 1u);
  EXPECT_EQ(recs[0].txn.list_args[0], (std::vector<Value>{1, -2, 3}));
  EXPECT_TRUE(recs[1].gc);
  EXPECT_EQ(recs[1].gc_target, 32u);
  EXPECT_TRUE(recs[1].shed);
  EXPECT_EQ(recs[1].txn.ops.size(), 0u);
  EXPECT_EQ(recs[0].txn.iso, IsolationLevel::kUnspecified);
  for (size_t i = 0; i < std::size(kLevels); ++i) {
    Transaction want = OneTxn();
    want.iso = kLevels[i];
    EXPECT_EQ(recs[2 + i].txn.iso, kLevels[i]);
    EXPECT_EQ(Block(recs[2 + i].txn), Block(want));
  }
}

TEST(WalTest, UntaggedRecordKeepsItsLayout) {
  // The transaction block comes from hist/codec; an untagged one must
  // stay byte-identical to what older WALs hold.
  const std::string path = FreshDir("wal_layout") + "/wal.log";
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(path));
    WalRecord r;
    r.seq = 1;
    r.now_ms = 17;
    r.txn = OneTxn();
    ASSERT_TRUE(w.LogStep(r));
  }
  const std::string body =
      "B 1 T 17 0 0 0\n"
      "T 7 2 3 100 120 4\n"
      "R 1 11\n"
      "W 2 -5\n"
      "A 3 42\n"
      "L 3 3 1 -2 3\n";
  char sum[32];
  snprintf(sum, sizeof(sum), "E %016" PRIx64 "\n",
           Fnv1a(body.data(), body.size()));
  EXPECT_EQ(Slurp(path), "chronos-wal v1\n" + body + sum);
}

TEST(WalTest, TornTailStopsAtLastValidRecordAndResumes) {
  std::string dir = FreshDir("wal_torn");
  std::string path = dir + "/wal.log";
  uint64_t size_after_first = 0;
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(path));
    WalRecord r;
    r.seq = 1;
    r.txn = OneTxn();
    ASSERT_TRUE(w.LogStep(r));
    ASSERT_TRUE(w.Sync());  // records are written in groups
    size_after_first = fs::file_size(path);
    r.seq = 2;
    ASSERT_TRUE(w.LogStep(r));
  }
  // Tear the second record at every byte boundary: the first must
  // survive, the second must be dropped, and the truncation point must
  // be exactly the end of the first record.
  uint64_t full = fs::file_size(path);
  for (uint64_t cut = size_after_first; cut < full; ++cut) {
    fs::resize_file(path, cut);
    std::vector<WalRecord> recs;
    uint64_t valid = 0;
    ASSERT_TRUE(ReadWalRecords(path, &recs, &valid)) << "cut=" << cut;
    ASSERT_EQ(recs.size(), 1u) << "cut=" << cut;
    EXPECT_EQ(recs[0].seq, 1u);
    EXPECT_EQ(valid, size_after_first) << "cut=" << cut;
  }
  // Resume after a torn tail: truncate to the valid prefix, append a new
  // record, and read all of it back.
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(path, size_after_first));
    WalRecord r;
    r.seq = 2;
    r.now_ms = 99;
    r.txn = OneTxn();
    ASSERT_TRUE(w.LogStep(r));
  }
  std::vector<WalRecord> recs;
  uint64_t valid = 0;
  ASSERT_TRUE(ReadWalRecords(path, &recs, &valid));
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[1].now_ms, 99u);
  EXPECT_EQ(valid, fs::file_size(path));
}

TEST(WalTest, CorruptChecksumEndsReplayBeforeTheRecord) {
  std::string dir = FreshDir("wal_corrupt");
  std::string path = dir + "/wal.log";
  uint64_t size_after_first = 0;
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(path));
    WalRecord r;
    r.seq = 1;
    r.txn = OneTxn();
    ASSERT_TRUE(w.LogStep(r));
    ASSERT_TRUE(w.Sync());  // records are written in groups
    size_after_first = fs::file_size(path);
    r.seq = 2;
    ASSERT_TRUE(w.LogStep(r));
  }
  // Flip one payload byte of the second record (not its checksum line).
  {
    FILE* f = fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    fseek(f, static_cast<long>(size_after_first) + 4, SEEK_SET);
    int c = fgetc(f);
    fseek(f, static_cast<long>(size_after_first) + 4, SEEK_SET);
    fputc(c == '9' ? '8' : '9', f);
    fclose(f);
  }
  std::vector<WalRecord> recs;
  uint64_t valid = 0;
  ASSERT_TRUE(ReadWalRecords(path, &recs, &valid));
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(valid, size_after_first);
}

TEST(WalTest, HugeListCountInLastRecordEndsReplayBeforeIt) {
  // A checksum only proves the bytes are the ones written; a record whose
  // L count its line cannot hold must still end replay, not allocate.
  const std::string path = FreshDir("wal_huge") + "/wal.log";
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(path));
    WalRecord r;
    r.seq = 1;
    r.txn = OneTxn();
    ASSERT_TRUE(w.LogStep(r));
  }
  const uint64_t size_after_first = fs::file_size(path);
  const std::string body =
      "B 2 T 0 0 0 0\nT 9 0 0 1 2 1\nL 1 4611686018427387904 5\n";
  char sum[32];
  snprintf(sum, sizeof(sum), "E %016" PRIx64 "\n",
           Fnv1a(body.data(), body.size()));
  WriteBytes(path, Slurp(path) + body + sum);
  std::vector<WalRecord> recs;
  uint64_t valid = 0;
  ASSERT_TRUE(ReadWalRecords(path, &recs, &valid));
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(valid, size_after_first);
}

TEST(WalTest, CorruptionAtEveryByteIsSafe) {
  // Records of every shape, tagged and untagged. A replaced byte ends
  // replay at (or, inside a checksum line's framing, just after) its
  // record, and every record replayed is one that was written; a cut
  // keeps exactly the records that end before it.
  const std::string path = FreshDir("wal_sweep") + "/wal.log";
  std::vector<WalRecord> written;
  std::vector<uint64_t> ends;
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(path));
    for (IsolationLevel level :
         {IsolationLevel::kUnspecified, IsolationLevel::kRc}) {
      WalRecord r;
      r.seq = written.size() + 1;
      r.now_ms = 5;
      r.gc = level == IsolationLevel::kRc;
      r.gc_target = 8;
      r.txn = OneTxn();
      r.txn.iso = level;
      ASSERT_TRUE(w.LogStep(r));
      ASSERT_TRUE(w.Sync());  // records are written in groups
      written.push_back(r);
      ends.push_back(fs::file_size(path));
    }
  }
  const std::string good = Slurp(path);
  const size_t header = 15;  // strlen("chronos-wal v1\n")
  auto expect_written_prefix = [&](const std::vector<WalRecord>& recs,
                                   const std::string& what) {
    ASSERT_LE(recs.size(), written.size()) << what;
    for (size_t k = 0; k < recs.size(); ++k) {
      EXPECT_EQ(recs[k].seq, written[k].seq) << what;
      EXPECT_EQ(recs[k].now_ms, written[k].now_ms) << what;
      EXPECT_EQ(recs[k].gc, written[k].gc) << what;
      EXPECT_EQ(recs[k].gc_target, written[k].gc_target) << what;
      EXPECT_EQ(recs[k].shed, written[k].shed) << what;
      EXPECT_EQ(Block(recs[k].txn), Block(written[k].txn)) << what;
    }
  };
  for (size_t i = 0; i < good.size(); ++i) {
    for (char c : {'9', ' ', '\n', static_cast<char>(good[i] ^ 0x40)}) {
      if (c == good[i]) continue;
      std::string bad = good;
      bad[i] = c;
      WriteBytes(path, bad);
      std::vector<WalRecord> recs;
      uint64_t valid = 0;
      const std::string what = "byte " + std::to_string(i);
      if (!ReadWalRecords(path, &recs, &valid)) {
        EXPECT_LT(i, header) << what;
        continue;
      }
      ASSERT_GE(i, header) << what;
      const size_t hit = static_cast<size_t>(
          std::upper_bound(ends.begin(), ends.end(), i) - ends.begin());
      EXPECT_GE(recs.size(), hit) << what;
      EXPECT_LE(recs.size(), hit + 1) << what;
      EXPECT_LE(valid, good.size()) << what;
      expect_written_prefix(recs, what);
    }
  }
  for (size_t len = header; len < good.size(); ++len) {
    WriteBytes(path, good.substr(0, len));
    std::vector<WalRecord> recs;
    uint64_t valid = 0;
    const std::string what = "len " + std::to_string(len);
    ASSERT_TRUE(ReadWalRecords(path, &recs, &valid)) << what;
    const size_t kept = static_cast<size_t>(
        std::upper_bound(ends.begin(), ends.end(), len) - ends.begin());
    EXPECT_EQ(recs.size(), kept) << what;
    EXPECT_EQ(valid, kept == 0 ? header : ends[kept - 1]) << what;
    expect_written_prefix(recs, what);
  }
}

TEST(CheckpointManagerTest, WriteLoadRoundTripAndRetention) {
  std::string dir = FreshDir("ckpt_mgr");
  CheckpointManager mgr(dir);
  ShardedAion::StateImage img;
  img.ingress = "ingress-bytes";
  // A real coordinator section leads with the shard count; Load
  // cross-checks it against the section count.
  StateWriter coord;
  coord.U64(2);
  coord.Bytes("rest");
  img.coordinator = coord.data();
  img.shards = {"shard-zero", "shard-one"};

  ASSERT_TRUE(mgr.Write(img, /*wal_seq=*/10, /*events=*/10));
  ASSERT_TRUE(mgr.Write(img, /*wal_seq=*/20, /*events=*/20));
  ASSERT_TRUE(mgr.Write(img, /*wal_seq=*/30, /*events=*/30));

  auto all = CheckpointManager::List(dir);
  ASSERT_EQ(all.size(), CheckpointManager::kKeep);  // pruned the first
  EXPECT_EQ(all[0].first, 2u);
  EXPECT_EQ(all[1].first, 3u);

  CheckpointManager::Loaded loaded;
  ASSERT_TRUE(CheckpointManager::Load(all[1].second, &loaded));
  EXPECT_EQ(loaded.ckpt_seq, 3u);
  EXPECT_EQ(loaded.wal_seq, 30u);
  EXPECT_EQ(loaded.events, 30u);
  EXPECT_EQ(loaded.num_shards, 2u);
  EXPECT_EQ(loaded.img.ingress, img.ingress);
  EXPECT_EQ(loaded.img.coordinator, img.coordinator);
  EXPECT_EQ(loaded.img.shards, img.shards);

  // A fresh manager over the same directory resumes the sequence.
  CheckpointManager again(dir);
  EXPECT_EQ(again.next_seq(), 4u);
}

TEST(CheckpointManagerTest, CorruptionAtEveryByteIsRejected) {
  std::string dir = FreshDir("ckpt_corrupt");
  CheckpointManager mgr(dir);
  ShardedAion::StateImage img;
  img.ingress = "iii";
  StateWriter coord;
  coord.U64(1);
  img.coordinator = coord.data();
  img.shards = {"sss"};
  ASSERT_TRUE(mgr.Write(img, 1, 1));
  auto all = CheckpointManager::List(dir);
  ASSERT_EQ(all.size(), 1u);
  const std::string path = all[0].second;
  std::string good;
  {
    FILE* f = fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    size_t n = fread(buf, 1, sizeof(buf), f);
    good.assign(buf, n);
    fclose(f);
  }
  CheckpointManager::Loaded loaded;
  ASSERT_TRUE(CheckpointManager::Load(path, &loaded));
  // Flip each byte in turn: every single-byte corruption must fail the
  // strict load (magic, framing, or section checksum).
  for (size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] ^= 0x40;
    FILE* f = fopen(path.c_str(), "wb");
    fwrite(bad.data(), 1, bad.size(), f);
    fclose(f);
    CheckpointManager::Loaded l;
    EXPECT_FALSE(CheckpointManager::Load(path, &l)) << "byte " << i;
  }
  // Truncation at any length must fail too.
  for (size_t len = 0; len < good.size(); len += 7) {
    FILE* f = fopen(path.c_str(), "wb");
    fwrite(good.data(), 1, len, f);
    fclose(f);
    CheckpointManager::Loaded l;
    EXPECT_FALSE(CheckpointManager::Load(path, &l)) << "len " << len;
  }
}

// Drives `checker` over arrivals[begin, end) with virtual time = index
// and a GC cadence, continuing `since_gc` across calls.
void DriveRange(ShardedAion* checker, const std::vector<Transaction>& arrivals,
                size_t begin, size_t end, size_t gc_every, size_t gc_target,
                size_t* since_gc) {
  for (size_t i = begin; i < end; ++i) {
    checker->OnTransaction(arrivals[i], i);
    if (gc_every > 0 && ++*since_gc >= gc_every) {
      *since_gc = 0;
      checker->GcToLiveTarget(gc_target);
    }
  }
}

struct Outcome {
  std::vector<Violation> emissions;
  CheckerStats stats;
  Timestamp watermark = kTsMin;
  uint64_t flips = 0;
};

// The mid-stream export/import identity that every section of the state
// image must uphold: run A straight through; run B to a cut, export,
// import into a fresh instance, continue; compare everything.
void ExpectRestoreIdentity(const History& h, bool shuffle, uint64_t timeout,
                           size_t gc_every, size_t gc_target,
                           const std::string& dir, size_t shards) {
  std::vector<Transaction> arrivals =
      shuffle ? SessionPreservingShuffle(h, 77) : h.txns;
  CheckerOptions opt;
  opt.ext_timeout_ms = timeout;

  Outcome ref;
  {
    CheckerOptions o = opt;
    o.spill_dir = dir + "/spill_ref";
    VectorSink sink;
    auto checker = std::make_unique<ShardedAion>(o, shards, &sink);
    size_t since_gc = 0;
    DriveRange(checker.get(), arrivals, 0, arrivals.size(), gc_every,
               gc_target, &since_gc);
    checker->Finish();
    ref.stats = checker->stats();
    ref.watermark = checker->watermark();
    ref.flips = checker->flip_stats().total_flips();
    checker.reset();
    ref.emissions = sink.TakeAll();
  }

  for (size_t cut : {size_t{1}, arrivals.size() / 3, arrivals.size() / 2,
                     arrivals.size() - 1}) {
    CheckerOptions o = opt;
    o.spill_dir = dir + "/spill_cut" + std::to_string(cut);
    fs::remove_all(o.spill_dir);
    ShardedAion::StateImage img;
    size_t since_gc = 0;
    {
      VectorSink discard;
      ShardedAion first(o, shards, &discard);
      DriveRange(&first, arrivals, 0, cut, gc_every, gc_target, &since_gc);
      img = first.ExportState();
    }
    VectorSink sink;
    auto second = std::make_unique<ShardedAion>(o, shards, &sink);
    ASSERT_TRUE(second->ImportState(img)) << "cut=" << cut;
    DriveRange(second.get(), arrivals, cut, arrivals.size(), gc_every,
               gc_target, &since_gc);
    second->Finish();
    EXPECT_EQ(second->stats(), ref.stats) << "cut=" << cut;
    EXPECT_EQ(second->watermark(), ref.watermark) << "cut=" << cut;
    EXPECT_EQ(second->flip_stats().total_flips(), ref.flips) << "cut=" << cut;
    second.reset();
    EXPECT_EQ(sink.TakeAll(), ref.emissions) << "cut=" << cut;
  }
}

TEST(StateImageTest, RegisterWorkloadRestoreIdentity) {
  // Shuffled arrival + GC + spill + finite timeout: exercises version
  // chains, ongoing intervals, spill manifests + epoch cache, straggler
  // reloads, EXT deadlines, unfinalized views, and buffered violations.
  std::string dir = FreshDir("img_reg");
  History h = MakeWorkload(500, 31, /*list_mode=*/false);
  ExpectRestoreIdentity(h, /*shuffle=*/true, /*timeout=*/40,
                        /*gc_every=*/32, /*gc_target=*/16, dir, 2);
}

TEST(StateImageTest, ListWorkloadRestoreIdentity) {
  // List chains: element buffers, merged-below deltas, boundary offsets.
  std::string dir = FreshDir("img_list");
  History h = MakeWorkload(400, 47, /*list_mode=*/true);
  ExpectRestoreIdentity(h, /*shuffle=*/true, /*timeout=*/60,
                        /*gc_every=*/40, /*gc_target=*/20, dir, 2);
}

TEST(StateImageTest, SingleShardRestoreIdentity) {
  std::string dir = FreshDir("img_one");
  History h = MakeWorkload(300, 53, /*list_mode=*/false);
  ExpectRestoreIdentity(h, /*shuffle=*/false, /*timeout=*/1u << 30,
                        /*gc_every=*/0, /*gc_target=*/0, dir, 1);
}

TEST(StateImageTest, ImportRejectsShardCountMismatch) {
  CheckerOptions opt;
  VectorSink s1, s2;
  ShardedAion two(opt, 2, &s1);
  ShardedAion::StateImage img = two.ExportState();
  ShardedAion three(opt, 3, &s2);
  EXPECT_FALSE(three.ImportState(img));
}

TEST(StateImageTest, MidStreamExportEqualsDrainedExport) {
  // The export is a command in every shard's stream: each worker
  // serializes its section when it reaches the command, while the caller
  // feeds on. With capacity-2 rings, one command per publication and
  // stalling workers, and with the sections collected on another thread
  // while later arrivals are still fed, the image must equal one taken
  // after draining the pipeline.
  const std::string dir = FreshDir("img_midstream");
  const History h = MakeWorkload(400, 61, /*list_mode=*/false);
  const std::vector<Transaction> arrivals = SessionPreservingShuffle(h, 5);
  CheckerOptions opt;
  opt.ext_timeout_ms = 40;
  for (size_t shards : {size_t{1}, size_t{2}, size_t{8}}) {
    for (size_t cut : {size_t{1}, arrivals.size() / 3, arrivals.size() - 1}) {
      const std::string tag =
          std::to_string(shards) + "_" + std::to_string(cut);
      const std::string what = "shards=" + std::to_string(shards) +
                               " cut=" + std::to_string(cut);
      ShardedAion::StateImage drained;
      {
        CheckerOptions o = opt;
        o.spill_dir = dir + "/drained" + tag;
        VectorSink discard;
        ShardedAion checker(o, shards, &discard);
        size_t since_gc = 0;
        DriveRange(&checker, arrivals, 0, cut, 32, 16, &since_gc);
        checker.FootprintExact();  // drains the pipeline
        drained = checker.ExportState();
      }
      CheckerOptions o = opt;
      o.spill_dir = dir + "/stream" + tag;
      std::atomic<uint64_t> calls{0};
      o.stall_hook = [&calls](size_t shard) {
        if ((calls.fetch_add(1, std::memory_order_relaxed) + shard) % 8 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        } else {
          std::this_thread::yield();
        }
      };
      VectorSink discard;
      ShardedAion checker(o, shards, &discard, /*cmd_batch=*/1,
                          /*queue_capacity=*/2);
      size_t since_gc = 0;
      DriveRange(&checker, arrivals, 0, cut, 32, 16, &since_gc);
      ShardedAion::PendingExport pending = checker.BeginExport();
      std::future<ShardedAion::StateImage> collected =
          std::async(std::launch::async, [&checker, &pending] {
            return checker.CompleteExport(std::move(pending));
          });
      DriveRange(&checker, arrivals, cut, arrivals.size(), 32, 16, &since_gc);
      const ShardedAion::StateImage img = collected.get();
      checker.Finish();
      EXPECT_TRUE(img.ingress == drained.ingress) << what;
      EXPECT_TRUE(img.coordinator == drained.coordinator) << what;
      EXPECT_TRUE(img.shards == drained.shards) << what;
    }
  }
}

// A fixed, generator-free arrival stream that fills every section of
// the image on 2 shards: register and list keys, stale register and list
// reads (EXT), an INT violation (held by the coordinator), overlapping
// writers (NOCONFLICT), swapped neighbours whose reads flip, and two
// transactions held back until GC has passed them (below-watermark
// stragglers: spill reloads, spilled intervals, a list delta merged
// below a collapsed, hash-trimmed base).
std::vector<Transaction> PinnedArrivals() {
  std::vector<Transaction> txns;
  std::map<Key, Value> reg;
  std::map<Key, std::vector<Value>> lists;
  for (uint64_t i = 0; i < 60; ++i) {
    Transaction t;
    t.tid = i + 1;
    t.sid = i % 4;
    t.sno = i / 4;
    t.start_ts = 10 * i + 2;
    t.commit_ts = 10 * i + 6;
    Key wk = (i * 3 + 1) % 5;
    if (i % 11 == 5) {
      t.start_ts = 10 * i - 13;  // spans the previous writer of the key
      wk = ((i - 1) * 3 + 1) % 5;
    } else {
      const Key rk = i % 5;
      const Value seen = reg.count(rk) ? reg[rk] : kValueInit;
      t.ops.push_back({OpType::kRead, rk, i % 7 == 3 ? seen + 1000 : seen, 0});
    }
    t.ops.push_back({OpType::kWrite, wk, static_cast<Value>(i + 1), 0});
    if (i == 20) t.ops.push_back({OpType::kRead, wk, 999, 0});
    const Key rlk = 100 + (i + 2) % 3;  // the predecessor's append key
    std::vector<Value> observed = lists[rlk];
    if (i % 9 == 4 && !observed.empty()) observed.back() += 1;
    Op l;
    l.type = OpType::kReadList;
    l.key = rlk;
    t.ops.push_back(l);
    t.list_args.push_back(std::move(observed));
    const Key lk = 100 + i % 3;
    t.ops.push_back({OpType::kAppend, lk, static_cast<Value>(10 * i), 0});
    reg[wk] = static_cast<Value>(i + 1);
    lists[lk].push_back(static_cast<Value>(10 * i));
    txns.push_back(std::move(t));
  }
  std::vector<Transaction> arrivals;
  for (uint64_t i = 0; i < txns.size(); ++i) {
    if (i == 13 || i == 14) continue;
    if (i % 15 == 10) std::swap(txns[i], txns[i + 1]);
    arrivals.push_back(txns[i]);
  }
  arrivals.push_back(txns[13]);
  arrivals.push_back(txns[14]);
  return arrivals;
}

CheckerOptions PinnedOptions(const std::string& spill_dir) {
  CheckerOptions opt;
  opt.ext_timeout_ms = 4;
  opt.spill_dir = spill_dir;
  return opt;
}

// Runs PinnedArrivals()[0, cut) on 2 shards: 1 ms per arrival, GC every
// 8 arrivals and one memory shed, then exports.
ShardedAion::StateImage RunPinned(const std::string& spill_dir, size_t cut,
                                  Outcome* seen = nullptr) {
  const std::vector<Transaction> arrivals = PinnedArrivals();
  VectorSink discard;
  ShardedAion checker(PinnedOptions(spill_dir), 2, &discard);
  for (size_t i = 0; i < cut; ++i) {
    checker.OnTransaction(arrivals[i], i);
    if ((i + 1) % 8 == 0) checker.GcToLiveTarget(3);
    if (i + 1 == 40) checker.ShedMemory();
  }
  ShardedAion::StateImage img = checker.ExportState();
  if (seen) {
    seen->stats = checker.stats();
    seen->watermark = checker.watermark();
    seen->flips = checker.flip_stats().total_flips();
  }
  return img;
}

uint64_t Fnv(const std::string& s) { return Fnv1a(s.data(), s.size()); }

TEST(StateImageTest, SectionBytesPinned) {
  // The checkpoint sections and spill epochs are an on-disk format: a
  // change to any byte of them is a format change, not a refactor.
  const std::string dir = FreshDir("img_pinned");
  Outcome seen;
  const ShardedAion::StateImage img =
      RunPinned(dir + "/spill", PinnedArrivals().size(), &seen);
  // The stream reaches what it is meant to cover.
  EXPECT_GT(seen.stats.gc_passes, 0u);
  EXPECT_GT(seen.stats.spill_reloads, 0u);
  EXPECT_GT(seen.stats.unsafe_below_horizon, 0u);
  EXPECT_GT(seen.flips, 0u);
  ASSERT_EQ(img.shards.size(), 2u);
  EXPECT_EQ(Fnv(img.ingress), 0xffee6153a131653bULL);
  EXPECT_EQ(Fnv(img.coordinator), 0xdf760dafbac4b25fULL);
  EXPECT_EQ(Fnv(img.shards[0]), 0x7b7dab50665d6703ULL);
  EXPECT_EQ(Fnv(img.shards[1]), 0x7c6261f3938ddc11ULL);
  std::map<std::string, uint64_t> epochs;
  for (const auto& e : fs::recursive_directory_iterator(dir + "/spill")) {
    if (e.is_regular_file()) {
      epochs[fs::relative(e.path(), dir).string()] = Fnv(Slurp(e.path()));
    }
  }
  const std::map<std::string, uint64_t> want = {
      {"spill/shard0/spill-1.bin", 0x44194a809b6dccdcULL},
      {"spill/shard0/spill-2.bin", 0x903732e9f881a1deULL},
      {"spill/shard0/spill-3.bin", 0x72c8a5e93a6b596aULL},
      {"spill/shard0/spill-4.bin", 0x713810d95f4aa146ULL},
      {"spill/shard0/spill-5.bin", 0xdd7e370d6b9ab1f8ULL},
      {"spill/shard0/spill-6.bin", 0x3c606e2ab036c2a9ULL},
      {"spill/shard0/spill-7.bin", 0x8fa0f0a0ad5b4072ULL},
      {"spill/shard1/spill-1.bin", 0x5a8d12735868c8fdULL},
      {"spill/shard1/spill-2.bin", 0x614b4804e0d7e6d0ULL},
      {"spill/shard1/spill-3.bin", 0xec6cfc69054e7136ULL},
      {"spill/shard1/spill-4.bin", 0xc47ff4747da0c03eULL},
      {"spill/shard1/spill-5.bin", 0x397ab164116c0770ULL},
      {"spill/shard1/spill-6.bin", 0x74747f181815405eULL},
      {"spill/shard1/spill-7.bin", 0x788828732f9b9a94ULL},
  };
  EXPECT_EQ(epochs, want);
}

// FNV-1a of every file directly under `dir` whose name starts with
// `prefix`, keyed by file name.
std::map<std::string, uint64_t> FileSums(const std::string& dir,
                                         const std::string& prefix) {
  std::map<std::string, uint64_t> sums;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (e.is_regular_file() && name.rfind(prefix, 0) == 0) {
      sums[name] = Fnv(Slurp(e.path().string()));
    }
  }
  return sums;
}

TEST(StateImageTest, CheckpointFileBytesPinned) {
  // SectionBytesPinned fixes the sections; this fixes the framing that
  // CheckpointManager::Write puts around them (header, header checksum,
  // per-section length and checksum, footer).
  const std::string dir = FreshDir("ckpt_file_pinned");
  const ShardedAion::StateImage img =
      RunPinned(dir + "/spill", PinnedArrivals().size());
  CheckpointManager mgr(dir + "/ckpt");
  ASSERT_TRUE(mgr.Write(img, /*wal_seq=*/60, /*events=*/60));
  const std::map<std::string, uint64_t> want = {
      {"ckpt-1.ckpt", 0x00059047003aaa31ULL}};
  EXPECT_EQ(FileSums(dir + "/ckpt", "ckpt-"), want);
}

TEST(WalTest, ThreeRecordFileBytesPinned) {
  // One plain step, one with GC and shed decisions, one tagged
  // transaction with no operations.
  const std::string path = FreshDir("wal_pinned") + "/wal.log";
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(path));
    WalRecord r;
    r.seq = 1;
    r.now_ms = 17;
    r.txn = OneTxn();
    ASSERT_TRUE(w.LogStep(r));
    r.seq = 2;
    r.now_ms = 18;
    r.gc = true;
    r.gc_target = 32;
    r.shed = true;
    r.txn.iso = IsolationLevel::kRc;
    ASSERT_TRUE(w.LogStep(r));
    r.seq = 3;
    r.now_ms = 1u << 20;
    r.gc = r.shed = false;
    r.txn.ops.clear();
    r.txn.list_args.clear();
    r.txn.iso = IsolationLevel::kSer;
    ASSERT_TRUE(w.LogStep(r));
  }
  EXPECT_EQ(Fnv(Slurp(path)), 0xb97b66294568112eULL);
}

TEST(DurableRunnerTest, DirectoryBytesPinned) {
  // The durable driver end to end over the pinned stream: the WAL it
  // logs through Feed and the checkpoints it cuts on its cadence,
  // retention included.
  const std::string dir = FreshDir("durable_pinned");
  const std::vector<Transaction> arrivals = PinnedArrivals();
  VectorSink discard;
  auto checker = std::make_unique<ShardedAion>(PinnedOptions(dir + "/spill"),
                                               2, &discard);
  DurableRunner::Options dopts;
  dopts.dir = dir;
  dopts.checkpoint_every_events = 16;
  dopts.gc = GcPolicy::Every(8, 3);
  {
    DurableRunner runner(checker.get(), dopts);
    AssumeRole driver(runner.driver_role);  // single-threaded test driver
    for (size_t i = 0; i < arrivals.size(); ++i) {
      ASSERT_TRUE(runner.Feed(arrivals[i], i));
    }
    ASSERT_TRUE(runner.Finish());
    EXPECT_EQ(runner.checkpoints_written(), 3u);
  }
  const std::map<std::string, uint64_t> want_ckpts = {
      {"ckpt-2.ckpt", 0x9dd15c698893fa82ULL},
      {"ckpt-3.ckpt", 0xe786557ff11047eeULL}};
  EXPECT_EQ(FileSums(dir, "ckpt-"), want_ckpts);
  const std::map<std::string, uint64_t> want_wal = {
      {"wal.log", 0x1f215985ed16edd8ULL}};
  EXPECT_EQ(FileSums(dir, "wal.log"), want_wal);
}

TEST(DurableRunnerTest, FailedCheckpointWriteFailsTheRun) {
  // A directory where the first checkpoint's tmp file belongs makes its
  // fopen fail on the writer task. The failure must stop the run at the
  // step that cuts the next checkpoint at the latest, or at Finish when
  // the stream ends first, and the checkpoint must never land.
  const std::vector<Transaction> arrivals = PinnedArrivals();
  for (const bool stop_before_next : {false, true}) {
    const std::string dir =
        FreshDir(stop_before_next ? "failed_finish" : "failed_feed");
    fs::create_directories(dir + "/ckpt-1.ckpt.tmp");
    VectorSink discard;
    auto checker = std::make_unique<ShardedAion>(
        PinnedOptions(dir + "/spill"), 2, &discard);
    DurableRunner::Options dopts;
    dopts.dir = dir;
    dopts.checkpoint_every_events = 20;
    DurableRunner runner(checker.get(), dopts);
    AssumeRole driver(runner.driver_role);  // single-threaded test driver
    const size_t fed = stop_before_next ? 30 : arrivals.size();
    size_t failed_at = 0;
    for (size_t i = 0; i < fed && failed_at == 0; ++i) {
      if (!runner.Feed(arrivals[i], i)) failed_at = i + 1;
    }
    if (stop_before_next) {
      EXPECT_FALSE(runner.Finish());
    } else {
      ASSERT_GE(failed_at, 20u);
      ASSERT_LE(failed_at, 40u);
      EXPECT_FALSE(runner.Feed(arrivals[failed_at], failed_at));
      EXPECT_FALSE(runner.Finish());
    }
    EXPECT_FALSE(runner.ok());
    EXPECT_EQ(runner.checkpoints_written(), 0u);
    EXPECT_FALSE(fs::exists(dir + "/ckpt-1.ckpt"));
    EXPECT_TRUE(CheckpointManager::List(dir).empty());
  }
}

TEST(StateImageTest, ImportThenExportIsByteIdentical) {
  const std::string dir = FreshDir("img_reexport");
  const size_t n = PinnedArrivals().size();
  for (size_t cut : {size_t{9}, size_t{25}, size_t{41}, n - 1, n}) {
    const std::string spill = dir + "/spill" + std::to_string(cut);
    const ShardedAion::StateImage img = RunPinned(spill, cut);
    VectorSink discard;
    ShardedAion restored(PinnedOptions(spill), 2, &discard);
    ASSERT_TRUE(restored.ImportState(img)) << "cut=" << cut;
    const ShardedAion::StateImage again = restored.ExportState();
    EXPECT_TRUE(again.ingress == img.ingress) << "cut=" << cut;
    EXPECT_TRUE(again.coordinator == img.coordinator) << "cut=" << cut;
    EXPECT_TRUE(again.shards == img.shards) << "cut=" << cut;
  }
}

TEST(SpillCorruptionTest, CorruptEpochsDegradeDeterministically) {
  // Corrupt every spill epoch file mid-stream: subsequent straggler
  // reloads must count corrupt_spill_epochs (loud, not a silent miss),
  // degrade to unsafe_below_watermark accounting like a spill-less GC
  // (divergence entry D7), and stay fully deterministic — two runs with
  // the same corruption point emit identical verdicts.
  History writers = chronos::testing::HistoryBuilder()
                        .Txn(1, 0, 0, 10, 15).W(7, 1)
                        .Txn(2, 0, 1, 20, 25).W(7, 2)
                        .Txn(3, 0, 2, 30, 35).W(7, 3)
                        .Build();
  Transaction straggler;
  straggler.tid = 9;
  straggler.sid = 1;
  straggler.sno = 0;
  straggler.start_ts = 16;
  straggler.commit_ts = 17;
  straggler.ops.push_back({OpType::kRead, 7, 1, 0});

  auto run = [&](const std::string& dir) {
    CheckerOptions opt;
    opt.ext_timeout_ms = 100;
    opt.spill_dir = dir;
    VectorSink sink;
    auto checker = std::make_unique<ShardedAion>(opt, 2, &sink);
    uint64_t now = 0;
    for (const Transaction& t : writers.txns) {
      checker->OnTransaction(t, now += 10);
    }
    checker->AdvanceTime(1000);  // finalize the writers
    checker->Gc(26);             // collapse + spill the early versions
    checker->FootprintExact();   // barrier: workers idle, files closed
    for (const auto& e : fs::recursive_directory_iterator(dir)) {
      if (!e.is_regular_file()) continue;
      FILE* f = fopen(e.path().string().c_str(), "wb");
      fputs("garbage", f);
      fclose(f);
    }
    checker->OnTransaction(straggler, 2000);  // reload hits corruption
    checker->Finish();
    Outcome out;
    out.stats = checker->stats();
    out.watermark = checker->watermark();
    checker.reset();
    out.emissions = sink.TakeAll();
    return out;
  };
  Outcome a = run(FreshDir("spillcorrupt_a"));
  Outcome b = run(FreshDir("spillcorrupt_b"));
  EXPECT_GT(a.stats.corrupt_spill_epochs, 0u);
  EXPECT_GT(a.stats.unsafe_below_watermark, 0u);
  // Best-effort degradation proceeds from the in-memory state (the same
  // verdict a spill-less run would reach), so emissions need not be
  // empty — but they must be identical across runs.
  EXPECT_EQ(a.stats, b.stats);
  EXPECT_EQ(a.emissions, b.emissions);
  EXPECT_EQ(a.watermark, b.watermark);
}

TEST(SpillCorruptionTest, CorruptEpochIsCountedOnceAcrossRestore) {
  // The set of epochs already found corrupt is checker state: a restored
  // checker must not count (and log) a corrupt epoch a second time.
  History writers = chronos::testing::HistoryBuilder()
                        .Txn(1, 0, 0, 10, 15).W(7, 1)
                        .Txn(2, 0, 1, 20, 25).W(7, 2)
                        .Txn(3, 0, 2, 30, 35).W(7, 3)
                        .Build();
  auto straggler = [](TxnId tid, SessionId sid, Timestamp ts) {
    Transaction t;
    t.tid = tid;
    t.sid = sid;
    t.sno = 0;
    t.start_ts = ts;
    t.commit_ts = ts + 1;
    t.ops.push_back({OpType::kRead, 7, 1, 0});
    return t;
  };
  auto run = [&](const std::string& dir, bool restore) {
    CheckerOptions opt;
    opt.ext_timeout_ms = 100;
    opt.spill_dir = dir;
    VectorSink sink;
    auto checker = std::make_unique<ShardedAion>(opt, 1, &sink);
    uint64_t now = 0;
    for (const Transaction& t : writers.txns) {
      checker->OnTransaction(t, now += 10);
    }
    checker->AdvanceTime(1000);  // finalize the writers
    checker->Gc(26);             // collapse + spill the early versions
    checker->FootprintExact();   // barrier: workers idle, files closed
    for (const auto& e : fs::recursive_directory_iterator(dir)) {
      if (!e.is_regular_file()) continue;
      FILE* f = fopen(e.path().string().c_str(), "wb");
      fputs("garbage", f);
      fclose(f);
    }
    checker->OnTransaction(straggler(9, 1, 16), 2000);
    if (restore) {
      ShardedAion::StateImage img = checker->ExportState();
      checker = std::make_unique<ShardedAion>(opt, 1, &sink);
      EXPECT_TRUE(checker->ImportState(img));
    }
    checker->OnTransaction(straggler(10, 2, 18), 2010);
    checker->Finish();
    Outcome out;
    out.stats = checker->stats();
    out.watermark = checker->watermark();
    return out;
  };
  Outcome straight = run(FreshDir("spillcorrupt_once_a"), false);
  Outcome restored = run(FreshDir("spillcorrupt_once_b"), true);
  EXPECT_EQ(straight.stats.corrupt_spill_epochs, 1u);
  EXPECT_EQ(restored.stats, straight.stats);
  EXPECT_EQ(restored.watermark, straight.watermark);
}

// A real epoch holding versions, intervals and list versions.
SpillPayload MixedPayload() {
  SpillPayload p;
  p.max_ts = 90;
  p.versions.emplace_back(1, 10, VersionEntry{7, 42});
  p.versions.emplace_back(2, 20, VersionEntry{-3, 43});
  p.intervals.emplace_back(1, WriteInterval{5, 10, 42});
  p.intervals.emplace_back(3, WriteInterval{15, 30, 44});
  p.list_versions.push_back({4, 12, 45, {1, -2, 3}});
  p.list_versions.push_back({4, 25, 46, {}});
  return p;
}

TEST(SpillCorruptionTest, OversizedCountLoadsAsCorrupt) {
  const std::string dir = FreshDir("spill_huge");
  SpillStore store(dir);
  const uint64_t id = store.Spill(MixedPayload());
  ASSERT_NE(id, 0u);
  for (int field = 0; field < 3; ++field) {
    // max_ts, then the three counts in turn; the oversized one leads a
    // section that cannot hold it.
    StateWriter w;
    w.U64(90);
    for (int f = 0; f < field; ++f) w.U64(0);
    w.U64(uint64_t{1} << 61);
    w.U64(0);
    WriteBytes(store.PathFor(id), w.data());
    SpillPayload loaded;
    EXPECT_EQ(store.Load(id, &loaded), SpillStore::LoadStatus::kCorrupt)
        << "count " << field;
  }
}

TEST(SpillCorruptionTest, EpochCorruptionAtEveryByteIsSafe) {
  // Every byte replaced in turn loads as kOk or kCorrupt, never crashes
  // or allocates beyond the file's size; every truncation is kCorrupt.
  const std::string dir = FreshDir("spill_sweep");
  SpillStore store(dir);
  const uint64_t id = store.Spill(MixedPayload());
  ASSERT_NE(id, 0u);
  const std::string good = Slurp(store.PathFor(id));
  SpillPayload loaded;
  ASSERT_EQ(store.Load(id, &loaded), SpillStore::LoadStatus::kOk);
  for (size_t i = 0; i < good.size(); ++i) {
    const unsigned char x = static_cast<unsigned char>(good[i]);
    for (unsigned char c : {static_cast<unsigned char>(x ^ 0x01),
                            static_cast<unsigned char>(x ^ 0x80),
                            static_cast<unsigned char>(0x00),
                            static_cast<unsigned char>(0xFF)}) {
      if (c == x) continue;
      std::string bad = good;
      bad[i] = static_cast<char>(c);
      WriteBytes(store.PathFor(id), bad);
      SpillPayload got;
      const SpillStore::LoadStatus st = store.Load(id, &got);
      ASSERT_NE(st, SpillStore::LoadStatus::kMissing) << "byte " << i;
      if (st != SpillStore::LoadStatus::kOk) continue;
      size_t elems = 0;
      for (const ListSpillVersion& lv : got.list_versions) {
        elems += lv.delta.size();
      }
      EXPECT_LE(got.versions.size() + got.intervals.size() +
                    got.list_versions.size() + elems,
                bad.size() / 8)
          << "byte " << i;
    }
  }
  for (size_t len = 0; len < good.size(); ++len) {
    WriteBytes(store.PathFor(id), good.substr(0, len));
    SpillPayload got;
    EXPECT_EQ(store.Load(id, &got), SpillStore::LoadStatus::kCorrupt)
        << "len " << len;
  }
}

// Hand-written checkpoint sections: a checksum only proves the bytes are
// the ones written, so each of these is a valid checkpoint file whose
// state must still be refused at import.
constexpr uint64_t kHuge = uint64_t{1} << 61;

// A shard section in the checkpoint layout: zero stats, no flips, no
// violations, then `engine`.
std::string ShardSection(const std::function<void(StateWriter&)>& engine) {
  StateWriter w;
  for (int i = 0; i < 8; ++i) w.U64(0);   // stats
  w.U64(0);                               // flips total
  w.U64(0);                               // per-txn flips
  for (int i = 0; i < 10; ++i) w.U64(0);  // flip histograms
  w.U64(0);                               // violations
  engine(w);
  return w.Take();
}

// The engine layout with every part empty except those `fill` writes
// itself: part 0 watermark, 1 versions, 2 lists, 3 intervals, 4 spill
// manifest, 5 local transactions, 6 commit index.
std::function<void(StateWriter&)> Engine(
    int part, std::function<void(StateWriter&)> fill = nullptr) {
  return [part, fill](StateWriter& w) {
    const std::vector<std::vector<uint64_t>> empty = {
        {0}, {0}, {0, 0}, {0}, {1, 0, 0, 0}, {0}, {0}};
    for (int p = 0; p < static_cast<int>(empty.size()); ++p) {
      if (p == part && fill) {
        fill(w);
      } else {
        for (uint64_t v : empty[p]) w.U64(v);
      }
    }
  };
}

ShardedAion::StateImage FreshImage() {
  CheckerOptions opt;
  VectorSink sink;
  ShardedAion fresh(opt, 1, &sink);
  return fresh.ExportState();
}

// Writes a valid checkpoint of a fresh 1-shard checker, then `img` as
// the newer one, and recovers: recovery must refuse `img` and resume
// from its predecessor.
void ExpectRecoveryFallsBack(const std::string& name,
                             const ShardedAion::StateImage& img) {
  const std::string dir = FreshDir("crafted_" + name);
  CheckerOptions opt;
  opt.spill_dir = dir + "/spill";
  CheckpointManager mgr(dir);
  ASSERT_TRUE(mgr.Write(FreshImage(), 0, 0));
  ASSERT_TRUE(mgr.Write(img, 0, 0));
  VectorSink sink;
  RecoverResult res = Recover(opt, dir, &sink, 1);
  ASSERT_NE(res.checker, nullptr) << name << ": " << res.error;
  EXPECT_TRUE(res.used_fallback) << name;
  EXPECT_TRUE(res.from_checkpoint) << name;
  EXPECT_EQ(res.ckpt_seq, 1u) << name;
}

TEST(CraftedCheckpointTest, HandWrittenEmptyShardMatchesExport) {
  // Keeps the crafted sections below honest about the layout.
  EXPECT_TRUE(ShardSection(Engine(-1)) == FreshImage().shards[0]);
}

TEST(CraftedCheckpointTest, OversizedCountsFallBack) {
  // Each count leads a section that cannot hold it.
  const std::vector<std::pair<std::string, std::string>> shards = {
      {"version_chain", ShardSection(Engine(1, [](StateWriter& w) {
         w.U64(1);  // keys
         w.U64(5);
         w.U64(kHuge);
       }))},
      {"list_versions", ShardSection(Engine(2, [](StateWriter& w) {
         w.U64(0);  // total_trimmed
         w.U64(1);  // keys
         w.U64(7);
         w.U64(kHuge);
       }))},
      {"list_merged_below", ShardSection(Engine(2, [](StateWriter& w) {
         w.U64(0);
         w.U64(1);
         w.U64(7);
         w.U64(0);  // versions
         w.Values({});
         w.U64(kHuge);
       }))},
      {"intervals", ShardSection(Engine(3, [](StateWriter& w) {
         w.U64(1);
         w.U64(5);
         w.U64(kHuge);
       }))},
      {"ext_reads", ShardSection(Engine(5, [](StateWriter& w) {
         w.U64(1);  // transactions
         for (uint64_t v : {1, 1, 2, 0, 2}) w.U64(v);  // tid .. level
         w.U64(kHuge);
       }))},
      {"engine_commit_index", ShardSection(Engine(6, [](StateWriter& w) {
         w.U64(kHuge);
       }))},
  };
  for (const auto& [name, shard] : shards) {
    ShardedAion::StateImage img = FreshImage();
    img.shards[0] = shard;
    ExpectRecoveryFallsBack(name, img);
  }
  StateWriter ingress;
  for (uint64_t v : {0, 0, 0}) ingress.U64(v);  // watermark, now, txns
  ingress.U64(kHuge);                            // commit index
  ShardedAion::StateImage img = FreshImage();
  img.ingress = ingress.Take();
  ExpectRecoveryFallsBack("ingress_commit_index", img);
}

TEST(CraftedCheckpointTest, ListBoundaryOutsideItsBufferFallsBack) {
  // MakePrefix reads end_off elements from the key's buffer.
  auto list = [](std::vector<uint64_t> end_offs, uint64_t trimmed) {
    return ShardSection(Engine(2, [=](StateWriter& w) {
      w.U64(0);
      w.U64(1);
      w.U64(7);
      w.U64(end_offs.size());
      uint64_t ts = 10;
      for (uint64_t end : end_offs) {
        for (uint64_t v : {ts++, uint64_t{1}, uint64_t{1}, end}) w.U64(v);
      }
      w.Values({5, 6});
      w.U64(0);  // merged below
      w.U64(trimmed);
      w.U64(kFnvOffset);
      w.U8(false);
    }));
  };
  ShardedAion::StateImage img = FreshImage();
  img.shards[0] = list({1, 2}, 0);
  VectorSink sink;
  ShardedAion ok(CheckerOptions{}, 1, &sink);
  ASSERT_TRUE(ok.ImportState(img));  // the well-formed control
  for (const auto& [name, shard] :
       std::vector<std::pair<std::string, std::string>>{
           {"past_buffer", list({1, 1000}, 0)},
           {"past_trimmed_buffer", list({3, 5}, 2)},
           {"decreasing", list({2, 1}, 0)},
           {"delta_before_previous_end", list({1, 1}, 0)},
           {"below_trim_cut", list({1, 2}, 2)}}) {
    img.shards[0] = shard;
    ExpectRecoveryFallsBack(name, img);
  }
}

TEST(CraftedCheckpointTest, ReadMaskPastShardCountFallsBack) {
  // DispatchFinalize sends a finalize to every shard the mask names.
  auto coordinator = [](uint64_t mask) {
    StateWriter w;
    w.U64(1);                              // shards
    for (int i = 0; i < 8; ++i) w.U64(0);  // stats
    w.U64(0);                              // violations
    w.U64(1);                              // masks
    w.U64(9);                              // tid
    w.U64(mask);
    return w.Take();
  };
  ShardedAion::StateImage img = FreshImage();
  img.coordinator = coordinator(0x1);
  VectorSink sink;
  ShardedAion ok(CheckerOptions{}, 1, &sink);
  ASSERT_TRUE(ok.ImportState(img));  // the well-formed control
  img.coordinator = coordinator(0x80);
  ExpectRecoveryFallsBack("mask", img);
}

TEST(CraftedCheckpointTest, ReaderLevelOutOfRangeFallsBack) {
  for (uint64_t level : {uint64_t{0}, uint64_t{5}, uint64_t{255}}) {
    ShardedAion::StateImage img = FreshImage();
    img.shards[0] = ShardSection(Engine(5, [level](StateWriter& w) {
      w.U64(1);
      for (uint64_t v : {uint64_t{1}, uint64_t{1}, uint64_t{2}, uint64_t{0},
                         level, uint64_t{0}, uint64_t{0}}) {
        w.U64(v);  // tid, view, commit, finalized, level, no reads
      }
    }));
    ExpectRecoveryFallsBack("level" + std::to_string(level), img);
  }
}

TEST(CraftedCheckpointTest, FinalizedViewOutsideTheViewsFallsBack) {
  // OldestUnfinalizedView cancels each finalized view against an equal
  // view, so every finalized view must be among the views.
  auto ingress = [](std::vector<uint64_t> views,
                    std::vector<uint64_t> finalized) {
    StateWriter w;
    for (uint64_t v : {0, 0, 0, 0}) w.U64(v);  // watermark .. commit index
    for (const std::vector<uint64_t>* heap : {&views, &finalized}) {
      w.U64(heap->size());
      for (uint64_t v : *heap) w.U64(v);
    }
    for (uint64_t v : {0, 0, 0, 0}) w.U64(v);  // registry twice .. deadlines
    return w.Take();
  };
  ShardedAion::StateImage img = FreshImage();
  EXPECT_TRUE(ingress({}, {}) == img.ingress);  // the layout, kept honest
  img.ingress = ingress({5, 7}, {5});
  VectorSink sink;
  ShardedAion ok(CheckerOptions{}, 1, &sink);
  ASSERT_TRUE(ok.ImportState(img));  // the well-formed control
  for (const auto& [name, finalized] :
       std::vector<std::pair<std::string, std::vector<uint64_t>>>{
           {"not_a_view", {6}}, {"twice", {5, 5}}, {"below_views", {3}}}) {
    img.ingress = ingress({5, 7}, finalized);
    ExpectRecoveryFallsBack(name, img);
  }
}

TEST(DurableRunnerTest, SameGcPolicyAsRunMaxRateGivesSameRun) {
  // The two online drivers share one GcPolicy decision: the same stream
  // and policy must collect at the same arrivals, so the checker ends in
  // the same state, and every collection is one gc=1 WAL record.
  std::string dir = FreshDir("driver_parity");
  History h = MakeWorkload(900, 29, /*list_mode=*/false);
  hist::CollectorParams cp;
  cp.delay_mean_ms = 20;
  cp.delay_stddev_ms = 10;
  auto stream = hist::ScheduleDelivery(h, cp);
  const GcPolicy gc = GcPolicy::Every(50, 40);

  CheckerOptions opt;
  opt.ext_timeout_ms = 100;
  Outcome max_rate;
  {
    CheckerOptions o = opt;
    o.spill_dir = dir + "/spill_max_rate";
    VectorSink sink;
    auto checker = std::make_unique<ShardedAion>(o, 1, &sink);
    RunMaxRate(checker.get(), stream, gc);
    max_rate.stats = checker->stats();
    max_rate.watermark = checker->watermark();
    checker.reset();
    max_rate.emissions = sink.TakeAll();
  }

  CheckerOptions o = opt;
  o.spill_dir = dir + "/spill_durable";
  VectorSink sink;
  auto checker = std::make_unique<ShardedAion>(o, 1, &sink);
  DurableRunner::Options dopts;
  dopts.dir = dir + "/run";
  dopts.gc = gc;
  size_t due = 0;
  {
    DurableRunner runner(checker.get(), dopts);
    AssumeRole driver(runner.driver_role);  // single-threaded test driver
    for (size_t i = 0; i < stream.size(); ++i) {
      ASSERT_TRUE(runner.Feed(stream[i].txn, stream[i].deliver_at_ms));
      due += gc.Due(i + 1, *checker) ? 1 : 0;
    }
    ASSERT_TRUE(runner.Finish());
  }
  EXPECT_GT(max_rate.stats.gc_passes, 0u);
  EXPECT_EQ(checker->stats(), max_rate.stats);
  EXPECT_EQ(checker->watermark(), max_rate.watermark);
  checker.reset();
  EXPECT_EQ(sink.TakeAll(), max_rate.emissions);

  std::vector<WalRecord> recs;
  uint64_t valid = 0;
  ASSERT_TRUE(ReadWalRecords(dopts.dir + "/wal.log", &recs, &valid));
  ASSERT_EQ(recs.size(), stream.size());
  EXPECT_EQ(due, stream.size() / 50);
  EXPECT_EQ(static_cast<size_t>(std::count_if(
                recs.begin(), recs.end(),
                [](const WalRecord& r) { return r.gc; })),
            due);
  fs::remove_all(dir);
}

TEST(MemoryCeilingTest, ShedsKeepFootprintBoundedWithoutVerdictChanges) {
  // Append-heavy clean list workload in commit order: the ceiling
  // forces aggressive GC + list-buffer trims. Degradation is
  // deterministic-OPTIMISTIC — reads into shed state become unsafe_*
  // counts, never fabricated violations — so on a clean history the
  // ceilinged run must emit exactly what the ceilingless run emits:
  // nothing. (Faulty workloads under a ceiling are covered by the
  // kill-point sweep, where both sides degrade identically.)
  std::string dir = FreshDir("ceiling");
  workload::WorkloadParams p;
  p.sessions = 6;
  p.txns = 600;
  p.ops_per_txn = 8;
  p.keys = 10;  // few keys: long lists
  p.seed = 71;
  p.list_mode = true;
  History h = workload::GenerateDefaultHistory(p);

  CheckerOptions opt;
  opt.ext_timeout_ms = 8;  // prompt finalization: state is GC-evictable

  // Reference: no ceiling. Track the peak exact footprint to size the
  // ceiling meaningfully below it.
  Outcome ref;
  size_t peak = 0;
  {
    CheckerOptions o = opt;
    o.spill_dir = dir + "/spill_ref";
    VectorSink sink;
    auto checker = std::make_unique<ShardedAion>(o, 2, &sink);
    DurableRunner::Options dopts;
    dopts.dir = dir + "/ref";
    dopts.gc = GcPolicy::Every(64, 64);
    DurableRunner runner(checker.get(), dopts);
    AssumeRole driver(runner.driver_role);  // single-threaded test driver
    for (size_t i = 0; i < h.txns.size(); ++i) {
      ASSERT_TRUE(runner.Feed(h.txns[i], i));
      if (i % 16 == 0) {
        peak = std::max(peak, checker->FootprintExact().approx_bytes);
      }
    }
    ASSERT_TRUE(runner.Finish());
    ref.stats = checker->stats();
    checker.reset();
    ref.emissions = sink.TakeAll();
  }
  ASSERT_GT(peak, 0u);
  EXPECT_TRUE(ref.emissions.empty());  // clean history, clean verdict

  const size_t ceiling = peak / 2;
  CheckerOptions o = opt;
  o.spill_dir = dir + "/spill_ceiling";
  VectorSink sink;
  auto checker = std::make_unique<ShardedAion>(o, 2, &sink);
  DurableRunner::Options dopts;
  dopts.dir = dir + "/run";
  dopts.gc = GcPolicy::Every(64, 64);
  dopts.memory_ceiling_bytes = ceiling;
  DurableRunner runner(checker.get(), dopts);
  AssumeRole driver(runner.driver_role);  // single-threaded test driver
  for (size_t i = 0; i < h.txns.size(); ++i) {
    ASSERT_TRUE(runner.Feed(h.txns[i], i));
    // At every check boundary the runner just shed if it was over: the
    // footprint must be back under the ceiling.
    if ((i + 1) % DurableRunner::kCeilingCheckEvery == 0) {
      EXPECT_LE(checker->FootprintExact().approx_bytes, ceiling)
          << "event " << i;
    }
  }
  ASSERT_TRUE(runner.Finish());
  EXPECT_GT(runner.sheds(), 0u);
  // Degradation is accounted, never silent — and the verdict stream is
  // byte-identical to the ceilingless run.
  CheckerStats st = checker->stats();
  EXPECT_EQ(st.txns_processed, ref.stats.txns_processed);
  checker.reset();
  EXPECT_EQ(sink.TakeAll(), ref.emissions);
}

}  // namespace
}  // namespace chronos::online

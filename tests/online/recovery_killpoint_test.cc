// Kill-point recovery sweep (ISSUE: crash-safe checkpoint/restore).
//
// The durability contract under test: a checker process killed at ANY
// point — between two Feed steps, or mid-byte while appending a WAL
// record — recovers via online/recovery.h and, after refeeding the
// not-yet-logged tail of the stream, finishes VERDICT-IDENTICAL to an
// uninterrupted run: same violation emission sequence (order included),
// same merged stats, same watermark, same flip-flop totals.
//
// Two kill models:
//   - event-boundary kills: feed k steps through a DurableRunner, then
//     destroy runner + checker without Finish. The WAL writes records
//     in groups and its destructor writes the pending ones, so the
//     on-disk state is that of a crash right after step k (the runner's
//     destructor also lets a checkpoint write in flight land; a crash
//     before it lands is the torn-tmp fallback case below). A real
//     process death loses the steps since the last group write too:
//     the byte-truncation kills below cover that, and tools/ci.sh's
//     crash-recovery stage kills a chronos_check process with SIGKILL.
//   - byte-truncation kills: run the whole stream (again without
//     Finish), then truncate wal.log at an arbitrary offset — torn
//     tails, mid-record cuts, even cuts below the newest checkpoint's
//     coverage (harmless: replay skips seq <= the checkpoint's cut).
//
// Plus the fallback paths: corrupt newest checkpoint -> predecessor,
// all checkpoints gone -> pure WAL replay, a torn tmp of a checkpoint
// that never landed -> ignored; and spill identity: resuming
// from any retained checkpoint rewrites the later spill epochs byte for
// byte as the uninterrupted run wrote them.
//
// The tier-1 run sweeps a bounded set of kill points per scenario; set
// CHRONOS_KILLPOINT_EXHAUSTIVE=1 to sweep every event boundary and a
// much larger truncation set (CI's crash-recovery stage).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "../testutil.h"
#include "online/checkpoint.h"
#include "online/recovery.h"
#include "online/sharded_aion.h"
#include "workload/generator.h"

namespace chronos::online {
namespace {

namespace fs = std::filesystem;

using chronos::testing::SessionPreservingShuffle;

bool Exhaustive() {
  const char* e = std::getenv("CHRONOS_KILLPOINT_EXHAUSTIVE");
  return e != nullptr && e[0] == '1';
}

std::string FreshDir(const std::string& name) {
  return chronos::testing::UniqueTempDir(name);
}

struct Scenario {
  std::string name;
  std::vector<Transaction> arrivals;
  uint64_t ext_timeout_ms = 1u << 30;
  size_t shards = 2;
  uint64_t checkpoint_every = 0;
  size_t gc_every = 0;
  size_t gc_target = 0;
  size_t memory_ceiling = 0;
};

CheckerOptions Opt(const Scenario& sc, const std::string& dir) {
  CheckerOptions opt;
  opt.ext_timeout_ms = sc.ext_timeout_ms;
  opt.spill_dir = dir + "/spill";
  return opt;
}

DurableRunner::Options Dopts(const Scenario& sc, const std::string& dir) {
  DurableRunner::Options d;
  d.dir = dir;
  d.checkpoint_every_events = sc.checkpoint_every;
  d.gc = GcPolicy::Every(sc.gc_every, sc.gc_target);
  d.memory_ceiling_bytes = sc.memory_ceiling;
  return d;
}

struct Outcome {
  std::vector<Violation> emissions;
  CheckerStats stats;
  Timestamp watermark = kTsMin;
  uint64_t flips = 0;
  uint64_t sheds = 0;
};

/// The uninterrupted run: every scenario's ground truth.
Outcome RunUninterrupted(const Scenario& sc, const std::string& dir) {
  Outcome out;
  VectorSink sink;
  auto checker = std::make_unique<ShardedAion>(Opt(sc, dir), sc.shards, &sink);
  DurableRunner runner(checker.get(), Dopts(sc, dir));
  AssumeRole driver(runner.driver_role);  // single-threaded test driver
  for (size_t i = 0; i < sc.arrivals.size(); ++i) {
    EXPECT_TRUE(runner.Feed(sc.arrivals[i], i));
  }
  EXPECT_TRUE(runner.Finish());
  out.stats = checker->stats();
  out.watermark = checker->watermark();
  out.flips = checker->flip_stats().total_flips();
  out.sheds = runner.sheds();
  checker.reset();
  out.emissions = sink.TakeAll();
  return out;
}

/// The file offset just past each record of the WAL in `dir`: the end of
/// each "E <checksum>" line.
std::vector<uint64_t> WalRecordEnds(const std::string& dir) {
  std::ifstream in(dir + "/wal.log", std::ios::binary);
  std::vector<uint64_t> ends;
  uint64_t at = 0;
  std::string line;
  while (std::getline(in, line)) {
    at += line.size() + 1;
    if (!line.empty() && line[0] == 'E') ends.push_back(at);
  }
  return ends;
}

/// Feeds the first `k` steps, then "crashes" (no Finish, no final
/// checkpoint — just process death). Returns the WAL size after every
/// step, for the truncation sweep. Records are written in groups, so
/// those sizes are the record boundaries of the finished file.
std::vector<uint64_t> RunAndCrash(const Scenario& sc, const std::string& dir,
                                  size_t k) {
  {
    VectorSink discard;
    auto checker =
        std::make_unique<ShardedAion>(Opt(sc, dir), sc.shards, &discard);
    DurableRunner runner(checker.get(), Dopts(sc, dir));
    AssumeRole driver(runner.driver_role);  // single-threaded test driver
    for (size_t i = 0; i < k; ++i) {
      EXPECT_TRUE(runner.Feed(sc.arrivals[i], i));
    }
  }
  std::vector<uint64_t> wal_sizes = WalRecordEnds(dir);
  EXPECT_EQ(wal_sizes.size(), k);
  return wal_sizes;
}

/// Recovers from `dir`, refeeds the rest of the stream, finishes.
Outcome RecoverAndFinish(const Scenario& sc, const std::string& dir,
                         const std::string& what) {
  Outcome out;
  VectorSink sink;
  RecoverResult res = Recover(Opt(sc, dir), dir, &sink, sc.shards);
  EXPECT_NE(res.checker, nullptr) << what << ": " << res.error;
  if (!res.checker) return out;
  // No checkpoint here is damaged: each must import, none fall back.
  EXPECT_FALSE(res.used_fallback) << what;
  EXPECT_LE(res.events, sc.arrivals.size()) << what;
  DurableRunner cont(res.checker.get(), Dopts(sc, dir), res.next_seq,
                     res.events, res.wal_truncate_to);
  AssumeRole driver(cont.driver_role);  // single-threaded test driver
  for (size_t i = res.events; i < sc.arrivals.size(); ++i) {
    EXPECT_TRUE(cont.Feed(sc.arrivals[i], i)) << what;
  }
  EXPECT_TRUE(cont.Finish()) << what;
  out.stats = res.checker->stats();
  out.watermark = res.checker->watermark();
  out.flips = res.checker->flip_stats().total_flips();
  out.sheds = cont.sheds();
  res.checker.reset();
  out.emissions = sink.TakeAll();
  return out;
}

void ExpectIdentical(const Outcome& got, const Outcome& ref,
                     const std::string& what) {
  EXPECT_EQ(got.emissions, ref.emissions) << what;
  EXPECT_EQ(got.stats, ref.stats) << what;
  EXPECT_EQ(got.watermark, ref.watermark) << what;
  EXPECT_EQ(got.flips, ref.flips) << what;
}

std::set<size_t> EventKillPoints(const Scenario& sc) {
  const size_t n = sc.arrivals.size();
  std::set<size_t> ks;
  if (Exhaustive()) {
    for (size_t k = 0; k <= n; ++k) ks.insert(k);
    return ks;
  }
  ks.insert(0);  // nothing durable yet: recovery = fresh run
  ks.insert(1);
  if (sc.checkpoint_every > 0 && sc.checkpoint_every < n) {
    // Straddle the first checkpoint boundary.
    ks.insert(sc.checkpoint_every - 1);
    ks.insert(sc.checkpoint_every);
    ks.insert(sc.checkpoint_every + 1);
  }
  ks.insert(n / 2);
  ks.insert(n - 1);
  ks.insert(n);  // fed everything, died before Finish
  return ks;
}

void SweepScenario(const Scenario& sc) {
  const std::string ref_dir = FreshDir(sc.name + "_ref");
  const Outcome ref = RunUninterrupted(sc, ref_dir);

  // --- event-boundary kills ---
  for (size_t k : EventKillPoints(sc)) {
    const std::string dir =
        FreshDir(sc.name + "_evt" + std::to_string(k));
    RunAndCrash(sc, dir, k);
    Outcome got =
        RecoverAndFinish(sc, dir, sc.name + " kill@event=" + std::to_string(k));
    ExpectIdentical(got, ref, sc.name + " kill@event=" + std::to_string(k));
  }

  // --- byte-truncation kills ---
  // One full crash run; each offset gets a pristine copy of its state.
  const std::string base = FreshDir(sc.name + "_base");
  std::vector<uint64_t> sizes = RunAndCrash(sc, base, sc.arrivals.size());
  ASSERT_FALSE(sizes.empty());
  const uint64_t header = 15;  // strlen("chronos-wal v1\n")
  const uint64_t full = sizes.back();
  std::set<uint64_t> offsets;
  std::mt19937_64 rng(0xC0FFEEu ^ sizes.size());
  const size_t want = Exhaustive() ? 40 : 8;
  std::uniform_int_distribution<uint64_t> dist(header, full);
  while (offsets.size() < want) offsets.insert(dist(rng));
  offsets.insert(header);          // empty WAL, header only
  offsets.insert(sizes[0]);        // exactly one record
  offsets.insert(sizes[0] + 1);    // one record + one torn byte
  for (uint64_t cut : offsets) {
    const std::string dir = FreshDir(sc.name + "_cut" + std::to_string(cut));
    fs::copy(base, dir, fs::copy_options::recursive |
                            fs::copy_options::overwrite_existing);
    fs::resize_file(dir + "/wal.log", cut);
    Outcome got = RecoverAndFinish(
        sc, dir, sc.name + " truncate@" + std::to_string(cut));
    ExpectIdentical(got, ref, sc.name + " truncate@" + std::to_string(cut));
  }
}

History MakeWorkload(uint64_t txns, uint64_t seed, bool list_mode,
                     uint64_t keys) {
  workload::WorkloadParams p;
  p.sessions = 8;
  p.txns = txns;
  p.ops_per_txn = 6;
  p.keys = keys;
  p.seed = seed;
  p.list_mode = list_mode;
  db::DbConfig cfg;
  cfg.faults.lost_update_prob = 0.04;
  cfg.faults.early_commit_prob = 0.03;
  cfg.faults.ts_swap_prob = 0.02;
  cfg.fault_seed = seed * 13 + 5;
  return workload::GenerateDefaultHistory(p, cfg);
}

TEST(KillPointSweep, RegisterGcSpillStragglers) {
  // Shuffled arrivals + finite timeout + GC cadence: stragglers, EXT
  // deadlines, spill manifests and watermark degradation all live at
  // the kill points.
  Scenario sc;
  sc.name = "register";
  History h = MakeWorkload(350, 101, /*list_mode=*/false, 40);
  sc.arrivals = SessionPreservingShuffle(h, 19);
  sc.ext_timeout_ms = 40;
  sc.checkpoint_every = 60;
  sc.gc_every = 32;
  sc.gc_target = 16;
  SweepScenario(sc);
}

TEST(KillPointSweep, ListHistories) {
  Scenario sc;
  sc.name = "list";
  History h = MakeWorkload(280, 211, /*list_mode=*/true, 20);
  sc.arrivals = SessionPreservingShuffle(h, 43);
  sc.ext_timeout_ms = 60;
  sc.checkpoint_every = 50;
  sc.gc_every = 40;
  sc.gc_target = 20;
  SweepScenario(sc);
}

TEST(KillPointSweep, WalOnlyNoCheckpoints) {
  // checkpoint_every=0: recovery is pure WAL replay from an empty state.
  Scenario sc;
  sc.name = "walonly";
  History h = MakeWorkload(200, 307, /*list_mode=*/false, 30);
  sc.arrivals = SessionPreservingShuffle(h, 7);
  sc.ext_timeout_ms = 35;
  sc.checkpoint_every = 0;
  sc.gc_every = 24;
  sc.gc_target = 12;
  SweepScenario(sc);
}

TEST(KillPointSweep, MixedLevels) {
  // Per-transaction iso= tags ride in every WAL record: a replay that
  // dropped them would check the RC/RA/SER arrivals as SI and fork the
  // recovered verdict from the uninterrupted one.
  History h = MakeWorkload(300, 809, /*list_mode=*/false, 30);
  workload::LevelMix mix;
  mix.si = 40;
  mix.ser = 20;
  mix.rc = 20;
  mix.ra = 20;
  workload::AssignLevels(&h, mix, 809);
  Scenario sc;
  sc.name = "mixed";
  sc.arrivals = SessionPreservingShuffle(h, 23);
  sc.ext_timeout_ms = 40;
  sc.checkpoint_every = 60;
  sc.gc_every = 32;
  sc.gc_target = 16;
  SweepScenario(sc);

  sc.name = "mixed_walonly";
  sc.checkpoint_every = 0;
  SweepScenario(sc);
}

TEST(KillPointSweep, MemoryCeiling) {
  // Append-heavy list workload under a ceiling sized to force sheds:
  // shed decisions are WAL-logged (and re-derived identically for the
  // refed tail), so recovery must reproduce them bit-for-bit.
  Scenario sc;
  sc.name = "ceiling";
  History h = MakeWorkload(400, 409, /*list_mode=*/true, 8);
  sc.arrivals = h.txns;  // commit order: trims never hit stragglers
  sc.ext_timeout_ms = 8;
  sc.checkpoint_every = 0;  // ceiling sheds cut their own checkpoints
  sc.gc_every = 64;
  sc.gc_target = 64;

  // Size the ceiling at half the scenario's own peak footprint so the
  // shed path genuinely engages.
  size_t peak = 0;
  {
    const std::string dir = FreshDir("ceiling_probe");
    VectorSink sink;
    auto checker =
        std::make_unique<ShardedAion>(Opt(sc, dir), sc.shards, &sink);
    for (size_t i = 0; i < sc.arrivals.size(); ++i) {
      checker->OnTransaction(sc.arrivals[i], i);
      if (sc.gc_every > 0 && (i + 1) % sc.gc_every == 0) {
        checker->GcToLiveTarget(sc.gc_target);
      }
      if (i % 16 == 0) {
        peak = std::max(peak, checker->FootprintExact().approx_bytes);
      }
    }
    checker->Finish();
  }
  ASSERT_GT(peak, 0u);
  sc.memory_ceiling = peak / 2;

  const std::string probe_dir = FreshDir("ceiling_engaged");
  Outcome ref = RunUninterrupted(sc, probe_dir);
  ASSERT_GT(ref.sheds, 0u) << "ceiling never engaged: test is vacuous";

  SweepScenario(sc);
}

TEST(RecoveryFallback, CorruptNewestCheckpointUsesPredecessor) {
  Scenario sc;
  sc.name = "fallback";
  History h = MakeWorkload(300, 503, /*list_mode=*/false, 40);
  sc.arrivals = SessionPreservingShuffle(h, 29);
  sc.ext_timeout_ms = 40;
  sc.checkpoint_every = 50;
  sc.gc_every = 32;
  sc.gc_target = 16;

  const std::string ref_dir = FreshDir("fallback_ref");
  const Outcome ref = RunUninterrupted(sc, ref_dir);

  const std::string dir = FreshDir("fallback_run");
  RunAndCrash(sc, dir, sc.arrivals.size());
  auto ckpts = CheckpointManager::List(dir);
  ASSERT_GE(ckpts.size(), 2u);

  // Flip a byte in the middle of the newest checkpoint.
  {
    const std::string& path = ckpts.back().second;
    uint64_t size = fs::file_size(path);
    FILE* f = fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    fseek(f, static_cast<long>(size / 2), SEEK_SET);
    int c = fgetc(f);
    fseek(f, static_cast<long>(size / 2), SEEK_SET);
    fputc(c ^ 0x40, f);
    fclose(f);
  }

  VectorSink sink;
  RecoverResult res = Recover(Opt(sc, dir), dir, &sink, sc.shards);
  ASSERT_NE(res.checker, nullptr) << res.error;
  EXPECT_TRUE(res.used_fallback);
  EXPECT_TRUE(res.from_checkpoint);
  EXPECT_EQ(res.ckpt_seq, ckpts[ckpts.size() - 2].first);

  DurableRunner cont(res.checker.get(), Dopts(sc, dir), res.next_seq,
                     res.events, res.wal_truncate_to);
  AssumeRole driver(cont.driver_role);  // single-threaded test driver
  for (size_t i = res.events; i < sc.arrivals.size(); ++i) {
    ASSERT_TRUE(cont.Feed(sc.arrivals[i], i));
  }
  ASSERT_TRUE(cont.Finish());
  Outcome got;
  got.stats = res.checker->stats();
  got.watermark = res.checker->watermark();
  got.flips = res.checker->flip_stats().total_flips();
  res.checker.reset();
  got.emissions = sink.TakeAll();
  ExpectIdentical(got, ref, "fallback");
}

TEST(RecoveryFallback, AllCheckpointsGoneFallsBackToWalReplay) {
  Scenario sc;
  sc.name = "gone";
  History h = MakeWorkload(220, 607, /*list_mode=*/false, 40);
  sc.arrivals = SessionPreservingShuffle(h, 3);
  sc.ext_timeout_ms = 40;
  sc.checkpoint_every = 40;
  sc.gc_every = 24;
  sc.gc_target = 12;

  const std::string ref_dir = FreshDir("gone_ref");
  const Outcome ref = RunUninterrupted(sc, ref_dir);

  const std::string dir = FreshDir("gone_run");
  RunAndCrash(sc, dir, sc.arrivals.size());
  for (const auto& [seq, path] : CheckpointManager::List(dir)) {
    (void)seq;
    fs::remove(path);
  }

  VectorSink sink;
  RecoverResult res = Recover(Opt(sc, dir), dir, &sink, sc.shards);
  ASSERT_NE(res.checker, nullptr) << res.error;
  EXPECT_FALSE(res.from_checkpoint);
  EXPECT_EQ(res.events, sc.arrivals.size());  // full WAL replay
  res.checker->Finish();
  Outcome got;
  got.stats = res.checker->stats();
  got.watermark = res.checker->watermark();
  got.flips = res.checker->flip_stats().total_flips();
  res.checker.reset();
  got.emissions = sink.TakeAll();
  ExpectIdentical(got, ref, "wal-only");
}

TEST(RecoveryFallback, TornTmpFromPendingWriteIsIgnored) {
  // A crash while the writer task was still filling the newest
  // checkpoint's tmp file: the checkpoint never landed, its predecessor
  // is the newest complete one, and half its bytes sit in the tmp.
  Scenario sc;
  sc.name = "torn_tmp";
  History h = MakeWorkload(300, 509, /*list_mode=*/false, 40);
  sc.arrivals = SessionPreservingShuffle(h, 31);
  sc.ext_timeout_ms = 40;
  sc.checkpoint_every = 50;
  sc.gc_every = 32;
  sc.gc_target = 16;

  const Outcome ref = RunUninterrupted(sc, FreshDir("torn_tmp_ref"));

  const std::string dir = FreshDir("torn_tmp_run");
  RunAndCrash(sc, dir, 2 * sc.checkpoint_every);
  auto ckpts = CheckpointManager::List(dir);
  ASSERT_EQ(ckpts.size(), 2u);
  const auto [pending_seq, pending_path] = ckpts.back();
  const std::string tmp = pending_path + ".tmp";
  {
    std::ifstream in(pending_path, std::ios::binary);
    const std::string bytes(std::istreambuf_iterator<char>(in), {});
    std::ofstream(tmp, std::ios::binary) << bytes.substr(0, bytes.size() / 2);
  }
  fs::remove(pending_path);
  ckpts.pop_back();
  EXPECT_EQ(CheckpointManager::List(dir), ckpts);

  VectorSink sink;
  RecoverResult res = Recover(Opt(sc, dir), dir, &sink, sc.shards);
  ASSERT_NE(res.checker, nullptr) << res.error;
  EXPECT_FALSE(res.used_fallback);
  EXPECT_TRUE(res.from_checkpoint);
  EXPECT_EQ(res.ckpt_seq, ckpts.back().first);
  EXPECT_EQ(res.events, 2 * sc.checkpoint_every);  // longer WAL replay

  {
    DurableRunner cont(res.checker.get(), Dopts(sc, dir), res.next_seq,
                       res.events, res.wal_truncate_to);
    AssumeRole driver(cont.driver_role);  // single-threaded test driver
    for (size_t i = res.events; i < sc.arrivals.size(); ++i) {
      ASSERT_TRUE(cont.Feed(sc.arrivals[i], i));
      if (i + 1 == 3 * sc.checkpoint_every) {
        // The resumed run's first checkpoint reuses the lost one's
        // sequence number, so its write replaces the stale tmp.
        ASSERT_TRUE(cont.Checkpoint());  // waits for that write
        EXPECT_FALSE(fs::exists(tmp));
        CheckpointManager::Loaded loaded;
        ASSERT_TRUE(CheckpointManager::Load(pending_path, &loaded));
        EXPECT_EQ(loaded.ckpt_seq, pending_seq);
      }
    }
    ASSERT_TRUE(cont.Finish());
  }
  Outcome got;
  got.stats = res.checker->stats();
  got.watermark = res.checker->watermark();
  got.flips = res.checker->flip_stats().total_flips();
  res.checker.reset();
  got.emissions = sink.TakeAll();
  ExpectIdentical(got, ref, "torn tmp");
}

// Every file under `dir`/spill: path relative to `dir` -> contents.
std::map<std::string, std::string> SpillFiles(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& e : fs::recursive_directory_iterator(dir + "/spill")) {
    if (!e.is_regular_file()) continue;
    std::ifstream in(e.path(), std::ios::binary);
    files[fs::relative(e.path(), dir).string()] =
        std::string(std::istreambuf_iterator<char>(in), {});
  }
  return files;
}

TEST(RecoveryResume, SpillEpochsIdenticalFromEveryCheckpoint) {
  // Stragglers and a GC cadence put several intervals of a key into one
  // epoch, so the within-epoch record order is exercised, not just the
  // epoch contents.
  Scenario sc;
  sc.name = "spillid";
  History h = MakeWorkload(400, 701, /*list_mode=*/false, 40);
  sc.arrivals = SessionPreservingShuffle(h, 11);
  sc.ext_timeout_ms = 40;
  sc.checkpoint_every = 70;
  sc.gc_every = 32;
  sc.gc_target = 16;

  const std::string ref_dir = FreshDir("spillid_ref");
  const Outcome ref = RunUninterrupted(sc, ref_dir);
  const auto ref_spill = SpillFiles(ref_dir);
  const auto ckpts = CheckpointManager::List(ref_dir);
  ASSERT_GE(ckpts.size(), 2u);
  for (const auto& [seq, path] : ckpts) {
    const std::string what = "resume@ckpt-" + std::to_string(seq);
    CheckpointManager::Loaded loaded;
    ASSERT_TRUE(CheckpointManager::Load(path, &loaded)) << what;
    ASSERT_LT(loaded.events, sc.arrivals.size()) << what;
    // The epochs on disk when this checkpoint was cut; the resumed run
    // must write every later one itself.
    const std::string probe = FreshDir("spillid_probe" + std::to_string(seq));
    RunAndCrash(sc, probe, loaded.events);
    const auto at_ckpt = SpillFiles(probe);
    ASSERT_LT(at_ckpt.size(), ref_spill.size()) << what;

    const std::string dir = FreshDir("spillid_run" + std::to_string(seq));
    fs::copy(ref_dir, dir, fs::copy_options::recursive |
                               fs::copy_options::overwrite_existing);
    for (const auto& [s, p] : CheckpointManager::List(dir)) {
      if (s > seq) fs::remove(p);
    }
    for (const auto& [rel, bytes] : ref_spill) {
      if (at_ckpt.count(rel) == 0) fs::remove(dir + "/" + rel);
    }
    ExpectIdentical(RecoverAndFinish(sc, dir, what), ref, what);

    const auto got = SpillFiles(dir);
    ASSERT_EQ(got.size(), ref_spill.size()) << what;
    for (const auto& [rel, bytes] : ref_spill) {
      auto it = got.find(rel);
      ASSERT_NE(it, got.end()) << what << ": " << rel << " missing";
      EXPECT_TRUE(it->second == bytes) << what << ": " << rel << " differs";
    }
  }
}

}  // namespace
}  // namespace chronos::online

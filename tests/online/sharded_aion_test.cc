// ShardedAion: the key-partitioned online checker. Core contract: a
// 1-shard instance is verdict- and violation-identical to the monolithic
// Aion, any shard count emits the same deterministic violation stream,
// flip-flop/stat merges match the monolith, and GC/spill behave
// identically at every partition count.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "../testutil.h"
#include "core/aion.h"
#include "hist/collector.h"
#include "online/pipeline.h"
#include "online/sharded_aion.h"
#include "workload/generator.h"

namespace chronos::online {
namespace {

using chronos::testing::DriveToEnd;
using chronos::testing::HistoryBuilder;
using chronos::testing::SessionPreservingShuffle;
using chronos::testing::SortedViolations;

History MakeWorkload(uint64_t txns, uint64_t seed, bool faulty) {
  workload::WorkloadParams p;
  p.sessions = 10;
  p.txns = txns;
  p.ops_per_txn = 6;
  p.keys = 60;
  p.seed = seed;
  db::DbConfig cfg;
  if (faulty) {
    cfg.faults.value_corruption_prob = 0.03;
    cfg.faults.lost_update_prob = 0.05;
    cfg.fault_seed = seed * 7 + 3;
  }
  return workload::GenerateDefaultHistory(p, cfg);
}

TEST(ShardedAionTest, OneShardCleanStreamMatchesMonolith) {
  History h = MakeWorkload(800, 11, /*faulty=*/false);
  auto arrivals = SessionPreservingShuffle(h, 42);
  CheckerOptions opt;
  opt.ext_timeout_ms = 1u << 30;  // shuffled arrivals: finalize at Finish

  CountingSink mono_sink;
  Aion mono(opt, &mono_sink);
  DriveToEnd(&mono, arrivals);

  CountingSink shard_sink;
  ShardedAion sharded(opt, 1, &shard_sink);
  DriveToEnd(&sharded, arrivals);

  EXPECT_EQ(mono_sink.total(), 0u);
  EXPECT_EQ(shard_sink.total(), 0u);
  CheckerStats s = sharded.stats();
  EXPECT_EQ(s.txns_processed, mono.stats().txns_processed);
  EXPECT_EQ(s.ext_rechecks, mono.stats().ext_rechecks);
  EXPECT_EQ(s.noconflict_checks, mono.stats().noconflict_checks);
}

TEST(ShardedAionTest, OneShardViolationSetMatchesMonolith) {
  History h = MakeWorkload(800, 12, /*faulty=*/true);
  auto arrivals = SessionPreservingShuffle(h, 7);
  CheckerOptions opt;
  opt.ext_timeout_ms = 30;

  VectorSink mono_sink;
  Aion mono(opt, &mono_sink);
  DriveToEnd(&mono, arrivals);

  VectorSink shard_sink;
  ShardedAion sharded(opt, 1, &shard_sink);
  DriveToEnd(&sharded, arrivals);

  auto mono_v = SortedViolations(mono_sink.TakeAll());
  auto shard_v = SortedViolations(shard_sink.TakeAll());
  ASSERT_GT(mono_v.size(), 0u) << "faulty history must surface violations";
  ASSERT_EQ(shard_v.size(), mono_v.size());
  for (size_t i = 0; i < mono_v.size(); ++i) {
    EXPECT_EQ(shard_v[i], mono_v[i]) << "index " << i;
  }
}

TEST(ShardedAionTest, EmissionIsDeterministicAcrossShardCounts) {
  History h = MakeWorkload(700, 13, /*faulty=*/true);
  auto arrivals = SessionPreservingShuffle(h, 5);
  CheckerOptions opt;
  opt.ext_timeout_ms = 30;

  std::vector<Violation> reference;
  for (size_t shards : {1u, 2u, 8u}) {
    // Two runs per shard count: thread timing must not matter.
    for (int rep = 0; rep < 2; ++rep) {
      VectorSink sink;
      ShardedAion sharded(opt, shards, &sink);
      DriveToEnd(&sharded, arrivals);
      auto got = sink.TakeAll();
      if (reference.empty()) {
        reference = got;
        ASSERT_GT(reference.size(), 0u);
        continue;
      }
      ASSERT_EQ(got.size(), reference.size())
          << "shards=" << shards << " rep=" << rep;
      for (size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(got[i], reference[i])
            << "shards=" << shards << " rep=" << rep << " index " << i;
      }
    }
  }
}

TEST(ShardedAionTest, MixedLevelHistoryMatchesMonolithAcrossShardCounts) {
  // Per-transaction isolation tags ride in the shard commands: a mixed
  // SI/SER/RC/RA history must produce the exact monolith violation
  // stream, stats, and watermark at every shard count. SER tags on an
  // SI-generated history surface real violations — good: the equality
  // must hold on a noisy stream, not just a clean one.
  History h = MakeWorkload(800, 23, /*faulty=*/true);
  workload::AssignLevels(&h, workload::LevelMix{40, 15, 25, 10}, 23);
  ASSERT_TRUE(HistoryHasLevelTags(h));
  auto arrivals = SessionPreservingShuffle(h, 3);
  CheckerOptions opt;
  opt.ext_timeout_ms = 30;

  VectorSink mono_sink;
  Aion mono(opt, &mono_sink);
  DriveToEnd(&mono, arrivals);
  auto mono_v = mono_sink.TakeAll();
  ASSERT_GT(mono_v.size(), 0u);

  std::vector<Violation> sharded_ref;  // ordered 1-shard emission
  for (size_t shards : {1u, 2u, 8u}) {
    VectorSink sink;
    ShardedAion sharded(opt, shards, &sink);
    DriveToEnd(&sharded, arrivals);
    auto got = sink.TakeAll();
    ASSERT_EQ(got.size(), mono_v.size()) << "shards=" << shards;
    // The coordinator emits in (commit_ts, tid) order, the monolith in
    // detection order: against the monolith the violation multiset is
    // the identity contract, while across shard counts the emission is
    // byte-stable, order included.
    if (sharded_ref.empty()) {
      sharded_ref = got;
    } else {
      for (size_t i = 0; i < sharded_ref.size(); ++i) {
        EXPECT_EQ(got[i], sharded_ref[i]) << "shards=" << shards
                                          << " index " << i;
      }
    }
    auto a = SortedViolations(got);
    auto b = SortedViolations(mono_v);
    for (size_t i = 0; i < b.size(); ++i) {
      EXPECT_EQ(a[i], b[i]) << "shards=" << shards << " index " << i;
    }
    EXPECT_EQ(sharded.watermark(), mono.watermark()) << "shards=" << shards;
    CheckerStats s = sharded.stats();
    EXPECT_EQ(s.txns_processed, mono.stats().txns_processed)
        << "shards=" << shards;
    EXPECT_EQ(s.ext_rechecks, mono.stats().ext_rechecks)
        << "shards=" << shards;
    EXPECT_EQ(s.noconflict_checks, mono.stats().noconflict_checks)
        << "shards=" << shards;
  }
}

TEST(ShardedAionTest, ViolationsEmitSortedByCommitTsThenTid) {
  // Two stale readers on different keys; the later-committing one
  // arrives (and would be reported by the monolith) first. The
  // coordinator must still emit in (commit_ts, tid) order.
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 5).W(1, 100)
                  .Txn(2, 1, 0, 2, 6).W(2, 200)
                  .Txn(3, 2, 0, 18, 20).R(2, 999)   // stale, cts 20
                  .Txn(4, 3, 0, 8, 10).R(1, 888)    // stale, cts 10
                  .Build();
  CheckerOptions opt;
  opt.ext_timeout_ms = 1000;
  VectorSink sink;
  ShardedAion sharded(opt, 4, &sink);
  DriveToEnd(&sharded, h.txns);  // arrival order: writers, then 3, then 4
  auto v = sink.TakeAll();
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0].tid, 4u);  // commit_ts 10 first
  EXPECT_EQ(v[1].tid, 3u);  // commit_ts 20 second
  EXPECT_EQ(v[0].type, ViolationType::kExt);
  EXPECT_EQ(v[1].type, ViolationType::kExt);
}

TEST(ShardedAionTest, GcSurvivorsAndWatermarkMatchMonolith) {
  History h = MakeWorkload(1200, 14, /*faulty=*/false);
  hist::CollectorParams cp;
  auto stream = hist::ScheduleDelivery(h, cp);
  std::vector<Transaction> ordered;
  ordered.reserve(stream.size());
  for (auto& ct : stream) ordered.push_back(ct.txn);

  CheckerOptions opt;
  opt.ext_timeout_ms = 5;

  CountingSink mono_sink;
  Aion mono(opt, &mono_sink);
  DriveToEnd(&mono, ordered, /*gc_every=*/100, /*gc_target=*/50);
  CheckerFootprint ref = mono.GetFootprint();
  ASSERT_GT(mono.stats().gc_passes, 0u);

  for (size_t shards : {1u, 2u, 8u}) {
    CountingSink sink;
    ShardedAion sharded(opt, shards, &sink);
    DriveToEnd(&sharded, ordered, /*gc_every=*/100, /*gc_target=*/50);
    EXPECT_EQ(sink.total(), mono_sink.total()) << "shards=" << shards;
    EXPECT_EQ(sharded.watermark(), mono.watermark()) << "shards=" << shards;
    CheckerFootprint f = sharded.GetFootprint();
    EXPECT_EQ(f.live_txns, ref.live_txns) << "shards=" << shards;
    EXPECT_EQ(f.versions, ref.versions) << "shards=" << shards;
    EXPECT_EQ(f.intervals, ref.intervals) << "shards=" << shards;
    EXPECT_EQ(sharded.stats().gc_passes, mono.stats().gc_passes)
        << "shards=" << shards;
  }
}

TEST(ShardedAionTest, StragglerBelowWatermarkUsesShardSpill) {
  // Writer chain on one key, GC past the early versions, then a straggler
  // reads below the watermark: the owning shard must reload its spill.
  History writers = HistoryBuilder()
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

  std::string dir = chronos::testing::UniqueTempDir("spill");
  std::filesystem::remove_all(dir);
  CheckerOptions opt;
  opt.ext_timeout_ms = 100;
  opt.spill_dir = dir;

  CountingSink sink;
  ShardedAion sharded(opt, 4, &sink);
  uint64_t now = 0;
  for (const Transaction& t : writers.txns) sharded.OnTransaction(t, now += 10);
  sharded.AdvanceTime(1000);  // finalize the writers
  EXPECT_EQ(sharded.Gc(26), 26u);
  sharded.OnTransaction(straggler, 2000);
  sharded.Finish();

  EXPECT_EQ(sink.total(), 0u)
      << (sink.first().empty() ? "" : sink.first()[0].ToString());
  EXPECT_GE(sharded.stats().spill_reloads, 1u);
  std::filesystem::remove_all(dir);
}

TEST(ShardedAionTest, FlipFlopMergeMatchesMonolith) {
  History h = MakeWorkload(1500, 15, /*faulty=*/false);
  hist::CollectorParams cp;
  cp.delay_mean_ms = 50;
  cp.delay_stddev_ms = 30;
  auto stream = hist::ScheduleDelivery(h, cp);

  CheckerOptions opt;
  opt.ext_timeout_ms = 10000;

  CountingSink mono_sink;
  Aion mono(opt, &mono_sink);
  RunMaxRate(&mono, stream, GcPolicy::None());
  const FlipFlopStats& ref = mono.flip_stats();
  ASSERT_GT(ref.total_flips(), 0u) << "delays should cause flips";

  for (size_t shards : {1u, 2u, 8u}) {
    CountingSink sink;
    ShardedAion sharded(opt, shards, &sink);
    RunMaxRate(&sharded, stream, GcPolicy::None());
    FlipFlopStats merged = sharded.flip_stats();
    EXPECT_EQ(merged.total_flips(), ref.total_flips()) << "shards=" << shards;
    EXPECT_EQ(merged.txns_with_flips(), ref.txns_with_flips())
        << "shards=" << shards;
    EXPECT_EQ(merged.pair_flip_histogram(), ref.pair_flip_histogram())
        << "shards=" << shards;
    EXPECT_EQ(merged.txn_flip_histogram(), ref.txn_flip_histogram())
        << "shards=" << shards;
    EXPECT_EQ(merged.latency_histogram(), ref.latency_histogram())
        << "shards=" << shards;
  }
}

TEST(ShardedAionTest, RunMaxRateDrivesShardedCheckerUnderThresholdGc) {
  History h = MakeWorkload(2500, 16, /*faulty=*/true);
  hist::CollectorParams cp;
  auto stream = hist::ScheduleDelivery(h, cp);

  CheckerOptions opt;
  opt.ext_timeout_ms = 50;
  // Polled every 1024 arrivals: collects at arrivals 1024 and 2048.
  const GcPolicy gc = GcPolicy::Threshold(300, 100);

  CountingSink mono_sink;
  Aion mono(opt, &mono_sink);
  RunResult mono_r = RunMaxRate(&mono, stream, gc, 500);

  CountingSink shard_sink;
  ShardedAion sharded(opt, 4, &shard_sink);
  RunResult shard_r = RunMaxRate(&sharded, stream, gc, 500);

  EXPECT_GT(mono.stats().gc_passes, 0u);
  EXPECT_EQ(sharded.stats().gc_passes, mono.stats().gc_passes);
  EXPECT_EQ(shard_r.txns, mono_r.txns);
  EXPECT_GT(mono_sink.total(), 0u);
  for (ViolationType t :
       {ViolationType::kSession, ViolationType::kInt, ViolationType::kExt,
        ViolationType::kNoConflict, ViolationType::kTsOrder,
        ViolationType::kTsDuplicate}) {
    EXPECT_EQ(shard_sink.count(t), mono_sink.count(t))
        << "type " << static_cast<int>(t);
  }
  EXPECT_EQ(shard_r.samples.size(), mono_r.samples.size());
}

TEST(ShardedAionTest, PipelineHealthCountsTraffic) {
  History h = MakeWorkload(600, 19, /*faulty=*/false);
  CheckerOptions opt;
  opt.ext_timeout_ms = 1u << 30;
  CountingSink sink;
  ShardedAion sharded(opt, 2, &sink);
  DriveToEnd(&sharded, h.txns);
  PipelineHealth health = sharded.pipeline_health();
  ASSERT_EQ(health.shard_rings.size(), 2u);
  EXPECT_TRUE(health.pre_stage_in.empty());
  EXPECT_TRUE(health.pre_stage_out.empty());
  // Commands: at least one per arrival (each writes a key) plus the
  // finalize traffic of Finish().
  uint64_t published = 0, hwm = 0;
  for (const RingHealth& r : health.shard_rings) {
    published += r.published;
    hwm += r.depth_hwm;
  }
  EXPECT_GE(published, 600u);
  EXPECT_GT(hwm, 0u) << "commands must flow through the shard rings";
}

TEST(ShardedAionTest, SpawnsOneThreadPerShard) {
  // Two pipeline stages: the caller thread, then one worker per shard.
  auto threads = [] {
    size_t n = 0;
    for (const auto& e :
         std::filesystem::directory_iterator("/proc/self/task")) {
      (void)e;
      ++n;
    }
    return n;
  };
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task";
  }
  for (size_t shards : {1u, 2u, 4u}) {
    const size_t before = threads();
    CountingSink sink;
    ShardedAion sharded(CheckerOptions{}, shards, &sink);
    EXPECT_EQ(threads(), before + shards) << "shards=" << shards;
  }
}

TEST(ShardedAionTest, MakeCheckerSelectsImplementation) {
  History h = MakeWorkload(300, 17, /*faulty=*/true);
  CheckerOptions opt;
  opt.ext_timeout_ms = 20;

  CountingSink ref_sink;
  Aion ref(opt, &ref_sink);
  DriveToEnd(&ref, h.txns);

  for (size_t shards : {0u, 1u, 3u}) {
    CountingSink sink;
    auto checker = MakeChecker(opt, shards, &sink);
    DriveToEnd(checker.get(), h.txns);
    EXPECT_EQ(sink.total(), ref_sink.total()) << "shards=" << shards;
  }
}

}  // namespace
}  // namespace chronos::online

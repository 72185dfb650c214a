// List-history parity suite: AION's materialized-prefix list checking
// must be indistinguishable from the offline Chronos under infinite
// timeout + in-order arrival, a 1-shard ShardedAion must stay identical
// to the monolith on list histories (and every shard count must emit the
// same deterministic stream), and GC/spill must keep below-watermark
// list stragglers — readers and appenders — verifiable exactly like
// register stragglers.
#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <string>
#include <vector>

#include "../testutil.h"
#include "core/aion.h"
#include "core/chronos.h"
#include "online/sharded_aion.h"
#include "workload/generator.h"

namespace chronos::online {
namespace {

using chronos::testing::DriveToEnd;
using chronos::testing::HistoryBuilder;
using chronos::testing::SessionPreservingShuffle;
using chronos::testing::SortedViolations;

History MakeListWorkload(uint64_t txns, uint64_t seed, bool faulty) {
  workload::WorkloadParams p;
  p.sessions = 8;
  p.txns = txns;
  p.ops_per_txn = 6;
  p.keys = 16;
  p.seed = seed;
  p.list_mode = true;
  db::DbConfig cfg;
  if (faulty) {
    // List-visible faults only (register-read faults are no-ops here).
    cfg.faults.lost_update_prob = 0.05;
    cfg.faults.early_commit_prob = 0.03;
    cfg.faults.late_start_prob = 0.03;
    cfg.fault_seed = seed * 7 + 3;
  }
  return workload::GenerateDefaultHistory(p, cfg);
}

std::array<size_t, 6> CountsOf(const CountingSink& sink) {
  std::array<size_t, 6> c{};
  for (ViolationType t :
       {ViolationType::kSession, ViolationType::kInt, ViolationType::kExt,
        ViolationType::kNoConflict, ViolationType::kTsOrder,
        ViolationType::kTsDuplicate}) {
    c[static_cast<size_t>(t)] = sink.count(t);
  }
  return c;
}

// Aion's final per-class counts equal Chronos's on list histories
// under infinite timeout + in-order arrival — clean and faulty.
TEST(ListParityTest, AionMatchesChronosListInOrder) {
  for (uint64_t seed : {21u, 22u, 23u}) {
    for (bool faulty : {false, true}) {
      History h = MakeListWorkload(600, seed, faulty);

      CountingSink offline;
      Chronos::CheckHistory(h, &offline);

      CountingSink online;
      Aion::Options opt;
      opt.ext_timeout_ms = 1u << 30;
      Aion aion(opt, &online);
      uint64_t now = 0;
      for (const Transaction& t : h.txns) aion.OnTransaction(t, now++);
      aion.Finish();

      EXPECT_EQ(CountsOf(online), CountsOf(offline))
          << "seed=" << seed << " faulty=" << faulty;
      if (faulty) {
        EXPECT_GT(offline.total(), 0u) << "faults must surface violations";
      } else {
        EXPECT_EQ(offline.total(), 0u);
      }
    }
  }
}

// Same equality under a session-preserving shuffle: out-of-order arrival
// exercises the append re-check path (no NextVersionAfter bound for
// lists) and tentative-verdict flips, but with an infinite timeout every
// verdict still finalizes against the full chain.
TEST(ListParityTest, AionMatchesChronosListShuffled) {
  History h = MakeListWorkload(600, 31, /*faulty=*/true);
  auto arrivals = SessionPreservingShuffle(h, 77);

  CountingSink offline;
  Chronos::CheckHistory(h, &offline);

  CountingSink online;
  Aion::Options opt;
  opt.ext_timeout_ms = 1u << 30;
  Aion aion(opt, &online);
  DriveToEnd(&aion, arrivals);

  EXPECT_EQ(CountsOf(online), CountsOf(offline));
}

// 1-shard ShardedAion: identical violation stream to the monolith on
// list histories, and deterministic byte-identical emission across shard
// counts and repeated runs.
TEST(ListParityTest, ShardedMatchesMonolithOnListHistories) {
  History h = MakeListWorkload(500, 41, /*faulty=*/true);
  auto arrivals = SessionPreservingShuffle(h, 13);
  CheckerOptions opt;
  opt.ext_timeout_ms = 1u << 30;

  VectorSink mono_sink;
  Aion mono(opt, &mono_sink);
  DriveToEnd(&mono, arrivals);
  auto mono_v = SortedViolations(mono_sink.TakeAll());
  ASSERT_GT(mono_v.size(), 0u);
  CheckerFootprint mono_fp = mono.GetFootprint();

  std::vector<Violation> reference;
  for (size_t shards : {1u, 2u, 8u}) {
    for (int rep = 0; rep < 2; ++rep) {
      VectorSink sink;
      ShardedAion sharded(opt, shards, &sink);
      DriveToEnd(&sharded, arrivals);
      auto raw = sink.TakeAll();
      if (reference.empty()) {
        reference = raw;
      } else {
        ASSERT_EQ(raw.size(), reference.size())
            << "shards=" << shards << " rep=" << rep;
        for (size_t i = 0; i < raw.size(); ++i) {
          EXPECT_EQ(raw[i], reference[i]) << "shards=" << shards << " index "
                                          << i;
        }
      }
      auto got = SortedViolations(std::move(raw));
      ASSERT_EQ(got.size(), mono_v.size()) << "shards=" << shards;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], mono_v[i]) << "shards=" << shards << " index " << i;
      }
      // List version boundaries and live txns survive identically.
      CheckerFootprint fp = sharded.GetFootprint();
      EXPECT_EQ(fp.live_txns, mono_fp.live_txns);
      EXPECT_EQ(fp.versions, mono_fp.versions);
      EXPECT_EQ(fp.intervals, mono_fp.intervals);
      EXPECT_EQ(sharded.flip_stats().total_flips(),
                mono.flip_stats().total_flips())
          << "shards=" << shards;
    }
  }
}

// A hand-written straggler history: three appends to key 0, filler
// traffic on key 1 that advances the GC watermark past them, then (a) a
// reader whose view lies below the collapsed base and (b) an appender
// whose commit lies below the collapsed base, both delivered last. With
// a spill store both resolve exactly as offline (clean); without one
// they are counted unverifiable — and every shard count agrees.
History StragglerListHistory() {
  return HistoryBuilder()
      .Txn(1, 0, 0, 1, 4).A(0, 1)
      .Txn(2, 0, 1, 7, 10).A(0, 2)
      .Txn(3, 0, 2, 13, 16).A(0, 3)
      .Txn(4, 0, 3, 19, 22).A(1, 100)
      .Txn(5, 0, 4, 25, 28).A(1, 101)
      .Txn(6, 0, 5, 31, 34).A(1, 102)
      .Txn(7, 0, 6, 37, 40).A(1, 103)
      // (a) straggler reader: view 5 sees exactly [1].
      .Txn(8, 1, 0, 5, 43).L(0, {1})
      // A late reader above the watermark observing the post-straggler
      // frontier — delivered BEFORE the straggler appender below, so the
      // merged-below install must re-check (and flip) it.
      .Txn(10, 3, 0, 45, 46).L(0, {1, 99, 2, 3})
      // (b) straggler appender: commits at 6, between t1 and t2, so the
      // final cumulative sequence is [1, 99, 2, 3].
      .Txn(9, 2, 0, 2, 6).A(0, 99)
      .Build();
}

TEST(ListParityTest, GcSpillStragglerParityWithAppends) {
  History h = StragglerListHistory();

  // The history is NOT offline-clean: t9 overlaps t1 on key 0 (interval
  // [2,6] vs [1,4]) — a genuine NOCONFLICT both sides must report.
  CountingSink offline;
  Chronos::CheckHistory(h, &offline);
  EXPECT_EQ(offline.count(ViolationType::kExt), 0u);
  EXPECT_EQ(offline.count(ViolationType::kInt), 0u);
  EXPECT_EQ(offline.count(ViolationType::kNoConflict), 1u);

  auto run = [&](const std::string& spill_dir) {
    CountingSink sink;
    Aion::Options opt;
    opt.ext_timeout_ms = 1;
    opt.spill_dir = spill_dir;
    Aion aion(opt, &sink);
    size_t since_gc = 0;
    for (size_t i = 0; i < h.txns.size(); ++i) {
      // The last two arrivals (reader t10, then appender t9) share one
      // clock tick so t10's EXT timeout cannot fire between them: t9's
      // below-base install must find t10 live and re-check it.
      aion.OnTransaction(h.txns[i], std::min<uint64_t>(i, 8));
      if (++since_gc >= 2) {
        since_gc = 0;
        aion.GcToLiveTarget(1);
      }
    }
    aion.Finish();
    EXPECT_GT(aion.watermark(), 16u) << "GC must pass the key-0 appends";
    return std::make_pair(CountsOf(sink),
                          aion.stats().unsafe_below_watermark);
  };

  std::string dir = chronos::testing::UniqueTempDir("straggler_spill");
  std::filesystem::remove_all(dir);
  auto [with_spill, with_spill_unsafe] = run(dir);
  EXPECT_EQ(with_spill, CountsOf(offline))
      << "spill store must keep list stragglers verifiable";
  EXPECT_EQ(with_spill_unsafe, 0u);
  std::filesystem::remove_all(dir);

  auto [no_spill, no_spill_unsafe] = run("");
  (void)no_spill;
  EXPECT_GT(no_spill_unsafe, 0u)
      << "spill-less GC must count list stragglers as unverifiable";
}

// The same straggler schedule through every shard count: verdicts and
// watermarks stay identical to the monolith, spill dirs and all.
TEST(ListParityTest, GcSpillStragglerShardedParity) {
  History h = StragglerListHistory();
  std::string base = chronos::testing::UniqueTempDir("straggler_sharded");
  std::filesystem::remove_all(base);

  CheckerOptions opt;
  opt.ext_timeout_ms = 1;

  VectorSink mono_sink;
  CheckerOptions mono_opt = opt;
  mono_opt.spill_dir = base + "/mono";
  Aion mono(mono_opt, &mono_sink);
  DriveToEnd(&mono, h.txns, /*gc_every=*/2, /*gc_target=*/1);
  auto mono_v = SortedViolations(mono_sink.TakeAll());

  for (size_t shards : {1u, 2u, 8u}) {
    VectorSink sink;
    CheckerOptions sopt = opt;
    sopt.spill_dir = base + "/s" + std::to_string(shards);
    ShardedAion sharded(sopt, shards, &sink);
    DriveToEnd(&sharded, h.txns, /*gc_every=*/2, /*gc_target=*/1);
    auto got = SortedViolations(sink.TakeAll());
    ASSERT_EQ(got.size(), mono_v.size()) << "shards=" << shards;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], mono_v[i]) << "shards=" << shards << " index " << i;
    }
    EXPECT_EQ(sharded.watermark(), mono.watermark()) << "shards=" << shards;
  }
  std::filesystem::remove_all(base);
}

// EXT list mismatches carry the first divergent element index (the
// report payload that makes shrunk list repros diagnosable), identically
// online and offline.
TEST(ListParityTest, ListMismatchReportsDivergenceIndex) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).A(0, 1)
                  .Txn(2, 0, 1, 3, 4).A(0, 2)
                  // Observes [1, 7]: diverges from [1, 2] at index 1.
                  .Txn(3, 1, 0, 5, 6).L(0, {1, 7})
                  .Build();

  CountingSink offline(8);
  Chronos::CheckHistory(h, &offline);
  ASSERT_EQ(offline.count(ViolationType::kExt), 1u);
  ASSERT_EQ(offline.first().size(), 1u);
  EXPECT_EQ(offline.first()[0].divergence, 1);
  EXPECT_EQ(offline.first()[0].expected, 2);  // frontier length
  EXPECT_EQ(offline.first()[0].got, 2);       // observed length

  CountingSink online(8);
  Aion::Options opt;
  opt.ext_timeout_ms = 1u << 30;
  Aion aion(opt, &online);
  DriveToEnd(&aion, h.txns);
  ASSERT_EQ(online.count(ViolationType::kExt), 1u);
  ASSERT_EQ(online.first().size(), 1u);
  EXPECT_EQ(online.first()[0].divergence, 1);
  EXPECT_EQ(online.first()[0].expected, 2);
  EXPECT_EQ(online.first()[0].got, 2);
}

}  // namespace
}  // namespace chronos::online

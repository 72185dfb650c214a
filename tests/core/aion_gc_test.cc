// AION garbage collection: safe-watermark clamping, spill-and-reload for
// stragglers below the watermark, and verdict equivalence with and
// without GC.
#include <filesystem>

#include <gtest/gtest.h>

#include "../testutil.h"
#include "core/aion.h"
#include "core/chronos.h"

namespace chronos {
namespace {

using testing::HistoryBuilder;

std::string TempSpillDir(const char* name) {
  return chronos::testing::UniqueTempDir(name);
}

// A chain of writers/readers on one key, delivered in order.
History ChainHistory(uint64_t n) {
  HistoryBuilder b;
  for (uint64_t i = 0; i < n; ++i) {
    Timestamp base = 10 * (i + 1);
    b.Txn(i + 1, static_cast<SessionId>(i % 4), i / 4, base, base + 5)
        .R(1, i == 0 ? kValueInit : static_cast<Value>(i))
        .W(1, static_cast<Value>(i + 1));
  }
  return b.Build();
}

TEST(AionGcTest, GcClampsToUnfinalizedViews) {
  History h = ChainHistory(10);
  CountingSink sink;
  Aion::Options opt;
  opt.ext_timeout_ms = 1u << 30;  // nothing finalizes
  Aion aion(opt, &sink);
  uint64_t now = 0;
  for (const Transaction& t : h.txns) aion.OnTransaction(t, now++);
  Timestamp wm = aion.Gc(1000);
  // The oldest unfinalized view (first txn's start at ts 10) blocks GC.
  EXPECT_LT(wm, 10u);
  EXPECT_EQ(aion.GetFootprint().live_txns, 10u);
}

TEST(AionGcTest, GcEvictsFinalizedPrefix) {
  History h = ChainHistory(10);
  CountingSink sink;
  Aion::Options opt;
  opt.ext_timeout_ms = 1;  // finalize almost immediately
  opt.spill_dir = TempSpillDir("gc_prefix");
  Aion aion(opt, &sink);
  uint64_t now = 0;
  for (const Transaction& t : h.txns) aion.OnTransaction(t, now += 10);
  aion.AdvanceTime(now + 100);  // all finalized
  Timestamp wm = aion.Gc(65);   // up to txn 6's commit
  EXPECT_EQ(wm, 65u);
  EXPECT_EQ(aion.GetFootprint().live_txns, 4u);
  EXPECT_EQ(sink.total(), 0u);
  std::filesystem::remove_all(opt.spill_dir);
}

TEST(AionGcTest, StragglerBelowWatermarkUsesSpilledVersions) {
  // Writers at cts 15, 25; reader straggler with view between them must
  // be justified against the *spilled* ts-15 version after GC.
  HistoryBuilder b;
  b.Txn(1, 0, 0, 10, 15).W(1, 1);
  b.Txn(2, 1, 0, 20, 25).W(1, 2);
  b.Txn(3, 2, 0, 30, 35).W(1, 3);
  History writers = b.Build();
  Transaction straggler;
  {
    HistoryBuilder sb;
    sb.Txn(4, 3, 0, 17, 17).R(1, 1);  // view 17: sees ts-15 version
    straggler = sb.Build().txns[0];
  }
  CountingSink sink;
  Aion::Options opt;
  opt.ext_timeout_ms = 1;
  opt.spill_dir = TempSpillDir("gc_straggler");
  Aion aion(opt, &sink);
  uint64_t now = 0;
  for (const Transaction& t : writers.txns) aion.OnTransaction(t, now += 10);
  aion.AdvanceTime(1000);
  aion.Gc(26);  // evicts ts-15 (ts-25 kept as base), watermark 26
  ASSERT_EQ(aion.watermark(), 26u);
  aion.OnTransaction(straggler, 2000);
  aion.Finish();
  EXPECT_EQ(sink.count(ViolationType::kExt), 0u)
      << "spilled version must justify the straggler's read";
  EXPECT_GE(aion.stats().spill_reloads, 1u);
  std::filesystem::remove_all(opt.spill_dir);
}

TEST(AionGcTest, StragglerConflictFoundInSpilledIntervals) {
  // Writer interval [10,15] gets spilled; a straggler writing the same
  // key with an overlapping span [12,14] must still be flagged.
  HistoryBuilder b;
  b.Txn(1, 0, 0, 10, 15).W(1, 1);
  b.Txn(2, 1, 0, 20, 25).W(1, 2);
  History writers = b.Build();
  Transaction straggler;
  {
    HistoryBuilder sb;
    sb.Txn(3, 2, 0, 12, 14).W(1, 9);
    straggler = sb.Build().txns[0];
  }
  CountingSink sink;
  Aion::Options opt;
  opt.ext_timeout_ms = 1;
  opt.spill_dir = TempSpillDir("gc_conflict");
  Aion aion(opt, &sink);
  uint64_t now = 0;
  for (const Transaction& t : writers.txns) aion.OnTransaction(t, now += 10);
  aion.AdvanceTime(1000);
  aion.Gc(19);
  ASSERT_EQ(aion.watermark(), 19u);
  aion.OnTransaction(straggler, 2000);
  aion.Finish();
  EXPECT_EQ(sink.count(ViolationType::kNoConflict), 1u);
  std::filesystem::remove_all(opt.spill_dir);
}

TEST(AionGcTest, ShadowedStragglerDoesNotDisturbLaterReaders) {
  // Straggler commits below the watermark *behind* a retained base
  // version: readers above the watermark already saw the base and must
  // not be re-flagged.
  HistoryBuilder b;
  b.Txn(1, 0, 0, 10, 15).W(1, 1);
  b.Txn(2, 1, 0, 20, 25).W(1, 2);
  b.Txn(3, 2, 0, 30, 30).R(1, 2);  // justified by ts-25 version
  History head = b.Build();
  Transaction straggler;
  {
    HistoryBuilder sb;
    sb.Txn(4, 3, 0, 11, 12).W(1, 9);  // lands before ts-15; shadowed
    straggler = sb.Build().txns[0];
  }
  CountingSink sink;
  Aion::Options opt;
  opt.ext_timeout_ms = 1;
  opt.spill_dir = TempSpillDir("gc_shadow");
  Aion aion(opt, &sink);
  uint64_t now = 0;
  for (const Transaction& t : head.txns) aion.OnTransaction(t, now += 10);
  aion.AdvanceTime(1000);
  aion.Gc(26);
  aion.OnTransaction(straggler, 2000);
  aion.Finish();
  EXPECT_EQ(sink.count(ViolationType::kExt), 0u);
  std::filesystem::remove_all(opt.spill_dir);
}

TEST(AionGcTest, ReplayedTidDoesNotPinTheWatermark) {
  // A duplicate tid with fresh timestamps must not leave a phantom
  // unfinalized view behind (which would clamp every future GC), but its
  // writes must still land in the frontier for later honest readers.
  HistoryBuilder b;
  b.Txn(1, 0, 0, 10, 15).W(1, 1);
  b.Txn(1, 0, 1, 30, 35).W(1, 2);  // same tid replayed
  b.Txn(2, 1, 0, 40, 45).R(1, 2).W(1, 3);
  History h = b.Build();
  CountingSink sink;
  Aion::Options opt;
  opt.ext_timeout_ms = 1;
  Aion aion(opt, &sink);
  uint64_t now = 0;
  for (const Transaction& t : h.txns) aion.OnTransaction(t, now += 10);
  aion.AdvanceTime(1000);  // everything finalizes
  EXPECT_EQ(sink.count(ViolationType::kExt), 0u)
      << "the replay's write at ts 35 must justify the read of value 2";
  EXPECT_EQ(aion.Gc(44), 44u)
      << "watermark must advance past the replayed tid's views";
}

TEST(AionGcTest, GcToLiveTargetReducesFootprint) {
  History h = ChainHistory(20);
  CountingSink sink;
  Aion::Options opt;
  opt.ext_timeout_ms = 1;
  opt.spill_dir = TempSpillDir("gc_target");
  Aion aion(opt, &sink);
  uint64_t now = 0;
  for (const Transaction& t : h.txns) aion.OnTransaction(t, now += 10);
  aion.AdvanceTime(now + 100);
  aion.GcToLiveTarget(5);
  EXPECT_LE(aion.GetFootprint().live_txns, 5u);
  EXPECT_EQ(sink.total(), 0u);
  std::filesystem::remove_all(opt.spill_dir);
}

TEST(AionGcTest, StragglerReloadAcrossMultipleSpilledEpochs) {
  // Several GC passes spill several epochs; a straggler whose view falls
  // below the final watermark must reload spilled state (spill_reloads
  // increments) and produce the same verdict as an un-GC'd run.
  History h = ChainHistory(12);  // writers at cts 15, 25, ..., 125
  Transaction straggler;
  {
    HistoryBuilder sb;
    // View 27 is justified by the second writer's ts-25 version (value 2),
    // which the first GC pass evicts. Fresh session: ChainHistory uses
    // sids 0-3.
    sb.Txn(100, 4, 0, 27, 27).R(1, 2);
    straggler = sb.Build().txns[0];
  }

  // Reference: no GC at all.
  CountingSink ref;
  {
    Aion::Options opt;
    opt.ext_timeout_ms = 1;
    Aion aion(opt, &ref);
    uint64_t now = 0;
    for (const Transaction& t : h.txns) aion.OnTransaction(t, now += 10);
    aion.AdvanceTime(1000);
    aion.OnTransaction(straggler, 2000);
    aion.Finish();
  }
  ASSERT_EQ(ref.count(ViolationType::kExt), 0u);

  CountingSink sink;
  Aion::Options opt;
  opt.ext_timeout_ms = 1;
  opt.spill_dir = TempSpillDir("gc_multi_epoch");
  Aion aion(opt, &sink);
  uint64_t now = 0;
  size_t fed = 0;
  for (const Transaction& t : h.txns) {
    aion.OnTransaction(t, now += 10);
    aion.AdvanceTime(now + 100);  // finalize everything so GC can move
    if (++fed % 4 == 0) aion.Gc(t.commit_ts + 1);
  }
  EXPECT_GE(aion.stats().gc_passes, 2u) << "multiple epochs must be spilled";
  ASSERT_GT(aion.watermark(), 27u) << "straggler must arrive below watermark";

  uint64_t reloads_before = aion.stats().spill_reloads;
  aion.OnTransaction(straggler, 2000);
  aion.Finish();
  EXPECT_GT(aion.stats().spill_reloads, reloads_before)
      << "below-watermark view must hit the spill store";
  EXPECT_EQ(sink.count(ViolationType::kExt), ref.count(ViolationType::kExt));
  EXPECT_EQ(sink.count(ViolationType::kInt), ref.count(ViolationType::kInt));
  EXPECT_EQ(sink.count(ViolationType::kNoConflict),
            ref.count(ViolationType::kNoConflict));
  std::filesystem::remove_all(opt.spill_dir);
}

TEST(AionGcTest, VerdictsUnchangedByAggressiveGc) {
  History h = ChainHistory(30);
  // Corrupt one read to create a known EXT violation.
  h.txns[20].ops[0].value = 999;
  CountingSink ref;
  Chronos::CheckHistory(h, &ref);
  ASSERT_EQ(ref.count(ViolationType::kExt), 1u);

  CountingSink sink;
  std::string dir = TempSpillDir("gc_equiv");
  testing::RunAionToEnd(h.txns, IsolationLevel::kSi, &sink, dir,
                        /*gc_every=*/4, /*gc_target=*/2,
                        /*ext_timeout=*/1);
  EXPECT_EQ(sink.count(ViolationType::kExt), ref.count(ViolationType::kExt));
  EXPECT_EQ(sink.count(ViolationType::kInt), ref.count(ViolationType::kInt));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace chronos

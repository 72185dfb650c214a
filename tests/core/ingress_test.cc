// The transaction-scoped ingress (core/txn_ingress.h): its timestamp
// registry, an ascending flat vector searched from the back, and the
// read-view tombstones that clamp the GC watermark.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../testutil.h"
#include "core/aion.h"
#include "core/online_checker.h"
#include "core/state_io.h"
#include "core/txn_ingress.h"
#include "core/types.h"
#include "core/violation.h"
#include "online/sharded_aion.h"

namespace chronos {
namespace {

using Kind = TxnIngress::Admission::Kind;
using chronos::testing::DriveToEnd;
using chronos::testing::HistoryBuilder;

class NullDispatch : public TxnIngress::Dispatch {
 public:
  void DispatchTxn(const KeyEngine::TxnCtx&, ClassifiedOps&&, bool,
                   uint64_t) override {}
  void DispatchFinalize(TxnId) override {}
  void DispatchGc(Timestamp) override {}
};

struct Harness {
  CheckerOptions opt = MakeOpt();
  CheckerStats stats;
  std::vector<Violation> reported;
  NullDispatch dispatch;
  TxnIngress ingress{
      opt, &stats,
      [this](Timestamp, const Violation& v) { reported.push_back(v); },
      &dispatch};

  static CheckerOptions MakeOpt() {
    CheckerOptions o;
    o.ext_timeout_ms = 1;
    return o;
  }

  Kind Admit(TxnId tid, SessionId sid, Timestamp sts, Timestamp cts,
             IsolationLevel iso = IsolationLevel::kSi) {
    Transaction t;
    t.tid = tid;
    t.sid = sid;
    t.start_ts = sts;
    t.commit_ts = cts;
    t.iso = iso;
    t.ops.push_back({OpType::kWrite, 1, static_cast<Value>(tid), 0});
    return ingress.AdmitTxn(t, /*now_ms=*/0).kind;
  }

  std::string Export() {
    StateWriter w;
    ingress.Transfer(w);
    return w.Take();
  }
};

// 200 in-order SI transactions, one per session: txn i claims start
// 10i+1 and commit 10i+5, so the registry holds 400 timestamps.
void AdmitInOrder(Harness* h) {
  for (TxnId i = 0; i < 200; ++i) {
    ASSERT_EQ(h->Admit(i + 1, static_cast<SessionId>(i), 10 * i + 1,
                       10 * i + 5),
              Kind::kDispatch);
  }
  ASSERT_EQ(h->ingress.used_ts_count(), 400u);
}

bool LastIsTsDup(const Harness& h) {
  return !h.reported.empty() &&
         h.reported.back().type == ViolationType::kTsDuplicate;
}

TEST(TsRegistryTest, StragglerDeepInsideTheRegistryDropsAsTsDup) {
  Harness h;
  AdmitInOrder(&h);
  // A straggler whose start is a commit ts 150 transactions back.
  EXPECT_EQ(h.Admit(1000, 900, 505, 5000), Kind::kDrop);
  EXPECT_TRUE(LastIsTsDup(h));
  // ... or whose commit is an old start ts.
  h.reported.clear();
  EXPECT_EQ(h.Admit(1001, 901, 300, 1001), Kind::kDrop);
  EXPECT_TRUE(LastIsTsDup(h));
  // A SER straggler colliding deep inside drops too.
  h.reported.clear();
  EXPECT_EQ(h.Admit(1002, 902, 1, 1205, IsolationLevel::kSer), Kind::kDrop);
  EXPECT_TRUE(LastIsTsDup(h));
  EXPECT_EQ(h.ingress.used_ts_count(), 400u) << "a drop claims nothing";
  // Fresh timestamps between used ones are claimed in place and then
  // collide like any other.
  EXPECT_EQ(h.Admit(1003, 903, 503, 507), Kind::kDispatch);
  EXPECT_EQ(h.ingress.used_ts_count(), 402u);
  EXPECT_EQ(h.Admit(1004, 904, 502, 507, IsolationLevel::kSer), Kind::kDrop);
  EXPECT_EQ(h.Admit(1005, 905, 503, 5001), Kind::kDrop);
}

TEST(TsRegistryTest, GcCutsExactlyThePrefixAtOrBelowTheWatermark) {
  Harness h;
  AdmitInOrder(&h);
  h.ingress.AdvanceTime(10);  // every view finalizes
  ASSERT_EQ(h.ingress.Gc(505), 505u);
  // Starts 1..501 and commits 5..505 (51 of each) are gone.
  EXPECT_EQ(h.ingress.used_ts_count(), 400u - 102u);
  // 505 is free again (a straggler below the line), 511 still taken.
  EXPECT_EQ(h.Admit(2000, 1000, 1, 505, IsolationLevel::kSer),
            Kind::kDispatch);
  EXPECT_EQ(h.Admit(2001, 1001, 1, 511, IsolationLevel::kSer), Kind::kDrop);
  EXPECT_EQ(h.ingress.used_ts_count(), 400u - 101u);
  // The next pass cuts the straggler's claim with the rest of its prefix.
  h.ingress.AdvanceTime(20);
  ASSERT_EQ(h.ingress.Gc(515), 515u);
  EXPECT_EQ(h.ingress.used_ts_count(), 400u - 104u);
}

TEST(TsRegistryTest, ExportImportExportIsByteIdentical) {
  Harness h;
  AdmitInOrder(&h);
  h.ingress.AdvanceTime(10);
  h.ingress.Gc(505);
  h.Admit(3000, 2000, 203, 204);  // below the line, claimed in place
  // Two commit-view transactions sharing a view: the tombstone multiset
  // holds it twice once both finalize.
  h.Admit(3001, 2001, 9, 2100, IsolationLevel::kRc);
  h.Admit(3002, 2002, 9, 2100, IsolationLevel::kRa);
  h.ingress.AdvanceTime(20);
  const std::string img = h.Export();

  Harness restored;
  StateReader r(img);
  restored.ingress.Transfer(r);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(restored.ingress.used_ts_count(), h.ingress.used_ts_count());
  EXPECT_TRUE(restored.Export() == img);
  // The restored registry answers like the original.
  EXPECT_EQ(restored.Admit(3003, 2003, 511, 6000), Kind::kDrop);
  EXPECT_EQ(restored.Admit(3004, 2004, 203, 6001), Kind::kDrop);
}

// The two registry copies, each a count and its values, in `img`.
size_t RegistryOffset(const std::string& img,
                      const std::vector<Timestamp>& want) {
  StateWriter w;
  for (int copy = 0; copy < 2; ++copy) {
    w.Seq(want, 8, [&](const Timestamp& ts) { w.U64(ts); });
  }
  return img.find(w.data());
}

TEST(TsRegistryTest, ImportRejectsUnequalOrUnsortedCopies) {
  Harness h;
  for (TxnId i = 0; i < 3; ++i) {
    h.Admit(i + 1, static_cast<SessionId>(i), 100 * i + 11, 100 * i + 17);
  }
  const std::vector<Timestamp> want = {11, 17, 111, 117, 211, 217};
  const std::string img = h.Export();
  const size_t at = RegistryOffset(img, want);
  ASSERT_NE(at, std::string::npos);
  const size_t copy_bytes = 8 * (1 + want.size());
  auto rejected = [](const std::string& bytes) {
    Harness fresh;
    StateReader r(bytes);
    fresh.ingress.Transfer(r);
    return !r.ok();
  };
  EXPECT_FALSE(rejected(img));
  // The second copy's last value differs from the first's.
  std::string unequal = img;
  unequal[at + 2 * copy_bytes - 8] ^= 1;
  EXPECT_TRUE(rejected(unequal));
  // Equal copies out of order (117 and 211 swapped in both).
  std::string unsorted = img;
  for (size_t base : {at, at + copy_bytes}) {
    for (int b = 0; b < 8; ++b) {
      std::swap(unsorted[base + 8 * 4 + b], unsorted[base + 8 * 5 + b]);
    }
  }
  EXPECT_TRUE(rejected(unsorted));
  // Equal copies holding a timestamp twice.
  std::string repeated = img;
  for (size_t base : {at, at + copy_bytes}) {
    repeated.replace(base + 8 * 5, 8, repeated.substr(base + 8 * 4, 8));
  }
  EXPECT_TRUE(rejected(repeated));
}

// Two RC transactions share commit ts 10 (legal: commit-view levels claim
// no timestamps) on different keys, then 300 SI writers of one key.
History SharedViewHistory() {
  HistoryBuilder b;
  b.Txn(1, 0, 0, 9, 10).Iso(IsolationLevel::kRc).W(1, 100);
  b.Txn(2, 1, 0, 9, 10).Iso(IsolationLevel::kRc).W(2, 200);
  for (uint64_t i = 0; i < 300; ++i) {
    const Timestamp base = 20 + 10 * i;
    b.Txn(3 + i, 2, i, base, base + 5).W(5, static_cast<Value>(i + 1));
  }
  return b.Build();
}

template <typename Checker>
void ExpectWatermarkKeepsAdvancing(Checker* checker) {
  DriveToEnd(checker, SharedViewHistory().txns, /*gc_every=*/10,
             /*gc_target=*/5);
  // Every GcToLiveTarget after the first 10 arrivals finds finalized
  // transactions to drop: 30 calls, one pass each. Before the tombstones
  // were counted, the second shared view stayed on the heap and pinned
  // the watermark below ts 10 after the first pass.
  EXPECT_EQ(checker->stats().gc_passes, 30u);
  EXPECT_GT(checker->GetFootprint().live_txns, 0u);
  EXPECT_LE(checker->GetFootprint().live_txns, 10u);
}

TEST(ViewTombstoneTest, SharedCommitViewsDoNotPinTheWatermark) {
  CountingSink sink;
  Aion::Options opt;
  opt.ext_timeout_ms = 0;
  Aion aion(opt, &sink);
  ExpectWatermarkKeepsAdvancing(&aion);
  EXPECT_GT(aion.watermark(), 2900u);
  EXPECT_EQ(sink.total(), 0u);
}

TEST(ViewTombstoneTest, SharedCommitViewsDoNotPinTheShardedWatermark) {
  CountingSink sink;
  Aion::Options opt;
  opt.ext_timeout_ms = 0;
  online::ShardedAion sharded(opt, 2, &sink);
  ExpectWatermarkKeepsAdvancing(&sharded);
  EXPECT_EQ(sink.total(), 0u);
}

}  // namespace
}  // namespace chronos

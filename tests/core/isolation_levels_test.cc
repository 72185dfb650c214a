// Per-transaction isolation levels: EffectiveLevel and ReadView for every
// tag under both run defaults, the per-level timestamp-registration
// table at the ingress (SER {commit}, SI {start, commit}, RC/RA none),
// the per-level SESSION rules, the RC/RA membership read semantics, the
// codec round-trip for iso= tags, AssignLevels determinism, and the
// single-level equivalence between the mixed offline mirror and the
// pre-existing single-level checkers.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "../testutil.h"
#include "core/aion.h"
#include "core/chronos.h"
#include "core/online_checker.h"
#include "core/txn_ingress.h"
#include "core/types.h"
#include "core/violation.h"
#include "hist/codec.h"
#include "workload/generator.h"

namespace chronos {
namespace {

using chronos::testing::DriveToEnd;
using chronos::testing::HistoryBuilder;

// ---------------------------------------------------------------------------
// Ingress registration table, pinned via TxnIngress::used_ts_count().

/// Swallows the footprint half of admission; the registration tests only
/// exercise the transaction-scoped half (AdmitTxn).
class NullDispatch : public TxnIngress::Dispatch {
 public:
  void DispatchTxn(const KeyEngine::TxnCtx&, ClassifiedOps&&, bool,
                   uint64_t) override {}
  void DispatchFinalize(TxnId) override {}
  void DispatchGc(Timestamp) override {}
};

Transaction MakeTxn(TxnId tid, SessionId sid, uint64_t sno, Timestamp sts,
                    Timestamp cts, IsolationLevel iso) {
  Transaction t;
  t.tid = tid;
  t.sid = sid;
  t.sno = sno;
  t.start_ts = sts;
  t.commit_ts = cts;
  t.iso = iso;
  t.ops.push_back({OpType::kWrite, 1, static_cast<Value>(tid), 0});
  return t;
}

struct IngressHarness {
  CheckerOptions opt;
  CheckerStats stats;
  std::vector<Violation> reported;
  NullDispatch dispatch;
  TxnIngress ingress;

  explicit IngressHarness(IsolationLevel mode)
      : opt(MakeOpt(mode)),
        ingress(opt, &stats,
                [this](Timestamp, const Violation& v) { reported.push_back(v); },
                &dispatch) {}

  static CheckerOptions MakeOpt(IsolationLevel mode) {
    CheckerOptions o;
    o.mode = mode;
    o.ext_timeout_ms = 1u << 30;  // never fire deadlines mid-test
    return o;
  }

  TxnIngress::Admission Admit(const Transaction& t) {
    return ingress.AdmitTxn(t, /*now_ms=*/0);
  }
};

// The level resolution and read-view column of the per-level table.
TEST(LevelTable, EffectiveLevelAndReadViewPerTagUnderBothRunDefaults) {
  // A transaction with start_ts 3 and commit_ts 8: only SI reads at its
  // start; SER, RC and RA read at the commit.
  struct Row {
    IsolationLevel tag;
    IsolationLevel level_at_si;  // EffectiveLevel under run default kSi
    Timestamp view_at_si;
    IsolationLevel level_at_ser;  // ... and under run default kSer
    Timestamp view_at_ser;
  };
  using L = IsolationLevel;
  const Row rows[] = {
      {L::kUnspecified, L::kSi, 3, L::kSer, 8},
      {L::kSi, L::kSi, 3, L::kSi, 3},
      {L::kSer, L::kSer, 8, L::kSer, 8},
      {L::kRc, L::kRc, 8, L::kRc, 8},
      {L::kRa, L::kRa, 8, L::kRa, 8},
  };
  for (const Row& r : rows) {
    const Transaction t = MakeTxn(1, 0, 0, /*sts=*/3, /*cts=*/8, r.tag);
    const IsolationLevel at_si = EffectiveLevel(t, L::kSi);
    const IsolationLevel at_ser = EffectiveLevel(t, L::kSer);
    EXPECT_EQ(at_si, r.level_at_si) << IsolationLevelName(r.tag);
    EXPECT_EQ(ReadView(t, at_si), r.view_at_si) << IsolationLevelName(r.tag);
    EXPECT_EQ(at_ser, r.level_at_ser) << IsolationLevelName(r.tag);
    EXPECT_EQ(ReadView(t, at_ser), r.view_at_ser)
        << IsolationLevelName(r.tag);
  }
}

TEST(LevelRegistration, SerRegistersCommitOnly) {
  IngressHarness h(IsolationLevel::kSi);
  auto a = h.Admit(MakeTxn(1, 0, 0, 4, 5, IsolationLevel::kSer));
  EXPECT_EQ(a.kind, TxnIngress::Admission::Kind::kDispatch);
  EXPECT_EQ(h.ingress.used_ts_count(), 1u);  // {commit}, not {start, commit}
  EXPECT_EQ(a.ctx.view_ts, 5u);              // SER reads at commit
  EXPECT_EQ(a.ctx.level, IsolationLevel::kSer);
  // A later SI transaction may reuse ts 4 — SER never registered it.
  auto b = h.Admit(MakeTxn(2, 1, 0, 3, 4, IsolationLevel::kSi));
  EXPECT_EQ(b.kind, TxnIngress::Admission::Kind::kDispatch);
  EXPECT_EQ(h.ingress.used_ts_count(), 3u);  // +{3, 4}
  // But commit ts 5 is taken: a SER reuse is a duplicate.
  auto c = h.Admit(MakeTxn(3, 2, 0, 2, 5, IsolationLevel::kSer));
  EXPECT_EQ(c.kind, TxnIngress::Admission::Kind::kDrop);
  ASSERT_FALSE(h.reported.empty());
  EXPECT_EQ(h.reported.back().type, ViolationType::kTsDuplicate);
}

TEST(LevelRegistration, SiRegistersStartAndCommit) {
  IngressHarness h(IsolationLevel::kSi);
  auto a = h.Admit(MakeTxn(1, 0, 0, 1, 2, IsolationLevel::kUnspecified));
  EXPECT_EQ(a.kind, TxnIngress::Admission::Kind::kDispatch);
  EXPECT_EQ(h.ingress.used_ts_count(), 2u);  // default level is SI
  EXPECT_EQ(a.ctx.view_ts, 1u);              // SI reads at start
  EXPECT_EQ(a.ctx.level, IsolationLevel::kSi);
}

TEST(LevelRegistration, InvalidSiIsIntOnlyAndRegistersNothing) {
  IngressHarness h(IsolationLevel::kSi);
  auto a = h.Admit(MakeTxn(1, 0, 0, 9, 8, IsolationLevel::kSi));  // Eq.(1) bad
  EXPECT_EQ(a.kind, TxnIngress::Admission::Kind::kIntOnly);
  EXPECT_EQ(h.ingress.used_ts_count(), 0u);
  ASSERT_FALSE(h.reported.empty());
  EXPECT_EQ(h.reported.back().type, ViolationType::kTsOrder);
  // The invalid transaction's timestamps stay free for others.
  auto b = h.Admit(MakeTxn(2, 1, 0, 8, 9, IsolationLevel::kSi));
  EXPECT_EQ(b.kind, TxnIngress::Admission::Kind::kDispatch);
  EXPECT_EQ(h.ingress.used_ts_count(), 2u);
}

TEST(LevelRegistration, RcRaRegisterNothingAndBypassDupGate) {
  IngressHarness h(IsolationLevel::kSi);
  auto a = h.Admit(MakeTxn(1, 0, 0, 1, 5, IsolationLevel::kRc));
  EXPECT_EQ(a.kind, TxnIngress::Admission::Kind::kDispatch);
  EXPECT_EQ(h.ingress.used_ts_count(), 0u);
  EXPECT_EQ(a.ctx.view_ts, 5u);  // membership levels view at commit
  EXPECT_EQ(a.ctx.level, IsolationLevel::kRc);
  // Same commit ts again: no dup-gate for membership levels — both
  // dispatch (a real same-key collision surfaces at the engine, D9).
  auto b = h.Admit(MakeTxn(2, 1, 0, 2, 5, IsolationLevel::kRa));
  EXPECT_EQ(b.kind, TxnIngress::Admission::Kind::kDispatch);
  EXPECT_EQ(b.ctx.level, IsolationLevel::kRa);
  EXPECT_EQ(h.ingress.used_ts_count(), 0u);
  EXPECT_TRUE(h.reported.empty());
  // An SI transaction can still claim ts 5 afterwards: RC/RA left the
  // uniqueness table untouched.
  auto c = h.Admit(MakeTxn(3, 2, 0, 4, 5, IsolationLevel::kSi));
  EXPECT_EQ(c.kind, TxnIngress::Admission::Kind::kDispatch);
  EXPECT_EQ(h.ingress.used_ts_count(), 2u);
}

TEST(LevelRegistration, PerLevelSessionRules) {
  // SI successor: bad iff start < predecessor's commit.
  {
    IngressHarness h(IsolationLevel::kSi);
    h.Admit(MakeTxn(1, 0, 0, 1, 10, IsolationLevel::kSi));
    h.Admit(MakeTxn(2, 0, 1, 11, 15, IsolationLevel::kSi));  // start > cts ok
    EXPECT_TRUE(h.reported.empty());
    h.Admit(MakeTxn(3, 0, 2, 14, 20, IsolationLevel::kSi));  // 14 < 15: bad
    ASSERT_FALSE(h.reported.empty());
    EXPECT_EQ(h.reported.back().type, ViolationType::kSession);
  }
  // RC successor: SER-style rule on commit timestamps — bad iff
  // commit <= predecessor's commit.
  {
    IngressHarness h(IsolationLevel::kSi);
    h.Admit(MakeTxn(1, 0, 0, 9, 10, IsolationLevel::kRc));
    h.Admit(MakeTxn(2, 0, 1, 10, 10, IsolationLevel::kRc));  // 10 <= 10: bad
    ASSERT_FALSE(h.reported.empty());
    EXPECT_EQ(h.reported.back().type, ViolationType::kSession);
  }
  // RC successor with a strictly later commit is fine even when its
  // start dips below the predecessor's commit (no SI snapshot rule).
  {
    IngressHarness h(IsolationLevel::kSi);
    h.Admit(MakeTxn(1, 0, 0, 1, 10, IsolationLevel::kSi));
    h.Admit(MakeTxn(2, 0, 1, 5, 11, IsolationLevel::kRc));
    EXPECT_TRUE(h.reported.empty());
  }
}

// ---------------------------------------------------------------------------
// Membership (RC/RA) read semantics through the full online checker.

TEST(MembershipReads, RcAcceptsAnyCommittedVersionBeforeCommit) {
  // Frontier at the reader's view is 200, but 100 was committed earlier:
  // an SI reader flags EXT, an RC reader is satisfied by membership.
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).W(1, 100)
                  .Txn(2, 1, 0, 3, 4).W(1, 200)
                  .Txn(3, 2, 0, 5, 6).Iso(IsolationLevel::kRc).R(1, 100)
                  .Build();
  CountingSink sink;
  chronos::testing::RunAionToEnd(h.txns, IsolationLevel::kSi, &sink);
  EXPECT_EQ(sink.total(), 0u)
      << (sink.first().empty() ? "" : sink.first()[0].ToString());

  History si = h;
  si.txns[2].iso = IsolationLevel::kUnspecified;
  CountingSink si_sink;
  chronos::testing::RunAionToEnd(si.txns, IsolationLevel::kSi, &si_sink);
  EXPECT_EQ(si_sink.count(ViolationType::kExt), 1u);
}

TEST(MembershipReads, RcRejectsVersionAtOrAfterOwnCommit) {
  // The only writer of 100 commits at ts 6 == the RC reader's commit:
  // membership requires a strictly earlier commit, so this is EXT.
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).W(1, 50)
                  .Txn(2, 1, 0, 5, 6).W(1, 100)
                  .Txn(3, 2, 0, 4, 6).Iso(IsolationLevel::kRc).R(1, 100)
                  .Build();
  CountingSink sink;
  chronos::testing::RunAionToEnd(h.txns, IsolationLevel::kSi, &sink);
  EXPECT_EQ(sink.count(ViolationType::kExt), 1u);
}

TEST(MembershipReads, InstallTimeRecheckFlipsLateWriterIn) {
  // The RC reader arrives before the writer whose value it observed;
  // the install-time membership re-check must flip the verdict to
  // satisfied before finalization.
  History h = HistoryBuilder()
                  .Txn(3, 2, 0, 5, 6).Iso(IsolationLevel::kRc).R(1, 100)
                  .Txn(1, 0, 0, 1, 2).W(1, 100)
                  .Build();
  CountingSink sink;
  chronos::testing::RunAionToEnd(h.txns, IsolationLevel::kSi, &sink);
  EXPECT_EQ(sink.total(), 0u)
      << (sink.first().empty() ? "" : sink.first()[0].ToString());
}

// ---------------------------------------------------------------------------
// Codec round-trip for iso= tags.

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(IsoCodec, MixedHistoryRoundTripsByteIdentically) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).W(1, 100)
                  .Txn(2, 1, 0, 3, 4).Iso(IsolationLevel::kSer).W(2, 200)
                  .Txn(3, 2, 0, 5, 6).Iso(IsolationLevel::kRc).R(1, 100)
                  .Txn(4, 2, 1, 7, 8).Iso(IsolationLevel::kRa).R(2, 200)
                  .Txn(5, 0, 1, 9, 10).Iso(IsolationLevel::kSi).W(3, 300)
                  .Build();
  const std::string dir = chronos::testing::UniqueTempDir("iso");
  const std::string p1 = dir + "/iso_rt_1.hist";
  const std::string p2 = dir + "/iso_rt_2.hist";
  ASSERT_TRUE(hist::SaveHistory(h, p1).ok);

  History back;
  ASSERT_TRUE(hist::LoadHistory(p1, &back).ok);
  ASSERT_EQ(back.txns.size(), h.txns.size());
  for (size_t i = 0; i < h.txns.size(); ++i) {
    EXPECT_EQ(back.txns[i].iso, h.txns[i].iso) << "txn " << i;
  }
  EXPECT_TRUE(HistoryHasLevelTags(back));

  ASSERT_TRUE(hist::SaveHistory(back, p2).ok);
  EXPECT_EQ(Slurp(p1), Slurp(p2));
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(IsoCodec, UntaggedHistorySavesWithoutIsoField) {
  History h = HistoryBuilder().Txn(1, 0, 0, 1, 2).W(1, 100).Build();
  const std::string p = chronos::testing::UniqueTempDir("iso") + "/iso_plain.hist";
  ASSERT_TRUE(hist::SaveHistory(h, p).ok);
  EXPECT_EQ(Slurp(p).find("iso="), std::string::npos);
  History back;
  ASSERT_TRUE(hist::LoadHistory(p, &back).ok);
  EXPECT_FALSE(HistoryHasLevelTags(back));
  std::remove(p.c_str());
}

TEST(IsoCodec, RejectsUnknownIsoValue) {
  const std::string p = chronos::testing::UniqueTempDir("iso") + "/iso_bad.hist";
  {
    std::ofstream out(p);
    out << "chronos-history v1 sessions=1 txns=1\n"
        << "T 1 0 0 1 2 1 iso=bogus\n"
        << "W 1 100\n"
        << "# end txns=1\n";
  }
  History back;
  hist::CodecStatus st = hist::LoadHistory(p, &back);
  EXPECT_FALSE(st.ok);
  std::remove(p.c_str());
}

// ---------------------------------------------------------------------------
// AssignLevels: deterministic, order-independent, remainder untagged.

TEST(AssignLevels, DeterministicAndOrderIndependent) {
  workload::WorkloadParams p;
  p.sessions = 8;
  p.txns = 400;
  p.ops_per_txn = 4;
  p.keys = 50;
  p.seed = 21;
  History h = workload::GenerateDefaultHistory(p);

  workload::LevelMix mix{40, 10, 20, 10};  // 20% remainder stays untagged
  History a = h;
  workload::AssignLevels(&a, mix, 99);
  History b = h;
  std::reverse(b.txns.begin(), b.txns.end());
  workload::AssignLevels(&b, mix, 99);
  std::reverse(b.txns.begin(), b.txns.end());
  size_t counts[5] = {0, 0, 0, 0, 0};
  for (size_t i = 0; i < a.txns.size(); ++i) {
    EXPECT_EQ(a.txns[i].iso, b.txns[i].iso) << "tid " << a.txns[i].tid;
    ++counts[static_cast<size_t>(a.txns[i].iso)];
  }
  // Every level in the mix (and the untagged remainder) must appear in a
  // 400-txn sample; exact proportions are the hash's business.
  EXPECT_GT(counts[static_cast<size_t>(IsolationLevel::kUnspecified)], 0u);
  EXPECT_GT(counts[static_cast<size_t>(IsolationLevel::kSer)], 0u);
  EXPECT_GT(counts[static_cast<size_t>(IsolationLevel::kSi)], 0u);
  EXPECT_GT(counts[static_cast<size_t>(IsolationLevel::kRc)], 0u);
  EXPECT_GT(counts[static_cast<size_t>(IsolationLevel::kRa)], 0u);

  // A different seed produces a different assignment.
  History c = h;
  workload::AssignLevels(&c, mix, 100);
  size_t differing = 0;
  for (size_t i = 0; i < a.txns.size(); ++i) {
    if (a.txns[i].iso != c.txns[i].iso) ++differing;
  }
  EXPECT_GT(differing, 0u);

  // The empty mix never tags.
  History d = h;
  workload::AssignLevels(&d, workload::LevelMix{}, 99);
  EXPECT_FALSE(HistoryHasLevelTags(d));
}

// ---------------------------------------------------------------------------
// Per-class count comparison between two sinks.

void ExpectSameCounts(const CountingSink& got, const CountingSink& want) {
  static constexpr ViolationType kAll[] = {
      ViolationType::kSession,    ViolationType::kInt,
      ViolationType::kExt,        ViolationType::kNoConflict,
      ViolationType::kTsOrder,    ViolationType::kTsDuplicate,
  };
  EXPECT_EQ(got.total(), want.total());
  for (ViolationType t : kAll) {
    EXPECT_EQ(got.count(t), want.count(t))
        << "class " << static_cast<int>(t);
  }
}

// ---------------------------------------------------------------------------
// Single-level equivalence: a history where every transaction carries an
// explicit tag of the run-level default must check identically to the
// untagged pre-refactor run — online and offline.

TEST(SingleLevelEquivalence, AllSiTagsMatchUntaggedRun) {
  workload::WorkloadParams p;
  p.sessions = 10;
  p.txns = 600;
  p.ops_per_txn = 6;
  p.keys = 60;
  p.seed = 31;
  db::DbConfig cfg;
  cfg.faults.value_corruption_prob = 0.03;
  cfg.faults.lost_update_prob = 0.05;
  cfg.fault_seed = 77;
  History h = workload::GenerateDefaultHistory(p, cfg);

  History tagged = h;
  workload::AssignLevels(&tagged, workload::LevelMix{100, 0, 0, 0}, 5);
  ASSERT_TRUE(HistoryHasLevelTags(tagged));

  CountingSink plain, si_tagged;
  chronos::testing::RunAionToEnd(h.txns, IsolationLevel::kSi, &plain);
  chronos::testing::RunAionToEnd(tagged.txns, IsolationLevel::kSi, &si_tagged);
  ASSERT_GT(plain.total(), 0u) << "faulty history must surface violations";
  ExpectSameCounts(si_tagged, plain);

  // Offline: the mixed mirror on an all-SI-tagged history must match
  // plain Chronos on the untagged one.
  CountingSink chronos_sink, mixed_sink;
  Chronos::CheckHistory(h, &chronos_sink);
  ChronosMixed::CheckHistory(tagged, IsolationLevel::kSi, &mixed_sink);
  ExpectSameCounts(mixed_sink, chronos_sink);
}

TEST(SingleLevelEquivalence, AllSerTagsMatchUntaggedSerRun) {
  workload::WorkloadParams p;
  p.sessions = 10;
  p.txns = 600;
  p.ops_per_txn = 6;
  p.keys = 60;
  p.seed = 32;
  db::DbConfig cfg;
  cfg.faults.value_corruption_prob = 0.03;
  cfg.fault_seed = 78;
  History h = workload::GenerateDefaultHistory(p, cfg);

  History tagged = h;
  workload::AssignLevels(&tagged, workload::LevelMix{0, 100, 0, 0}, 5);
  ASSERT_TRUE(HistoryHasLevelTags(tagged));

  CountingSink plain, ser_tagged;
  chronos::testing::RunAionToEnd(h.txns, IsolationLevel::kSer, &plain);
  // Tagged SER under an SI run default: the tags must fully override.
  chronos::testing::RunAionToEnd(tagged.txns, IsolationLevel::kSi, &ser_tagged);
  ExpectSameCounts(ser_tagged, plain);

  CountingSink chronos_sink, mixed_sink;
  Chronos::CheckHistory(h, &chronos_sink, IsolationLevel::kSer);
  ChronosMixed::CheckHistory(tagged, IsolationLevel::kSi, &mixed_sink);
  ExpectSameCounts(mixed_sink, chronos_sink);
}

}  // namespace
}  // namespace chronos

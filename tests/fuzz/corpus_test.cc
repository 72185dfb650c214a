// Tier-1 replay of the shrunk regression corpus (tests/corpus): every
// .repro runs through the full differential oracle, its Chronos verdict
// is pinned to the manifest, and the runtime-knob divergence entries
// (D5 finite-timeout reordering, D7 GC without spill) are driven
// explicitly. This is the standing answer to "did a refactor change a
// verdict": any drift in any checker either breaks a cross-check rule
// or moves a pinned count.
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../testutil.h"
#include "core/aion.h"
#include "core/chronos.h"
#include "fuzz/corpus.h"
#include "fuzz/differ.h"
#include "fuzz/scenario.h"

namespace chronos::fuzz {
namespace {

const char* kCorpusDir = CHRONOS_TEST_SRCDIR "/tests/corpus";

Corpus LoadOrDie() {
  Corpus corpus = LoadCorpus(kCorpusDir);
  EXPECT_TRUE(corpus.ok()) << corpus.error;
  return corpus;
}

const CorpusEntry& EntryOrDie(const Corpus& corpus, const std::string& file) {
  for (const CorpusEntry& e : corpus.entries) {
    if (e.file == file) return e;
  }
  ADD_FAILURE() << "corpus entry missing: " << file;
  static CorpusEntry empty;
  return empty;
}

// Strict replay knobs: infinite timeout, commit order, no GC.
FuzzScenario StrictScenario(IsolationLevel level) {
  FuzzScenario sc;
  sc.db.isolation = level;
  return sc;
}

TEST(CorpusTest, EveryDivergenceTableEntryIsExercised) {
  Corpus corpus = LoadOrDie();
  std::set<std::string> tags;
  for (const CorpusEntry& e : corpus.entries) tags.insert(e.tag);
  for (const char* required :
       {"D1", "D2", "D3", "D4", "D5", "D6", "D7", "D8", "D9"}) {
    EXPECT_TRUE(tags.count(required))
        << "no corpus history exercises divergence entry " << required;
  }
}

TEST(CorpusTest, DifferCleanAndChronosCountsPinned) {
  Corpus corpus = LoadOrDie();
  std::string work = chronos::testing::UniqueTempDir("corpus_differ");
  for (const CorpusEntry& entry : corpus.entries) {
    CleanExpectation expect = entry.ExpectedTotal() == 0
                                  ? CleanExpectation::kClean
                                  : CleanExpectation::kFaulty;
    DiffReport report =
        DiffHistory(entry.history, StrictScenario(entry.level), expect, work);
    EXPECT_TRUE(report.Clean())
        << entry.file << ":\n" << report.Summary();
    const CheckerReport* ref = report.Find("chronos");
    if (!ref) ref = report.Find("chronos-mixed");
    ASSERT_NE(ref, nullptr) << entry.file;
    EXPECT_EQ(ref->counts, entry.expected)
        << entry.file << ": chronos verdict drifted\n" << report.Summary();

    const CheckerReport* blackbox = report.Find("ellekv");
    if (!blackbox) blackbox = report.Find("elle-list");
    if (entry.mixed) {
      // D8: single-level checkers are gated out on mixed histories —
      // there must be no black-box report to pin.
      EXPECT_EQ(ref->name, "chronos-mixed") << entry.file;
      EXPECT_EQ(blackbox, nullptr) << entry.file;
      continue;
    }
    ASSERT_NE(blackbox, nullptr) << entry.file;
    EXPECT_EQ(blackbox->detected, entry.blackbox_detect)
        << entry.file << ": black-box verdict drifted\n" << report.Summary();
  }
}

// D5: the weak_timeout history is clean offline, but delivering the
// reader before its writer under a 1 ms EXT timeout finalizes a false
// EXT verdict — the reason finite-timeout reordered scenarios are
// exempt from offline equality.
TEST(CorpusTest, WeakTimeoutEntryDemonstratesD5) {
  Corpus corpus = LoadOrDie();
  const CorpusEntry& entry = EntryOrDie(corpus, "weak_timeout.repro");
  ASSERT_EQ(entry.history.txns.size(), 3u);

  CountingSink offline;
  Chronos::CheckHistory(entry.history, &offline);
  EXPECT_EQ(offline.total(), 0u);

  // File order delivers the reader (tid 2) before the writer (tid 3).
  auto run_with_timeout = [&](uint64_t timeout_ms) {
    CountingSink sink;
    Aion::Options opt;
    opt.ext_timeout_ms = timeout_ms;
    Aion aion(opt, &sink);
    uint64_t now = 0;
    for (const Transaction& t : entry.history.txns) {
      aion.OnTransaction(t, now++);
    }
    aion.Finish();
    return sink.count(ViolationType::kExt);
  };
  EXPECT_GT(run_with_timeout(1), 0u) << "finite timeout should finalize "
                                        "the reader before its writer";
  EXPECT_EQ(run_with_timeout(1u << 30), 0u)
      << "an unexpired verdict must be corrected by the late writer";
}

// D7: the gc_straggler history is clean offline; with aggressive GC its
// session-1 reader arrives below the watermark. With a spill store the
// verdict still matches offline; without one the read becomes
// unverifiable (counted, not silently wrong).
TEST(CorpusTest, GcStragglerEntryDemonstratesD7) {
  Corpus corpus = LoadOrDie();
  const CorpusEntry& entry = EntryOrDie(corpus, "gc_straggler.repro");
  ASSERT_EQ(entry.history.txns.size(), 7u);

  CountingSink offline;
  Chronos::CheckHistory(entry.history, &offline);
  EXPECT_EQ(offline.total(), 0u);

  auto run = [&](const std::string& spill_dir) {
    CountingSink sink;
    Aion::Options opt;
    opt.ext_timeout_ms = 1;
    opt.spill_dir = spill_dir;
    Aion aion(opt, &sink);
    uint64_t now = 0;
    size_t since_gc = 0;
    for (const Transaction& t : entry.history.txns) {
      aion.OnTransaction(t, now++);
      if (++since_gc >= 2) {
        since_gc = 0;
        aion.GcToLiveTarget(1);
      }
    }
    aion.Finish();
    return std::make_pair(sink.total(), aion.stats().unsafe_below_watermark);
  };

  std::string dir = chronos::testing::UniqueTempDir("corpus_d7_spill");
  std::filesystem::remove_all(dir);
  auto [with_spill_total, with_spill_unsafe] = run(dir);
  EXPECT_EQ(with_spill_total, 0u)
      << "spill store must keep the straggler verifiable";
  EXPECT_EQ(with_spill_unsafe, 0u);
  std::filesystem::remove_all(dir);

  auto [no_spill_total, no_spill_unsafe] = run("");
  (void)no_spill_total;
  EXPECT_GT(no_spill_unsafe, 0u)
      << "spill-less GC must count the straggler as unverifiable";
}

// Regression (list_self_stamped): under reordered arrival, a later
// append to the key re-checks the self-stamped reader; the evaluation
// must exclude the reader's own version (installed at exactly its view
// timestamp) from the resolved-base comparison. The original fuzz
// finding left a permanent false EXT here.
TEST(CorpusTest, ListSelfStampedRecheckExcludesOwnVersion) {
  Corpus corpus = LoadOrDie();
  const CorpusEntry& entry = EntryOrDie(corpus, "list_self_stamped.repro");
  ASSERT_EQ(entry.history.txns.size(), 3u);

  // Deliver the middle appender (tid 2) last; the infinite timeout means
  // every verdict finalizes against the full chain, so the history must
  // come out clean in any session-preserving order.
  std::vector<const Transaction*> arrival = {&entry.history.txns[0],
                                             &entry.history.txns[2],
                                             &entry.history.txns[1]};
  CountingSink sink;
  Aion::Options opt;
  opt.ext_timeout_ms = 1u << 30;
  Aion aion(opt, &sink);
  uint64_t now = 0;
  for (const Transaction* t : arrival) aion.OnTransaction(*t, now++);
  aion.Finish();
  EXPECT_EQ(sink.total(), 0u)
      << "reordered arrival must not fabricate an EXT for the "
         "self-stamped list reader";
}

// D7 for lists (list_gc_straggler): aggressive GC collapses the key-0
// version boundaries below the straggler reader's view. With a spill
// store the prefix reconstructs from the spilled deltas and the verdict
// matches offline; without one the read is counted unverifiable.
TEST(CorpusTest, ListGcStragglerEntryDemonstratesD7) {
  Corpus corpus = LoadOrDie();
  const CorpusEntry& entry = EntryOrDie(corpus, "list_gc_straggler.repro");
  ASSERT_EQ(entry.history.txns.size(), 8u);

  CountingSink offline;
  Chronos::CheckHistory(entry.history, &offline);
  EXPECT_EQ(offline.total(), 0u);

  auto run = [&](const std::string& spill_dir) {
    CountingSink sink;
    Aion::Options opt;
    opt.ext_timeout_ms = 1;
    opt.spill_dir = spill_dir;
    Aion aion(opt, &sink);
    uint64_t now = 0;
    size_t since_gc = 0;
    for (const Transaction& t : entry.history.txns) {
      aion.OnTransaction(t, now++);
      if (++since_gc >= 2) {
        since_gc = 0;
        aion.GcToLiveTarget(1);
      }
    }
    aion.Finish();
    return std::make_pair(sink.total(), aion.stats().unsafe_below_watermark);
  };

  std::string dir = chronos::testing::UniqueTempDir("corpus_list_d7_spill");
  std::filesystem::remove_all(dir);
  auto [with_spill_total, with_spill_unsafe] = run(dir);
  EXPECT_EQ(with_spill_total, 0u)
      << "spilled list deltas must keep the straggler's prefix resolvable";
  EXPECT_EQ(with_spill_unsafe, 0u);
  std::filesystem::remove_all(dir);

  auto [no_spill_total, no_spill_unsafe] = run("");
  (void)no_spill_total;
  EXPECT_GT(no_spill_unsafe, 0u)
      << "spill-less GC must count the list straggler as unverifiable";
}

// D6: Chronos replays a duplicate-timestamp transaction (seeing its
// NOCONFLICT overlap), AION skips it — pinned here so the divergence
// stays deliberate.
TEST(CorpusTest, TsDupEntryDemonstratesD6) {
  Corpus corpus = LoadOrDie();
  const CorpusEntry& entry = EntryOrDie(corpus, "ts_dup.repro");

  CountingSink chronos_sink;
  Chronos::CheckHistory(entry.history, &chronos_sink);
  EXPECT_EQ(chronos_sink.count(ViolationType::kTsDuplicate), 1u);
  EXPECT_EQ(chronos_sink.count(ViolationType::kNoConflict), 1u);

  CountingSink aion_sink;
  Aion::Options opt;
  Aion aion(opt, &aion_sink);
  uint64_t now = 0;
  for (const Transaction& t : entry.history.txns) {
    aion.OnTransaction(t, now++);
  }
  aion.Finish();
  EXPECT_EQ(aion_sink.count(ViolationType::kTsDuplicate), 1u);
  EXPECT_EQ(aion_sink.count(ViolationType::kNoConflict), 0u)
      << "AION deliberately skips replaying duplicate-ts transactions";
}

// D8 (session): the RC session rule fires where the all-SI reading of
// the byte-identical history would instead hit the ingress dup-gate —
// the SESSION anomaly exists only because of the level tags.
TEST(CorpusTest, MixedRcSessionEntryDemonstratesD8) {
  Corpus corpus = LoadOrDie();
  const CorpusEntry& entry = EntryOrDie(corpus, "mixed_rc_session.repro");
  ASSERT_TRUE(entry.mixed);

  CountingSink mixed;
  ChronosMixed::CheckHistory(entry.history, IsolationLevel::kSi, &mixed);
  EXPECT_EQ(mixed.count(ViolationType::kSession), 1u);
  EXPECT_EQ(mixed.total(), 1u);

  // Strip the tags: under all-SI rules the start==commit successor
  // collides with its predecessor's registered commit timestamp and is
  // dropped at the uniqueness gate before the session check runs.
  History untagged = entry.history;
  for (Transaction& t : untagged.txns) t.iso = IsolationLevel::kUnspecified;
  CountingSink si;
  Chronos::CheckHistory(untagged, &si);
  EXPECT_EQ(si.count(ViolationType::kSession), 0u);
  EXPECT_GT(si.count(ViolationType::kTsDuplicate), 0u);
}

// D8 (waiver): RC's committed-membership read rule accepts an observed
// value that SI's snapshot-frontier rule flags as EXT.
TEST(CorpusTest, MixedRcWaivesExtEntryDemonstratesD8) {
  Corpus corpus = LoadOrDie();
  const CorpusEntry& entry = EntryOrDie(corpus, "mixed_rc_waives_ext.repro");
  ASSERT_TRUE(entry.mixed);

  CountingSink mixed;
  ChronosMixed::CheckHistory(entry.history, IsolationLevel::kSi, &mixed);
  EXPECT_EQ(mixed.total(), 0u) << "RC membership must accept the "
                                  "superseded-but-committed value";

  History untagged = entry.history;
  for (Transaction& t : untagged.txns) t.iso = IsolationLevel::kUnspecified;
  CountingSink si;
  Chronos::CheckHistory(untagged, &si);
  EXPECT_EQ(si.count(ViolationType::kExt), 1u)
      << "the same read under SI snapshot rules must be an EXT anomaly";
}

// D9: an RC writer sharing commit timestamp and key with an SI writer
// bypasses the ingress dup-gate; the duplicate surfaces as a per-key
// TS-DUP at version install, in both the online checker and the
// ChronosMixed mirror.
TEST(CorpusTest, MixedRcDupEntryDemonstratesD9) {
  Corpus corpus = LoadOrDie();
  const CorpusEntry& entry = EntryOrDie(corpus, "mixed_rc_dup.repro");
  ASSERT_TRUE(entry.mixed);

  CountingSink mixed;
  ChronosMixed::CheckHistory(entry.history, IsolationLevel::kSi, &mixed);
  EXPECT_EQ(mixed.count(ViolationType::kTsDuplicate), 1u);

  CountingSink aion_sink;
  Aion::Options opt;
  Aion aion(opt, &aion_sink);
  uint64_t now = 0;
  for (const Transaction& t : entry.history.txns) {
    aion.OnTransaction(t, now++);
  }
  aion.Finish();
  EXPECT_EQ(aion_sink.count(ViolationType::kTsDuplicate), 1u)
      << "the install-time collision must be reported even though the RC "
         "writer never registered its timestamps";

  // The level-aware duplicate predicate classifies this history under
  // the D6 boolean regime via its membership-commit-collision rule.
  EXPECT_TRUE(HistoryHasDuplicateTs(entry.history, IsolationLevel::kSi));

  // And it must NOT fire on a registered-looking clash that an RC tag
  // dissolves: an RC start timestamp equal to an SI commit timestamp is
  // no duplicate at all (RC registers nothing), where a level-blind
  // predicate would waive comparisons spuriously.
  History no_dup = entry.history;
  no_dup.txns[1].start_ts = 3;   // collides with txn 1's registered commit
  no_dup.txns[1].commit_ts = 5;  // ...but the commit no longer does
  no_dup.txns[1].ops[0].key = 2;
  EXPECT_FALSE(HistoryHasDuplicateTs(no_dup, IsolationLevel::kSi))
      << "RC registers no timestamps, so nothing is duplicated";
}

}  // namespace
}  // namespace chronos::fuzz

// Tier-1 schedule exploration of the regression corpus: every shrunk
// .repro small enough for the exhaustive enumerator runs through the
// full verdict-invariance oracle — any arrival order of a corpus
// history must keep its verdict (modulo the divergence-table waivers
// the oracle already encodes: D4 SESSION boolean, D6 duplicate
// timestamps). A flip here means a refactor made some checker's verdict
// depend on arrival order or pipeline timing.
#include <string>

#include <gtest/gtest.h>

#include "explore/oracle.h"
#include "explore/schedule.h"
#include "fuzz/corpus.h"

namespace chronos::explore {
namespace {

const char* kCorpusDir = CHRONOS_TEST_SRCDIR "/tests/corpus";

// Session chains keep corpus schedule spaces small (tens of classes),
// but bound the run anyway so a future corpus entry cannot stall
// tier-1; truncation still certifies every schedule it did visit.
constexpr uint64_t kMaxSchedulesPerEntry = 512;

TEST(ExploreCorpusTest, EverySmallCorpusEntryIsScheduleInvariant) {
  fuzz::Corpus corpus = fuzz::LoadCorpus(kCorpusDir);
  ASSERT_TRUE(corpus.ok()) << corpus.error;
  ASSERT_FALSE(corpus.entries.empty());

  size_t explored_entries = 0;
  for (const fuzz::CorpusEntry& e : corpus.entries) {
    if (e.history.txns.size() > kMaxExploreTxns) continue;
    ++explored_entries;

    ExploreOptions opts;
    opts.oracle.mode = e.level;
    opts.max_schedules = kMaxSchedulesPerEntry;
    ExploreResult r = ExploreHistory(e.history, opts);

    EXPECT_TRUE(r.error.empty()) << e.file << ": " << r.error;
    EXPECT_FALSE(r.flip_found)
        << e.file << " (" << e.tag << "): " << r.rule << ": " << r.detail
        << " flip schedule " << FormatScheduleSidecar(r);
    EXPECT_GE(r.explored, 1u) << e.file;

    // The reference schedule's violation counts match the manifest for
    // the classes that are exact under strict knobs (everything but
    // SESSION, which is boolean per D4, and the D6 dup entries).
    const bool dup = fuzz::HistoryHasDuplicateTs(e.history, e.level);
    if (!dup && e.tag != "D3") {  // D3: HLC skew, online counts differ
      for (ViolationType t : {ViolationType::kInt, ViolationType::kExt,
                              ViolationType::kNoConflict,
                              ViolationType::kTsOrder}) {
        EXPECT_EQ(r.reference_counts[static_cast<size_t>(t)],
                  e.expected[static_cast<size_t>(t)])
            << e.file << ": " << ViolationTypeName(t);
      }
      EXPECT_EQ(
          r.reference_counts[static_cast<size_t>(ViolationType::kSession)] > 0,
          e.expected[static_cast<size_t>(ViolationType::kSession)] > 0)
          << e.file << ": SESSION presence";
    }
  }
  // The corpus is a shrunk corpus: nearly everything fits under the
  // enumerator's cap. Guard against silently exploring nothing.
  EXPECT_GE(explored_entries, 10u);
}

}  // namespace
}  // namespace chronos::explore

// The shrunk regression corpus: .repro files (plain chronos-history
// format, replayable with `chronos_check --in=<file>`) plus a manifest
// recording each file's expected Chronos verdict, its black-box verdict,
// and which expected-divergence table entry (fuzz/differ.h, D1..D7) the
// history exercises. `corpus_test` replays the corpus in tier-1, making
// it the standing answer to "did this refactor change a verdict".
//
// manifest.txt format (one entry per line, '#' comments):
//   <file> <tag> [CLASS=<count>]... [blackbox=accept|detect] [mode=si|ser]
//   [iso=mixed]
// where CLASS is one of SESSION INT EXT NOCONFLICT TSORDER TSDUP;
// unlisted classes are expected to be zero and mode defaults to si.
// iso=mixed marks a history with per-transaction isolation tags: its
// counts pin the ChronosMixed reference, and no black-box verdict is
// pinned (the single-level black-box checkers are gated out, entry D8).
#ifndef CHRONOS_FUZZ_CORPUS_H_
#define CHRONOS_FUZZ_CORPUS_H_

#include <array>
#include <string>
#include <vector>

#include "core/types.h"

namespace chronos::fuzz {

struct CorpusEntry {
  std::string file;        ///< filename relative to the corpus dir
  std::string tag;         ///< divergence-table entry exercised (D1..D7)
  std::array<size_t, 6> expected{};  ///< Chronos counts per ViolationType
  bool blackbox_detect = false;      ///< expected ElleKV/ElleList verdict
  /// Manifest `mode=si|ser`: the run level it replays at.
  IsolationLevel level = IsolationLevel::kSi;
  bool mixed = false;                ///< per-transaction iso tags (D8/D9)
  History history;

  size_t ExpectedTotal() const {
    size_t n = 0;
    for (size_t c : expected) n += c;
    return n;
  }
};

struct Corpus {
  std::vector<CorpusEntry> entries;
  std::string error;  ///< empty on success

  bool ok() const { return error.empty(); }
};

/// Loads `dir`/manifest.txt and every history it references.
Corpus LoadCorpus(const std::string& dir);

}  // namespace chronos::fuzz

#endif  // CHRONOS_FUZZ_CORPUS_H_

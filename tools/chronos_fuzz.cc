// chronos_fuzz: differential fuzzing harness (see src/fuzz/).
//
//   chronos_fuzz [--seeds=200] [--seed-start=0] [--time-budget=0]
//                [--list-only] [--mix-only] [--ckpt] [--out-dir=DIR]
//                [--verbose]
//   chronos_fuzz --repro=FILE [--level=si|ser]
//   chronos_fuzz --corpus=DIR
//
// Default mode runs seed-derived chaos scenarios (workload x faults x
// oracle x GC/spill/shard knobs) through every checker and cross-checks
// the verdicts. Any unexplained disagreement is minimized with the
// delta-debugging shrinker and written to <out-dir>/seed<N>.repro — a
// plain history file replayable with `chronos_check --in=...` or
// `chronos_fuzz --repro=...` — plus a seed<N>.repro.meta sidecar naming
// the seed, scenario knobs, and breached rules; --repro re-derives the
// scenario from the sidecar when present (knob-dependent disagreements
// only reproduce under their original knobs). --corpus replays a shrunk
// regression corpus (tests/corpus) and validates its manifest pins
// (Chronos per-class counts and the black-box verdict).
//
// --list-only keeps the seed->scenario map intact but runs only the
// seeds whose scenario is a list workload — the CI list smoke walks a
// bigger seed block at the same cost. --mix-only does the same for the
// seeds whose scenario tags a mixed isolation-level workload (entry D8:
// ChronosMixed as the offline reference, level-aware online matrix).
//
// --ckpt forces the mid-stream checkpoint/restore checker (scenario knob
// ckpt_restore, rule "ckpt-restore-identity") on for every seed instead
// of its ~25% sample — the CI fuzz-extended job uses it to sweep the
// restore path across the whole scenario space.
//
// --time-budget is also checked *between checkers inside a scenario*
// (fuzz::OverBudgetFn): once spent, the remaining checkers of the
// current seed are skipped, the partial report is discarded (no rules
// ran), and the run stops — a long 300-txn matrix pass or a PolySI
// CEGAR blowup overshoots by at most one checker run.
//
// Exit status: 0 all clean, 1 disagreements/mismatches, 2 usage error
// (an unknown flag included, --level without --repro, and --level with
// a repro whose .meta sidecar decides the scenario).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "flags.h"

#include "core/stats.h"
#include "fuzz/corpus.h"
#include "fuzz/differ.h"
#include "fuzz/scenario.h"
#include "fuzz/shrink.h"
#include "hist/codec.h"

using namespace chronos;

namespace {

using chronos::tools::FlagValue;
using chronos::tools::HasFlag;
using chronos::tools::U64Flag;

// Replay knobs: strict, no GC, infinite timeout, commit-order arrival —
// the configuration under which every equality rule applies.
fuzz::FuzzScenario ReplayScenario(IsolationLevel level) {
  fuzz::FuzzScenario sc;
  sc.db.isolation = level;
  return sc;
}

// `level_flag` is --level's value, null when it was not given.
int RunRepro(const std::string& path, const char* level_flag,
             IsolationLevel level, const std::string& work_dir) {
  History h;
  hist::CodecStatus st = hist::LoadHistory(path, &h);
  if (!st.ok) {
    std::fprintf(stderr, "load failed: %s\n", st.message.c_str());
    return 2;
  }
  // A fuzz-emitted repro carries a .meta sidecar naming its seed;
  // knob-dependent disagreements (shuffle order, finite timeout, GC
  // cadence) only reproduce under that scenario's knobs, so re-derive
  // them, the level included, so an explicit --level is a conflict, not
  // a setting to drop. Without a sidecar, replay under the strict
  // default knobs at --level.
  fuzz::FuzzScenario sc = ReplayScenario(level);
  if (FILE* meta = fopen((path + ".meta").c_str(), "r")) {
    unsigned long long seed = 0;
    if (fscanf(meta, "seed=%llu", &seed) == 1) {
      if (level_flag) {
        std::fprintf(stderr,
                     "--level=%s conflicts with %s.meta: its seed=%llu "
                     "decides the replay scenario, level included\n",
                     level_flag, path.c_str(), seed);
        fclose(meta);
        return 2;
      }
      sc = fuzz::ScenarioFromSeed(seed);
      std::printf("replaying under fuzz scenario [%s]\n",
                  sc.Describe().c_str());
    }
    fclose(meta);
  }
  fuzz::DiffReport report =
      fuzz::DiffHistory(h, sc, fuzz::CleanExpectation::kUnknown, work_dir);
  std::printf("repro %s (%zu txns, %zu ops):\n%s", path.c_str(),
              h.txns.size(), h.NumOps(), report.Summary().c_str());
  std::printf(report.Clean() ? "no disagreement\n"
                             : "DISAGREEMENT still present\n");
  return report.Clean() ? 0 : 1;
}

int RunCorpus(const std::string& dir, const std::string& work_dir) {
  fuzz::Corpus corpus = fuzz::LoadCorpus(dir);
  if (!corpus.ok()) {
    std::fprintf(stderr, "corpus: %s\n", corpus.error.c_str());
    return 2;
  }
  int failures = 0;
  for (const fuzz::CorpusEntry& entry : corpus.entries) {
    fuzz::CleanExpectation expect = entry.ExpectedTotal() == 0
                                        ? fuzz::CleanExpectation::kClean
                                        : fuzz::CleanExpectation::kFaulty;
    fuzz::DiffReport report = fuzz::DiffHistory(
        entry.history, ReplayScenario(entry.level), expect, work_dir);
    const fuzz::CheckerReport* ref = report.Find("chronos");
    if (!ref) ref = report.Find("chronos-mixed");
    bool counts_ok = ref && ref->counts == entry.expected;
    // Mixed-level entries gate out every black-box checker (entry D8),
    // so there is no black-box verdict to pin for them.
    const fuzz::CheckerReport* blackbox = report.Find("ellekv");
    if (!blackbox) blackbox = report.Find("elle-list");
    bool blackbox_ok = entry.mixed
                           ? blackbox == nullptr
                           : blackbox && blackbox->detected ==
                                             entry.blackbox_detect;
    if (!report.Clean() || !counts_ok || !blackbox_ok) {
      ++failures;
      std::printf("corpus FAIL %s (%s):\n%s", entry.file.c_str(),
                  entry.tag.c_str(), report.Summary().c_str());
      if (!counts_ok) {
        std::printf("  !! chronos counts differ from manifest\n");
      }
      if (!blackbox_ok) {
        std::printf("  !! black-box verdict differs from manifest\n");
      }
    } else {
      std::printf("corpus ok   %s (%s)\n", entry.file.c_str(),
                  entry.tag.c_str());
    }
  }
  std::printf("corpus: %zu entries, %d failures\n", corpus.entries.size(),
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  tools::RejectUnknownFlags(
      "chronos_fuzz", argc, argv,
      {"--seeds=", "--seed-start=", "--time-budget=", "--list-only",
       "--mix-only", "--ckpt", "--out-dir=", "--verbose", "--repro=",
       "--level=", "--corpus="});
  const char* repro = FlagValue(argc, argv, "--repro");
  if (!repro && FlagValue(argc, argv, "--level")) {
    std::fprintf(stderr, "--level applies to --repro only\n");
    return 2;
  }
  std::string out_dir = FlagValue(argc, argv, "--out-dir")
                            ? FlagValue(argc, argv, "--out-dir")
                            : (std::filesystem::temp_directory_path() /
                               "chronos_fuzz")
                                  .string();
  std::filesystem::create_directories(out_dir);
  const std::string work_dir = out_dir + "/work";

  if (repro) {
    return RunRepro(repro, FlagValue(argc, argv, "--level"),
                    tools::RunLevelFlag(argc, argv), work_dir);
  }
  if (const char* corpus = FlagValue(argc, argv, "--corpus")) {
    return RunCorpus(corpus, work_dir);
  }

  const uint64_t seeds = U64Flag(argc, argv, "--seeds", 50);
  const uint64_t seed_start = U64Flag(argc, argv, "--seed-start", 0);
  const uint64_t budget_s = U64Flag(argc, argv, "--time-budget", 0);
  const bool verbose = HasFlag(argc, argv, "--verbose");
  const bool list_only = HasFlag(argc, argv, "--list-only");
  const bool mix_only = HasFlag(argc, argv, "--mix-only");
  const bool force_ckpt = HasFlag(argc, argv, "--ckpt");

  Stopwatch sw;
  fuzz::OverBudgetFn over_budget;
  if (budget_s > 0) {
    over_budget = [&] {
      return sw.Seconds() > static_cast<double>(budget_s);
    };
  }
  uint64_t ran = 0;
  std::vector<uint64_t> failing_seeds;
  for (uint64_t seed = seed_start; seed < seed_start + seeds; ++seed) {
    if (budget_s > 0 && sw.Seconds() > static_cast<double>(budget_s)) break;
    fuzz::FuzzScenario sc = fuzz::ScenarioFromSeed(seed);
    if (list_only && !sc.wl.list_mode) continue;
    if (mix_only && sc.wl.mix.empty()) continue;
    if (force_ckpt) sc.ckpt_restore = true;
    History h;
    fuzz::DiffReport report =
        fuzz::RunDiffer(sc, work_dir, &h, nullptr, over_budget);
    if (report.timed_out) {
      std::printf("time budget spent mid-seed %llu; partial matrix "
                  "discarded\n",
                  static_cast<unsigned long long>(seed));
      break;
    }
    ++ran;
    if (verbose) {
      std::printf("[%s]\n%s", sc.Describe().c_str(),
                  report.Summary().c_str());
    }
    if (report.Clean()) continue;

    failing_seeds.push_back(seed);
    std::printf("DISAGREEMENT at %s\n%s", sc.Describe().c_str(),
                report.Summary().c_str());

    // Failure signature: the originally-breached (rule, checker) pairs.
    // A reduction must preserve one of them — same rule AND same
    // offending checker — and for clean-accept breaches the reference
    // checker must still accept, otherwise a shrink that fabricates a
    // genuine violation (every checker detects, including the
    // reference) would masquerade as the original false positive.
    std::vector<std::pair<std::string, std::string>> signature;
    for (const fuzz::Disagreement& d : report.disagreements) {
      auto key = std::make_pair(d.rule, d.checker);
      if (std::find(signature.begin(), signature.end(), key) ==
          signature.end()) {
        signature.push_back(std::move(key));
      }
    }
    auto matches = [](const fuzz::DiffReport& r, const std::string& rule,
                      const std::string& checker) {
      for (const fuzz::Disagreement& d : r.disagreements) {
        if (d.rule == rule && (checker.empty() || d.checker == checker)) {
          return true;
        }
      }
      return false;
    };
    fuzz::FailurePredicate still_fails = [&](const History& candidate) {
      fuzz::DiffReport r = fuzz::DiffHistory(candidate, sc,
                                             report.expectation, work_dir);
      for (const auto& [rule, checker] : signature) {
        if (!matches(r, rule, checker)) continue;
        if (rule == "clean-accept" && matches(r, "clean-accept", "chronos")) {
          continue;  // reference detects too: genuinely-faulty candidate
        }
        return true;
      }
      return false;
    };
    fuzz::ShrinkResult shrunk = fuzz::ShrinkHistory(h, still_fails);
    const std::string repro_path =
        out_dir + "/seed" + std::to_string(seed) + ".repro";
    hist::CodecStatus st = hist::SaveHistory(shrunk.minimized, repro_path);
    // Sidecar with the scenario knobs: knob-dependent disagreements
    // (shuffle order, finite timeout, GC cadence) only reproduce under
    // the original scenario, which --repro re-derives from this seed.
    if (st.ok) {
      if (FILE* meta = fopen((repro_path + ".meta").c_str(), "w")) {
        std::fprintf(meta, "seed=%llu\nscenario=%s\n",
                     static_cast<unsigned long long>(seed),
                     sc.Describe().c_str());
        for (const auto& [rule, checker] : signature) {
          std::fprintf(meta, "rule=%s%s%s\n", rule.c_str(),
                       checker.empty() ? "" : " checker=",
                       checker.c_str());
        }
        fclose(meta);
      }
    }
    std::printf("shrunk %zu txns (%zu ops) -> %zu txns (%zu ops) in %zu "
                "predicate calls; %s %s\n",
                shrunk.initial_txns, shrunk.initial_ops, shrunk.final_txns,
                shrunk.final_ops,
                shrunk.predicate_calls,
                st.ok ? "wrote" : "FAILED to write", repro_path.c_str());
  }

  std::printf("fuzz: %llu scenarios in %.1fs, %zu disagreement(s)\n",
              static_cast<unsigned long long>(ran), sw.Seconds(),
              failing_seeds.size());
  for (uint64_t s : failing_seeds) std::printf("  failing seed: %llu\n",
                                               static_cast<unsigned long long>(s));
  return failing_seeds.empty() ? 0 : 1;
}

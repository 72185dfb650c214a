// chronos_explore: exhaustive schedule exploration of a small history.
//
// Enumerates every inequivalent session-preserving arrival order of the
// input (DPOR-style pruning: orders that differ only by commuting
// arrivals with disjoint key/timestamp footprints are explored once) and
// runs each schedule through the full online checker matrix under
// adversarial pipeline timing — Aion, ShardedAion{1,2,8} with
// cmd_batch=1, minimal rings and forced stalls, and a 2-shard checker
// that checkpoint-restores after every arrival. Verdicts must be
// identical within a schedule and invariant across schedules (modulo the
// documented divergence table, fuzz/differ.h D4-D7). A flip is shrunk
// with the fuzz ddmin shrinker and written as a .repro plus a .schedule
// sidecar pinning the flipping arrival order.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "flags.h"

#include "db/database.h"
#include "explore/enumerator.h"
#include "explore/oracle.h"
#include "explore/schedule.h"
#include "hist/codec.h"
#include "workload/generator.h"

using namespace chronos;
using namespace chronos::tools;

namespace {

void PrintUsage(FILE* out) {
  std::fprintf(out,
      "usage: chronos_explore --in=FILE | --repro=FILE | --sweep-seeds=N\n"
      "\n"
      "Exhaustively explores every inequivalent arrival schedule of a\n"
      "small history (<= %zu txns) and cross-checks that the online\n"
      "checker matrix (Aion, ShardedAion x {1,2,8} shards, per-arrival\n"
      "checkpoint/restore) reaches the same verdict on every schedule,\n"
      "under adversarial pipeline timing (cmd_batch=1, capacity-2 rings,\n"
      "forced stalls). A flip is ddmin-shrunk to OUT/flip-*.repro with a\n"
      "OUT/flip-*.repro.schedule sidecar pinning the flipping schedule.\n"
      "\n"
      "input (one of):\n"
      "  --in=FILE             history file (hist/codec.h text format)\n"
      "  --repro=FILE          alias for --in: fuzz .repro corpus files\n"
      "                        load through the same codec unchanged\n"
      "  --sweep-seeds=N       generate and explore N small seed-derived\n"
      "                        workloads (extended CI mode)\n"
      "  --sweep-start=S       first sweep seed (default 1)\n"
      "\n"
      "checker config:\n"
      "  --level=si|ser        run-level default isolation (default si);\n"
      "                        per-transaction iso= tags in the input\n"
      "                        override it, and RC/RA-tagged arrivals\n"
      "                        register no timestamps (wider DPOR\n"
      "                        commutativity)\n"
      "  --timeout-ms=N        finite EXT timeout (default: infinite;\n"
      "                        finite waives cross-schedule EXT equality,\n"
      "                        divergence entry D5)\n"
      "  --gc-every=N          GcToLiveTarget every N arrivals (0: off;\n"
      "                        active GC waives EXT/NOCONFLICT equality\n"
      "                        and makes all arrival pairs dependent, D7)\n"
      "  --gc-target=N         live-txn target for --gc-every (default 0)\n"
      "\n"
      "exploration:\n"
      "  --max-schedules=N     stop after N schedules (0 = exhaust)\n"
      "  --no-stall            disable the adversarial timing axis\n"
      "  --plant-bug           plant the test-only flipped-frontier EXT\n"
      "                        oracle (self-check: must be caught)\n"
      "  --shrink-budget=N     ddmin predicate budget (default 300)\n"
      "  --out-dir=DIR         where flip artifacts go (default .)\n"
      "  --verbose             print every explored schedule\n"
      "\n"
      "exit status: 0 all schedules agree, 1 flip found (artifacts\n"
      "written), 2 usage or load error (including an unknown flag and\n"
      "> %zu-txn input).\n",
      explore::kMaxExploreTxns, explore::kMaxExploreTxns);
}

// Explores one history; returns the process exit code (0 ok, 1 flip).
int ExploreOne(const History& h, const explore::ExploreOptions& opts,
               const std::string& label, const std::string& out_dir,
               bool verbose) {
  explore::ExploreResult r;
  if (verbose) {
    explore::ExploreOptions vopts = opts;
    // Re-run the enumeration alone first to log the schedule space.
    std::vector<explore::Arrival> arrivals =
        explore::CanonicalArrivals(h, opts.oracle.mode);
    explore::Dependence dep(arrivals, opts.oracle.finite_timeout() ||
                                          opts.oracle.gc_active());
    explore::EnumerateSchedules(arrivals, dep, opts.max_schedules,
                                [&](const std::vector<size_t>& perm) {
                                  std::printf("  schedule %s\n",
                                              explore::FormatSchedule(
                                                  arrivals, perm)
                                                  .c_str());
                                  return true;
                                });
    r = explore::ExploreHistory(h, vopts);
  } else {
    r = explore::ExploreHistory(h, opts);
  }
  if (!r.error.empty()) {
    std::fprintf(stderr, "%s: %s\n", label.c_str(), r.error.c_str());
    return 2;
  }
  std::printf("%s: explored=%llu pruned=%llu%s counts"
              "[SESSION=%zu INT=%zu EXT=%zu NOCONFLICT=%zu TS-ORDER=%zu "
              "TS-DUP=%zu]\n",
              label.c_str(), static_cast<unsigned long long>(r.explored),
              static_cast<unsigned long long>(r.pruned),
              r.truncated ? " (truncated)" : "", r.reference_counts[0],
              r.reference_counts[1], r.reference_counts[2],
              r.reference_counts[3], r.reference_counts[4],
              r.reference_counts[5]);
  if (!r.flip_found) return 0;

  std::printf("FLIP (%s): %s\n", r.rule.c_str(), r.detail.c_str());
  explore::ShrunkFlip shrunk = explore::ShrinkFlip(h, opts);
  const explore::ExploreResult& fr =
      shrunk.result.flip_found ? shrunk.result : r;
  const History& fh = shrunk.result.flip_found ? shrunk.history : h;
  std::printf("shrunk to %zu txns (%zu predicate calls)\n", fh.txns.size(),
              shrunk.predicate_calls);

  std::filesystem::create_directories(out_dir);
  const std::string repro = out_dir + "/flip-" + label + ".repro";
  hist::CodecStatus st = hist::SaveHistory(fh, repro);
  if (!st.ok) {
    std::fprintf(stderr, "writing %s failed: %s\n", repro.c_str(),
                 st.message.c_str());
  }
  const std::string sidecar = repro + ".schedule";
  std::ofstream sc(sidecar);
  sc << explore::FormatScheduleSidecar(fr);
  sc.close();
  std::printf("artifacts: %s %s\n", repro.c_str(), sidecar.c_str());
  std::printf("  flip schedule: ");
  for (size_t i = 0; i < fr.flip_schedule.size(); ++i) {
    std::printf("%s%llu", i ? "," : "",
                static_cast<unsigned long long>(fr.flip_schedule[i]));
  }
  std::printf("\n");
  return 1;
}

// Extended CI mode: small seed-derived workloads, a third of them with
// an injected database fault so violating histories are swept too, plus
// rotating GC/timeout configs to exercise the waiver paths.
History SweepHistory(uint64_t seed) {
  workload::WorkloadParams wl;
  wl.sessions = 2 + seed % 2;
  wl.txns = 4 + seed % 3;
  wl.ops_per_txn = static_cast<uint32_t>(2 + seed % 3);
  wl.keys = 2 + seed % 2;
  wl.dist = workload::WorkloadParams::KeyDist::kUniform;
  wl.seed = seed;
  // Every 5th sweep seed tags a mixed isolation-level workload so the
  // enumerator exercises the wider RC/RA commutativity (no registered
  // timestamps) and the membership read rules across schedules.
  if (seed % 5 == 2) wl.mix = {50, 0, 30, 20};
  db::DbConfig db;
  db.fault_seed = seed;
  switch (seed % 3) {
    case 0:
      db.faults.value_corruption_prob = 0.3;
      break;
    case 1:
      db.faults.lost_update_prob = 0.5;
      break;
    default:
      break;  // clean
  }
  return workload::GenerateDefaultHistory(wl, db);
}

}  // namespace

int main(int argc, char** argv) {
  RejectUnknownFlags(
      "chronos_explore", argc, argv,
      {"--help", "--in=", "--repro=", "--sweep-seeds=", "--sweep-start=",
       "--level=", "--timeout-ms=", "--gc-every=", "--gc-target=",
       "--max-schedules=", "--no-stall", "--plant-bug", "--shrink-budget=",
       "--out-dir=", "--verbose"});
  if (HasFlag(argc, argv, "--help")) {
    PrintUsage(stdout);
    return 0;
  }

  explore::ExploreOptions opts;
  opts.oracle.mode = RunLevelFlag(argc, argv);
  opts.oracle.ext_timeout_ms =
      U64Flag(argc, argv, "--timeout-ms", explore::kInfiniteTimeoutMs);
  opts.oracle.gc_every = U64Flag(argc, argv, "--gc-every", 0);
  opts.oracle.gc_target = U64Flag(argc, argv, "--gc-target", 0);
  opts.oracle.adversarial_timing = !HasFlag(argc, argv, "--no-stall");
  opts.oracle.plant_frontier_bug = HasFlag(argc, argv, "--plant-bug");
  opts.max_schedules = U64Flag(argc, argv, "--max-schedules", 0);
  opts.shrink_predicate_calls = U64Flag(argc, argv, "--shrink-budget", 300);
  const bool verbose = HasFlag(argc, argv, "--verbose");
  const char* out_dir_flag = FlagValue(argc, argv, "--out-dir");
  const std::string out_dir = out_dir_flag ? out_dir_flag : ".";

  const char* in = FlagValue(argc, argv, "--in");
  if (!in) in = FlagValue(argc, argv, "--repro");
  const uint64_t sweep = U64Flag(argc, argv, "--sweep-seeds", 0);

  if (in) {
    History h;
    hist::CodecStatus st = hist::LoadHistory(in, &h);
    if (!st.ok) {
      std::fprintf(stderr, "load failed: %s\n", st.message.c_str());
      return 2;
    }
    if (h.txns.size() > explore::kMaxExploreTxns) {
      std::fprintf(stderr,
                   "%s has %zu transactions; the exhaustive enumerator "
                   "accepts at most %zu (shrink the history first, e.g. "
                   "with chronos_fuzz --shrink)\n",
                   in, h.txns.size(), explore::kMaxExploreTxns);
      return 2;
    }
    std::string label = std::filesystem::path(in).stem().string();
    return ExploreOne(h, opts, label, out_dir, verbose);
  }

  if (sweep > 0) {
    const uint64_t start = U64Flag(argc, argv, "--sweep-start", 1);
    for (uint64_t seed = start; seed < start + sweep; ++seed) {
      explore::ExploreOptions sopts = opts;
      if (seed % 4 == 0) {
        sopts.oracle.gc_every = 2;
        sopts.oracle.gc_target = 0;
      }
      if (seed % 5 == 0) sopts.oracle.ext_timeout_ms = 2;
      History h = SweepHistory(seed);
      if (h.txns.size() > explore::kMaxExploreTxns) continue;
      int rc = ExploreOne(h, sopts, "sweep-" + std::to_string(seed), out_dir,
                          verbose);
      if (rc != 0) return rc;
    }
    return 0;
  }

  PrintUsage(stderr);
  return 2;
}

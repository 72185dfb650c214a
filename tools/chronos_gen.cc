// chronos_gen: generate a transaction history file from the bundled
// workloads and database, optionally with injected faults.
//
//   chronos_gen --out=h.hist --workload=default --txns=100000
//               [--sessions=50] [--ops=15] [--keys=1000] [--reads=0.5]
//               [--dist=zipf|uniform|hotspot] [--list] [--level=si|ser]
//               [--mix=si:70,ser:10,rc:10,ra:10]
//               [--seed=1] [--fault=lost_update|stale_read|value|ts_swap|
//                           early_commit|late_start|session_reorder]
//               [--fault-prob=0.05] [--fault-seed=42]
//               [--hlc=<nodes>] [--skew=<max>]
//   chronos_gen --out=h.hist --workload=twitter|rubis|tpcc --txns=20000
//               [--seed=N] [--level=si|ser] [--mix=...] [fault and
//               --hlc/--skew flags as above]
//
// Every history is reproducible from its command line: --seed drives the
// workload's operation stream (each workload has its own default),
// --fault-seed the injection coin flips, and the database's written
// values are derived from a run-local counter. --mix tags the given
// percentage of transactions with per-transaction isolation levels
// (Transaction::iso, saved as iso= in the history file); the assignment
// hashes (seed, tid), so it is seed-deterministic too. --level=ser runs
// the database at SER (commit-time read validation); untagged
// transactions are checked at chronos_check's --level.
//
// Any flag not listed above, and any --dist, --fault or --level value
// not listed, exits 2, as does a numeric value that is not a whole
// number (--hlc also outside 1-256). So does a default-workload knob
// (--sessions, --ops, --keys, --reads, --dist, --list) given with
// another --workload, which has shapes of its own and would ignore it.
#include <cstdio>
#include <cstring>
#include <string>

#include "flags.h"
#include "hist/codec.h"
#include "workload/apps.h"
#include "workload/generator.h"

using namespace chronos;

using namespace chronos::tools;

int main(int argc, char** argv) {
  RejectUnknownFlags(
      "chronos_gen", argc, argv,
      {"--out=", "--workload=", "--txns=", "--sessions=", "--ops=",
       "--keys=", "--reads=", "--dist=", "--list", "--level=", "--mix=",
       "--seed=", "--fault=", "--fault-prob=", "--fault-seed=", "--hlc=",
       "--skew="});
  const char* out = FlagValue(argc, argv, "--out");
  if (!out) {
    std::fprintf(stderr, "usage: chronos_gen --out=FILE [options]\n");
    return 2;
  }
  std::string workload = FlagValue(argc, argv, "--workload")
                             ? FlagValue(argc, argv, "--workload")
                             : "default";
  uint64_t txns = U64Flag(argc, argv, "--txns", 10000);
  if (const char* knob =
          workload == "default"
              ? nullptr
              : FirstFlagOf(argc, argv,
                            {"--sessions=", "--ops=", "--keys=", "--reads=",
                             "--dist=", "--list"})) {
    std::fprintf(stderr,
                 "chronos_gen: %s applies to --workload=default only, not "
                 "--workload=%s\n",
                 knob, workload.c_str());
    return 2;
  }

  db::DbConfig cfg;
  cfg.isolation = RunLevelFlag(argc, argv);
  cfg.fault_seed = U64Flag(argc, argv, "--fault-seed", cfg.fault_seed);
  if (const char* hlc = FlagValue(argc, argv, "--hlc")) {
    uint64_t nodes = 0;
    std::string err;
    if (!ParseU64Flag(argc, argv, "--hlc", 0, 256, &nodes, &err) ||
        nodes == 0) {
      std::fprintf(stderr, "--hlc=%s: node count must be in [1, 256]\n", hlc);
      return 2;
    }
    cfg.timestamping = db::DbConfig::Timestamping::kHlc;
    cfg.hlc_nodes = static_cast<uint32_t>(nodes);
    cfg.hlc_max_skew =
        static_cast<int64_t>(U64Flag(argc, argv, "--skew", 0));
  }
  if (const char* fault = FlagValue(argc, argv, "--fault")) {
    double p = DoubleFlag(argc, argv, "--fault-prob", 0.05);
    if (!strcmp(fault, "lost_update")) cfg.faults.lost_update_prob = p;
    else if (!strcmp(fault, "stale_read")) cfg.faults.stale_read_prob = p;
    else if (!strcmp(fault, "value")) cfg.faults.value_corruption_prob = p;
    else if (!strcmp(fault, "ts_swap")) cfg.faults.ts_swap_prob = p;
    else if (!strcmp(fault, "early_commit")) cfg.faults.early_commit_prob = p;
    else if (!strcmp(fault, "late_start")) cfg.faults.late_start_prob = p;
    else if (!strcmp(fault, "session_reorder")) {
      cfg.faults.session_reorder_prob = p;
    } else {
      std::fprintf(stderr, "unknown --fault=%s\n", fault);
      return 2;
    }
  }

  workload::LevelMix mix;
  if (const char* m = FlagValue(argc, argv, "--mix")) {
    std::string err;
    if (!ParseLevelMixSpec(m, &mix.si, &mix.ser, &mix.rc, &mix.ra, &err)) {
      std::fprintf(stderr, "--mix=%s: %s\n", m, err.c_str());
      return 2;
    }
  }

  History h;
  uint64_t mix_seed = 1;
  if (workload == "default") {
    workload::WorkloadParams p;
    p.txns = txns;
    p.sessions = static_cast<uint32_t>(U64Flag(argc, argv, "--sessions", 50));
    p.ops_per_txn = static_cast<uint32_t>(U64Flag(argc, argv, "--ops", 15));
    p.keys = U64Flag(argc, argv, "--keys", 1000);
    p.read_ratio = DoubleFlag(argc, argv, "--reads", 0.5);
    p.seed = U64Flag(argc, argv, "--seed", 1);
    mix_seed = p.seed;
    p.list_mode = HasFlag(argc, argv, "--list");
    if (const char* d = FlagValue(argc, argv, "--dist")) {
      if (!strcmp(d, "uniform")) {
        p.dist = workload::WorkloadParams::KeyDist::kUniform;
      } else if (!strcmp(d, "hotspot")) {
        p.dist = workload::WorkloadParams::KeyDist::kHotspot;
      } else if (!strcmp(d, "zipf")) {
        p.dist = workload::WorkloadParams::KeyDist::kZipf;
      } else {
        std::fprintf(stderr, "unknown --dist=%s (expected zipf, uniform "
                     "or hotspot)\n", d);
        return 2;
      }
    }
    h = workload::GenerateDefaultHistory(p, cfg);
  } else if (workload == "twitter") {
    workload::TwitterParams p;
    p.txns = txns;
    p.seed = U64Flag(argc, argv, "--seed", p.seed);
    mix_seed = p.seed;
    h = workload::GenerateTwitterHistory(p, cfg);
  } else if (workload == "rubis") {
    workload::RubisParams p;
    p.txns = txns;
    p.seed = U64Flag(argc, argv, "--seed", p.seed);
    mix_seed = p.seed;
    h = workload::GenerateRubisHistory(p, cfg);
  } else if (workload == "tpcc") {
    workload::TpccParams p;
    p.txns = txns;
    p.seed = U64Flag(argc, argv, "--seed", p.seed);
    mix_seed = p.seed;
    h = workload::GenerateTpccHistory(p, cfg);
  } else {
    std::fprintf(stderr, "unknown --workload=%s\n", workload.c_str());
    return 2;
  }
  workload::AssignLevels(&h, mix, mix_seed);

  hist::CodecStatus st = hist::SaveHistory(h, out);
  if (!st.ok) {
    std::fprintf(stderr, "save failed: %s\n", st.message.c_str());
    return 1;
  }
  std::printf("wrote %zu txns (%zu ops) to %s\n", h.txns.size(), h.NumOps(),
              out);
  return 0;
}

// chronos_check: check a history file for isolation violations.
//
//   chronos_check --in=h.hist [--level=si|ser|list]
//                 [--online] [--timeout-ms=5000] [--spill=/tmp/aion]
//                 [--delay-mean=0 --delay-stddev=0]   (online only)
//                 [--shards=1]                        (online only)
//                 [--checkpoint-dir=DIR] [--checkpoint-every=5000]
//                 [--resume] [--memory-ceiling=BYTES] (online only)
//                 [--gc-every=0] [--gc-target=0]
//                 [--stats] [--max-report=20] [--help]
//
// Offline mode runs CHRONOS (--level=list: ChronosList); --online
// replays the history through AION via the collector (delays model
// asynchrony). AION understands list histories natively, so --online
// works for every level (--level=list selects the SI read-view rule,
// matching the list workloads). --shards=N checks with the
// key-partitioned ShardedAion (N worker threads); violations are then
// reported in deterministic (commit_ts, txn id) order.
//
// Online runs feed the stream through RunMaxRate (online/pipeline.h),
// or with --checkpoint-dir through the crash-safe DurableRunner
// (online/checkpoint.h): every arrival is WAL-logged as it is checked,
// checkpoints are cut every --checkpoint-every arrivals, and a killed
// run resumes verdict-identical with --resume (same --in and options).
// --memory-ceiling forces checkpoint + GC + list-buffer shedding
// whenever the checker footprint exceeds the ceiling. Both drivers
// collect with GcPolicy::Every(--gc-every, --gc-target).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "flags.h"

#include "core/aion.h"
#include "core/chronos.h"
#include "core/chronos_list.h"
#include "hist/codec.h"
#include "hist/collector.h"
#include "core/online_checker.h"
#include "online/checkpoint.h"
#include "online/metrics.h"
#include "online/pipeline.h"
#include "online/recovery.h"
#include "online/sharded_aion.h"

using namespace chronos;

namespace {

using namespace chronos::tools;

void PrintReport(const CountingSink& sink, size_t max_report) {
  std::printf("violations: total=%zu SESSION=%zu INT=%zu EXT=%zu "
              "NOCONFLICT=%zu TS-ORDER=%zu TS-DUP=%zu\n",
              sink.total(), sink.count(ViolationType::kSession),
              sink.count(ViolationType::kInt), sink.count(ViolationType::kExt),
              sink.count(ViolationType::kNoConflict),
              sink.count(ViolationType::kTsOrder),
              sink.count(ViolationType::kTsDuplicate));
  size_t shown = 0;
  for (const Violation& v : sink.first()) {
    if (++shown > max_report) break;
    std::printf("  %s\n", v.ToString().c_str());
  }
}

void PrintCheckerStats(const CheckerStats& s) {
  std::printf("stats: txns=%llu ext_rechecks=%llu noconflict_checks=%llu "
              "gc_passes=%llu spill_reloads=%llu unsafe_wm=%llu "
              "unsafe_horizon=%llu corrupt_epochs=%llu\n",
              static_cast<unsigned long long>(s.txns_processed),
              static_cast<unsigned long long>(s.ext_rechecks),
              static_cast<unsigned long long>(s.noconflict_checks),
              static_cast<unsigned long long>(s.gc_passes),
              static_cast<unsigned long long>(s.spill_reloads),
              static_cast<unsigned long long>(s.unsafe_below_watermark),
              static_cast<unsigned long long>(s.unsafe_below_horizon),
              static_cast<unsigned long long>(s.corrupt_spill_epochs));
}

void PrintUsage(FILE* out) {
  std::fprintf(out,
      "usage: chronos_check --in=FILE [options]\n"
      "\n"
      "  --in=FILE             history file (hist/codec.h text format)\n"
      "  --level=si|ser|list   run-level default isolation (default si);\n"
      "                        rc/ra are per-transaction only (iso= tags\n"
      "                        in the history). A history with iso= tags\n"
      "                        dispatches offline to the mixed-level\n"
      "                        checker; untagged transactions follow\n"
      "                        --level\n"
      "  --max-report=N        violations to print (default 20)\n"
      "  --gc-every=N          offline: GC every N txns; online:\n"
      "                        GcToLiveTarget cadence in arrivals (0: off)\n"
      "  --gc-target=N         online: live-txn target for that GC (default 0)\n"
      "\n"
      "online mode (--online):\n"
      "  --timeout-ms=N        EXT finalization timeout (default 5000)\n"
      "  --spill=DIR           GC spill store directory\n"
      "  --delay-mean=N --delay-stddev=N   collector delay model (ms)\n"
      "  --shards=N            key-partitioned ShardedAion: N shard\n"
      "                        worker threads fed by the calling thread\n"
      "  --stats               print processing counters after the check\n"
      "                        (sharded: plus shard-ring health)\n"
      "\n"
      "crash-safe durable mode (--online, implies ShardedAion):\n"
      "  --checkpoint-dir=DIR  WAL + checkpoints here; enables durability\n"
      "  --checkpoint-every=N  checkpoint cadence in arrivals (default 5000)\n"
      "  --resume              recover from DIR, skip replayed arrivals,\n"
      "                        continue with the rest of --in\n"
      "  --memory-ceiling=B    footprint bound in bytes: exceeding it forces\n"
      "                        checkpoint + GC + list-buffer shedding\n"
      "                        (degraded reads counted, never mis-reported)\n"
      "  (spill defaults to DIR/spill so recovery finds the epoch files)\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (HasFlag(argc, argv, "--help")) {
    PrintUsage(stdout);
    return 0;
  }
  const char* in = FlagValue(argc, argv, "--in");
  if (!in) {
    PrintUsage(stderr);
    return 2;
  }
  std::string level =
      FlagValue(argc, argv, "--level") ? FlagValue(argc, argv, "--level") : "si";
  CheckMode mode = CheckMode::kSi;
  if (level != "list") {
    std::string err;
    if (!ParseRunLevel(level.c_str(), &mode, &err)) {
      std::fprintf(stderr, "--level=%s: %s\n", level.c_str(), err.c_str());
      return 2;
    }
  }
  size_t max_report = U64Flag(argc, argv, "--max-report", 20);

  Stopwatch load_sw;
  History h;
  hist::CodecStatus st = hist::LoadHistory(in, &h);
  if (!st.ok) {
    std::fprintf(stderr, "load failed: %s\n", st.message.c_str());
    return 1;
  }
  std::printf("loaded %zu txns (%zu ops) in %.3fs\n", h.txns.size(),
              h.NumOps(), load_sw.Seconds());

  CountingSink sink(max_report);
  if (HasFlag(argc, argv, "--online")) {
    hist::CollectorParams cp;
    cp.delay_mean_ms = static_cast<double>(
        U64Flag(argc, argv, "--delay-mean", 0));
    cp.delay_stddev_ms = static_cast<double>(
        U64Flag(argc, argv, "--delay-stddev", 0));
    auto stream = hist::ScheduleDelivery(h, cp);
    Aion::Options opt;
    opt.mode = mode;  // list=si; iso= tags override per transaction
    opt.ext_timeout_ms = U64Flag(argc, argv, "--timeout-ms", 5000);
    if (const char* spill = FlagValue(argc, argv, "--spill")) {
      opt.spill_dir = spill;
    }
    const size_t shards =
        static_cast<size_t>(U64Flag(argc, argv, "--shards", 1));
    const GcPolicy gc = GcPolicy::Every(
        U64Flag(argc, argv, "--gc-every", 0),
        static_cast<size_t>(U64Flag(argc, argv, "--gc-target", 0)));
    const char* ckpt_dir = FlagValue(argc, argv, "--checkpoint-dir");
    if (ckpt_dir && opt.spill_dir.empty()) {
      opt.spill_dir = std::string(ckpt_dir) + "/spill";  // where Recover looks
    }

    // Checker choice: the durable driver always runs the sharded checker
    // (its state export is the checkpoint format), even for one shard.
    std::unique_ptr<Aion> mono;
    std::unique_ptr<online::ShardedAion> shard;
    uint64_t start_seq = 1, start_events = 0, wal_trunc = 0;
    if (ckpt_dir && HasFlag(argc, argv, "--resume")) {
      online::RecoverResult rec = online::Recover(opt, ckpt_dir, &sink, shards);
      if (!rec.checker) {
        std::fprintf(stderr, "recovery failed: %s\n", rec.error.c_str());
        return 1;
      }
      std::printf("recovered: ckpt=%llu events=%llu%s%s\n",
                  static_cast<unsigned long long>(rec.ckpt_seq),
                  static_cast<unsigned long long>(rec.events),
                  rec.from_checkpoint ? "" : " (wal-only)",
                  rec.used_fallback ? " (newest checkpoint corrupt)" : "");
      shard = std::move(rec.checker);
      start_seq = rec.next_seq;
      start_events = rec.events;
      wal_trunc = rec.wal_truncate_to;
    } else if (ckpt_dir || shards > 1) {
      shard = std::make_unique<online::ShardedAion>(opt, shards, &sink);
    } else {
      mono = std::make_unique<Aion>(opt, &sink);
    }
    OnlineChecker* checker = mono.get();
    if (shard) checker = shard.get();

    std::string driver = ckpt_dir ? "durable" : "max-rate";
    if (shard) driver += ", " + std::to_string(shard->num_shards()) + " shards";
    Stopwatch sw;
    if (ckpt_dir) {
      online::DurableRunner::Options dopts;
      dopts.dir = ckpt_dir;
      dopts.checkpoint_every_events =
          U64Flag(argc, argv, "--checkpoint-every", 5000);
      dopts.gc = gc;
      dopts.memory_ceiling_bytes =
          static_cast<size_t>(U64Flag(argc, argv, "--memory-ceiling", 0));
      online::DurableRunner runner(shard.get(), dopts, start_seq,
                                   start_events, wal_trunc);
      // Single-threaded driver: main() owns the runner for its lifetime.
      AssumeRole driver_role(runner.driver_role);
      for (size_t i = start_events; i < stream.size(); ++i) {
        if (!runner.Feed(stream[i].txn, stream[i].deliver_at_ms)) {
          std::fprintf(stderr, "durable run failed: WAL/checkpoint write error\n");
          return 1;
        }
      }
      runner.Finish();
      driver += ", " + std::to_string(runner.checkpoints_written()) +
                " checkpoints, " + std::to_string(runner.sheds()) + " sheds";
    } else {
      online::RunMaxRate(checker, stream, gc);
    }
    const double secs = sw.Seconds();
    const double fed = static_cast<double>(
        stream.size() - std::min<size_t>(start_events, stream.size()));
    std::printf("online %s check (%s): %.3fs (%.0f TPS), %llu flip-flops\n",
                level.c_str(), driver.c_str(), secs,
                secs > 0 ? fed / secs : 0.0,
                static_cast<unsigned long long>(
                    shard ? shard->flip_stats().total_flips()
                          : mono->flip_stats().total_flips()));
    if (HasFlag(argc, argv, "--stats")) {
      PrintCheckerStats(shard ? shard->stats() : mono->stats());
      if (shard) online::PrintPipelineHealth(shard->pipeline_health(), stdout);
    }
  } else {
    ChronosOptions opt;
    opt.gc_every_n_txns = U64Flag(argc, argv, "--gc-every", 0);
    Stopwatch sw;
    CheckStats stats;
    if (level != "list" && HistoryHasLevelTags(h)) {
      // Per-transaction iso= tags: the single-level replayers would
      // misjudge the weaker-level transactions, so route to the mixed
      // checker with --level as the default for untagged ones.
      ChronosMixed checker(mode, &sink);
      stats = checker.Check(std::move(h));
      level = "mixed(default=" + level + ")";
    } else if (level == "ser") {
      ChronosSer checker(&sink);
      stats = checker.Check(std::move(h));
    } else if (level == "list") {
      ChronosList checker(&sink);
      stats = checker.Check(std::move(h));
    } else {
      Chronos checker(opt, &sink);
      stats = checker.Check(std::move(h));
    }
    std::printf("offline %s check: sort=%.3fs check=%.3fs gc=%.3fs\n",
                level.c_str(), stats.sort_seconds, stats.check_seconds,
                stats.gc_seconds);
  }
  PrintReport(sink, max_report);
  return sink.total() > 0 ? 3 : 0;
}

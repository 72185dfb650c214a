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
// Offline mode runs CHRONOS, which checks register and list ops alike
// at si or ser, on a stream of the file (hist::EventStream): a first
// pass over the transaction headers runs the well-formedness pre-pass
// and measures the event window, a second feeds the start and commit
// events through that window, so the check holds the window, not the
// file; it prints `streamed FILE: ...` with the window it needed.
// --level=list is another spelling of si. An input that cannot seek (a
// pipe) and a history with iso= tags are loaded whole instead (`loaded
// ...`); a loaded history with iso= tags and no list ops goes to the
// per-transaction-level ChronosMixed (NeedsMixedLevelCheck).
// --online streams the file through AION via the collector
// (hist::DeliveryStream; delays model asynchrony), so the run holds the
// collector's reorder buffers and the checker's live state, not the
// file. AION understands list histories natively, so --online works for
// every level (--level=list selects the SI read-view rule, matching the
// list workloads). --shards=N checks with the key-partitioned
// ShardedAion (N worker threads); violations are then reported in
// deterministic (commit_ts, txn id) order.
//
// Online runs feed the stream through RunMaxRate (online/pipeline.h),
// or with --checkpoint-dir through the crash-safe DurableRunner
// (online/checkpoint.h): every arrival is WAL-logged as it is checked,
// checkpoints are cut every --checkpoint-every arrivals, and a killed
// run resumes verdict-identical with --resume (same --in and options),
// which skips the first recovered-events arrivals of the stream by count.
// --memory-ceiling forces checkpoint + GC + list-buffer shedding
// whenever the checker footprint exceeds the ceiling. Both drivers
// collect with GcPolicy::Every(--gc-every, --gc-target).
//
// Every flag is parsed before the input is opened (tools/check_args.h):
// an unknown flag, a numeric value that is not a whole unsigned decimal,
// or --shards above 64, exits 2. Exit codes: 0 clean, 1 load/recovery/WAL error
// (a malformed line met mid-stream included: no verdict is printed),
// 2 usage, 3 violations.
#include <cstdio>
#include <memory>
#include <string>

#include "check_args.h"
#include "flags.h"

#include "core/aion.h"
#include "core/chronos.h"
#include "hist/codec.h"
#include "hist/collector.h"
#include "hist/event_stream.h"
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
      "  --in=FILE             history file (hist/codec.h text format);\n"
      "                        streamed: offline in two passes through\n"
      "                        an event window, --online through the\n"
      "                        collector. An input that cannot seek (a\n"
      "                        pipe) is read whole; so are tagged\n"
      "                        histories offline\n"
      "  --level=si|ser|list   run-level default isolation (default si;\n"
      "                        list is another spelling of si; si and ser\n"
      "                        check register and list ops); rc/ra are\n"
      "                        per-transaction only (iso= tags in the\n"
      "                        history). A history with iso= tags and no\n"
      "                        list ops dispatches offline to the\n"
      "                        mixed-level checker; untagged transactions\n"
      "                        follow --level\n"
      "  --max-report=N        violations to print (default 20)\n"
      "  --gc-every=N          offline: GC every N txns; online:\n"
      "                        GcToLiveTarget cadence in arrivals (0: off)\n"
      "  --gc-target=N         online: live-txn target for that GC (default 0)\n"
      "\n"
      "online mode (--online):\n"
      "  --timeout-ms=N        EXT finalization timeout (default 5000)\n"
      "  --spill=DIR           GC spill store directory\n"
      "  --delay-mean=N --delay-stddev=N   collector delay model (ms)\n"
      "  --shards=N            key-partitioned ShardedAion: N (at most 64)\n"
      "                        shard worker threads fed by the calling\n"
      "                        thread\n"
      "  --stats               print processing counters after the check\n"
      "                        (sharded: plus shard-ring health)\n"
      "\n"
      "crash-safe durable mode (--online, implies ShardedAion):\n"
      "  --checkpoint-dir=DIR  WAL + checkpoints here; enables durability\n"
      "  --checkpoint-every=N  checkpoint cadence in arrivals (default 5000)\n"
      "  --resume              recover from DIR, skip as many arrivals of\n"
      "                        --in as the run had fed (by count; exit 1\n"
      "                        if --in is shorter), check the rest\n"
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
  CheckArgs args;
  std::string err;
  if (!ParseCheckArgs(argc, argv, &args, &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    if (!FlagValue(argc, argv, "--in")) PrintUsage(stderr);
    return 2;
  }
  std::string level = args.level;  // offline mixed runs relabel it

  CountingSink sink(args.max_report);
  if (args.online) {
    hist::CollectorParams cp;
    cp.delay_mean_ms = static_cast<double>(args.delay_mean_ms);
    cp.delay_stddev_ms = static_cast<double>(args.delay_stddev_ms);
    hist::DeliveryStream stream(args.in, cp);
    if (!stream.status().ok) {
      std::fprintf(stderr, "load failed: %s\n",
                   stream.status().message.c_str());
      return 1;
    }
    if (stream.commit_lag() == hist::DeliveryStream::kUnboundedLag) {
      std::printf("streaming %s (not seekable: buffered whole)\n",
                  args.in.c_str());
    } else {
      std::printf("streaming %s (commit-order window %llu ts)\n",
                  args.in.c_str(),
                  static_cast<unsigned long long>(stream.commit_lag()));
    }
    Aion::Options opt;
    opt.mode = args.mode;  // list=si; iso= tags override per transaction
    opt.ext_timeout_ms = args.timeout_ms;
    opt.spill_dir = args.spill_dir;
    const size_t shards = static_cast<size_t>(args.shards);
    const GcPolicy gc = GcPolicy::Every(
        args.gc_every, static_cast<size_t>(args.gc_target));
    const bool durable = !args.checkpoint_dir.empty();
    if (durable && opt.spill_dir.empty()) {
      opt.spill_dir = args.checkpoint_dir + "/spill";  // where Recover looks
    }

    // Checker choice: the durable driver always runs the sharded checker
    // (its state export is the checkpoint format), even for one shard.
    std::unique_ptr<Aion> mono;
    std::unique_ptr<online::ShardedAion> shard;
    uint64_t start_seq = 1, start_events = 0, wal_trunc = 0;
    if (durable && args.resume) {
      online::RecoverResult rec =
          online::Recover(opt, args.checkpoint_dir, &sink, shards);
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
    } else if (durable || shards > 1) {
      shard = std::make_unique<online::ShardedAion>(opt, shards, &sink);
    } else {
      mono = std::make_unique<Aion>(opt, &sink);
    }
    OnlineChecker* checker = mono.get();
    if (shard) checker = shard.get();

    // Each arrival is dropped when the next one is pulled: the run holds
    // the stream's reorder buffers and the checker's live state.
    hist::CollectedTxn ct;
    auto stream_failed = [&stream] {
      if (stream.status().ok) return false;
      std::fprintf(stderr, "load failed: %s\n",
                   stream.status().message.c_str());
      return true;
    };
    // A resumed run skips, by count, the arrivals the WAL already holds.
    for (uint64_t skipped = 0; skipped < start_events; ++skipped) {
      if (stream.Next(&ct)) continue;
      if (stream_failed()) return 1;
      std::fprintf(stderr,
                   "resume failed: %s ends after %llu arrivals, but the "
                   "recovered run had fed %llu\n",
                   args.in.c_str(), static_cast<unsigned long long>(skipped),
                   static_cast<unsigned long long>(start_events));
      return 1;
    }

    std::string driver = durable ? "durable" : "max-rate";
    if (shard) driver += ", " + std::to_string(shard->num_shards()) + " shards";
    Stopwatch sw;
    uint64_t fed = 0;
    if (durable) {
      online::DurableRunner::Options dopts;
      dopts.dir = args.checkpoint_dir;
      dopts.checkpoint_every_events = args.checkpoint_every;
      dopts.gc = gc;
      dopts.memory_ceiling_bytes = static_cast<size_t>(args.memory_ceiling);
      online::DurableRunner runner(shard.get(), dopts, start_seq,
                                   start_events, wal_trunc);
      // Single-threaded driver: main() owns the runner for its lifetime.
      AssumeRole driver_role(runner.driver_role);
      bool durable_ok = true;
      while (durable_ok && stream.Next(&ct)) {
        durable_ok = runner.Feed(ct.txn, ct.deliver_at_ms);
        ++fed;
      }
      if (stream_failed()) return 1;
      // Finish also collects the last checkpoint's write status.
      if (!durable_ok || !runner.Finish()) {
        std::fprintf(stderr, "durable run failed: WAL/checkpoint write error\n");
        return 1;
      }
      driver += ", " + std::to_string(runner.checkpoints_written()) +
                " checkpoints, " + std::to_string(runner.sheds()) + " sheds";
    } else {
      fed = online::RunMaxRate(
                checker,
                [&stream, &ct]() -> const hist::CollectedTxn* {
                  return stream.Next(&ct) ? &ct : nullptr;
                },
                gc)
                .txns;
      if (stream_failed()) return 1;
    }
    const double secs = sw.Seconds();
    std::printf("online %s check (%s): %.3fs (%.0f TPS), %llu flip-flops\n",
                level.c_str(), driver.c_str(), secs,
                secs > 0 ? static_cast<double>(fed) / secs : 0.0,
                static_cast<unsigned long long>(
                    shard ? shard->flip_stats().total_flips()
                          : mono->flip_stats().total_flips()));
    if (args.stats) {
      PrintCheckerStats(shard ? shard->stats() : mono->stats());
      if (shard) online::PrintPipelineHealth(shard->pipeline_health(), stdout);
    }
  } else {
    ChronosOptions opt;
    opt.mode = args.mode;
    opt.gc_every_n_txns = args.gc_every;
    hist::EventStream stream(args.in);
    auto load_failed = [&stream] {
      std::fprintf(stderr, "load failed: %s\n",
                   stream.status().message.c_str());
      return 1;
    };
    if (!stream.status().ok) return load_failed();
    CheckStats stats;
    bool checked = false;
    if (stream.seekable()) {
      // Two passes over the file; the check holds the event window.
      Chronos checker(opt, &sink);
      stats = checker.Check(&stream);
      if (!stream.status().ok) return load_failed();
      checked = !stream.tagged();
      if (checked) {
        std::printf("streamed %s: %zu txns (%zu ops) in two passes, event "
                    "window %llu + %llu ts (commit order + txn span), at "
                    "most %zu txns held\n",
                    args.in.c_str(), stats.txns, stats.ops,
                    static_cast<unsigned long long>(stream.commit_lag()),
                    static_cast<unsigned long long>(stream.txn_span()),
                    stream.max_held());
      } else {
        sink.Reset();  // the loaded check re-checks from the first block
      }
    }
    if (!checked) {
      // A pipe (read once) or a tagged history.
      Stopwatch load_sw;
      History h;
      if (!stream.Load(&h).ok) return load_failed();
      std::printf("loaded %zu txns (%zu ops) in %.3fs\n", h.txns.size(),
                  h.NumOps(), load_sw.Seconds());
      if (NeedsMixedLevelCheck(h)) {
        // Per-transaction iso= tags: the single-level replayers would
        // misjudge the weaker-level transactions, so route to the mixed
        // checker with --level as the default for untagged ones.
        ChronosMixed checker(args.mode, &sink);
        stats = checker.Check(std::move(h));
        level = "mixed(default=" + level + ")";
      } else {
        Chronos checker(opt, &sink);
        stats = checker.Check(std::move(h));
      }
    }
    std::printf("offline %s check: sort=%.3fs check=%.3fs gc=%.3fs\n",
                level.c_str(), stats.sort_seconds, stats.check_seconds,
                stats.gc_seconds);
  }
  PrintReport(sink, static_cast<size_t>(args.max_report));
  return sink.total() > 0 ? 3 : 0;
}

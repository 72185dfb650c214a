// trace_layers: the traced half of the end-to-end benchmark (run.py).
// Replays one chronos_check invocation from the layers' public entry
// points, with a span around every call into a layer, and prints one JSON
// object: the verdict and stats lines in chronos_check's own format (the
// harness compares them with the untraced product run on the same
// history), the aggregated spans, and per-layer counters.
//
//   trace_layers --mode=offline|online|sharded|durable --in=FILE
//                [the chronos_check flags of that mode] [--resume]
//                [--chrome-trace=FILE]
//
// Compositions, each mirroring tools/chronos_check.cc for its mode:
//   offline  LoadHistory -> Chronos::Check
//   online   LoadHistory -> ScheduleDelivery -> per arrival
//            TxnIngress::AdmitTxn + ClassifyOps + KeyEngine::ProcessTxn
//            (FinalizeTxn nested in admission) -> TxnIngress::Finish; the
//            same composition core/aion.cc uses, so stats, flip-flops and
//            violations must equal chronos_check --online exactly
//   sharded  LoadHistory -> ScheduleDelivery -> ShardedAion::OnTransaction
//            -> Finish
//   durable  DurableRunner::Feed's step from its public parts
//            (OnTransaction, GcToLiveTarget, WalWriter::LogStep/Sync,
//            ExportState, CheckpointManager::Write); with --resume,
//            online::Recover and the rest of the stream instead. Each
//            GcToLiveTarget call is bracketed by pipeline drains
//            (FootprintExact): the first waits out the arrivals still in
//            the rings, the second the shard's CollectUpTo and spill
//            write, which run on the shard thread and would otherwise
//            show up only as ring backpressure on later arrivals
//
// Spans: name, start, end, parent. A span's self time is its duration
// minus the time its child spans cover. Per-arrival spans are only
// aggregated (count, total, self); coarse spans (load, schedule, GC
// passes, checkpoints, finish, frees) are also kept as events and written
// in Chrome trace-event format to --chrome-trace at exit. Feed latencies
// are kept one float per arrival for exact percentiles.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "flags.h"

#include "core/chronos.h"
#include "core/key_engine.h"
#include "core/online_checker.h"
#include "core/txn_ingress.h"
#include "core/violation.h"
#include "hist/codec.h"
#include "hist/collector.h"
#include "online/checkpoint.h"
#include "online/metrics.h"
#include "online/recovery.h"
#include "online/sharded_aion.h"

using namespace chronos;
using namespace chronos::tools;

namespace {

enum SpanId : int {
  kLoad,
  kSchedule,
  kHistFree,
  kChronosCheck,
  kFeedLoop,
  kFeed,
  kAdmit,
  kClassify,
  kProcess,
  kFinalize,
  kIngressFinish,
  kEngineFree,
  kShardedFeed,
  kShardedFinish,
  kShardedFree,
  kGcDrain,
  kGc,
  kCollect,
  kWalLog,
  kWalSync,
  kCkptExport,
  kCkptWrite,
  kRecover,
  kNumSpans
};

struct SpanInfo {
  const char* name;
  bool coarse;  ///< kept as a Chrome trace event, not only aggregated
};

constexpr SpanInfo kSpans[kNumSpans] = {
    {"hist.load", true},          {"hist.schedule", true},
    {"hist.free", true},          {"chronos.check", true},
    {"feed.loop", true},          {"feed", false},
    {"ingress.admit", false},     {"ingress.classify", false},
    {"engine.process", false},    {"engine.finalize", false},
    {"ingress.finish", true},     {"engine.free", true},
    {"sharded.feed", false},      {"sharded.finish", true},
    {"sharded.free", true},       {"gc.drain", true},
    {"ingress.gc", true},         {"engine.collect", true},
    {"wal.log", false},           {"wal.sync", true},
    {"ckpt.export", true},        {"ckpt.write", true},
    {"recovery.recover", true},
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  void Begin(SpanId id) { stack_.push_back({id, Clock::now(), 0.0}); }

  /// Closes the innermost span; returns its duration in seconds.
  double End() { return Close(Clock::now()); }

  /// Closes the innermost span and opens its sibling `id` at the same
  /// instant: one clock read instead of two on the per-arrival path.
  /// Returns the closed span's duration in seconds.
  double Next(SpanId id) {
    const Clock::time_point now = Clock::now();
    const double dur = Close(now);
    stack_.push_back({id, now, 0.0});
    return dur;
  }

  double top_level_seconds() const { return top_level_; }

  std::string SpansJson() const {
    std::string out = "{";
    for (int i = 0; i < kNumSpans; ++i) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\":{\"count\":%llu,\"total_s\":%.9f,"
                    "\"self_s\":%.9f}",
                    i ? "," : "", kSpans[i].name,
                    static_cast<unsigned long long>(agg_[i].count),
                    agg_[i].total, agg_[i].self);
      out += buf;
    }
    return out + "}";
  }

  bool WriteChromeTrace(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "{\"traceEvents\":[");
    for (size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"parent\":\"%s\"}}",
                   i ? "," : "", kSpans[e.id].name, e.start * 1e6,
                   e.dur * 1e6, e.parent < 0 ? "" : kSpans[e.parent].name);
    }
    std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\"}\n");
    return std::fclose(f) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;
  struct Frame {
    SpanId id;
    Clock::time_point start;
    double child;
  };
  struct Agg {
    uint64_t count = 0;
    double total = 0;
    double self = 0;
  };
  struct Event {
    SpanId id;
    int parent;
    double start;
    double dur;
  };

  static double Seconds(Clock::duration d) {
    return std::chrono::duration<double>(d).count();
  }

  double Close(Clock::time_point end) {
    const Frame f = stack_.back();
    stack_.pop_back();
    const double dur = Seconds(end - f.start);
    Agg& a = agg_[f.id];
    ++a.count;
    a.total += dur;
    a.self += dur - f.child;
    if (stack_.empty()) {
      top_level_ += dur;
    } else {
      stack_.back().child += dur;
    }
    if (kSpans[f.id].coarse) {
      events_.push_back({f.id, stack_.empty() ? -1 : stack_.back().id,
                         Seconds(f.start - origin_), dur});
    }
    return dur;
  }

  Clock::time_point origin_;
  std::vector<Frame> stack_;
  Agg agg_[kNumSpans];
  std::vector<Event> events_;
  double top_level_ = 0;
};

/// Counters reported next to the spans; every field is printed for every
/// mode (zero where the mode has no such layer).
struct Counters {
  double sort_s = 0;
  double scan_s = 0;
  uint64_t live_txns_max = 0;
  uint64_t bytes_max = 0;
  uint64_t gc_calls = 0;
  uint64_t gc_useful = 0;  ///< GcToLiveTarget calls that moved the watermark
  uint64_t ext_rechecks = 0;
  uint64_t noconflict_checks = 0;
  uint64_t flips = 0;
  uint64_t gc_passes = 0;
  uint64_t spill_reloads = 0;
  double idle_ratio = 0;
  uint64_t producer_stalls = 0;
  uint64_t consumer_stalls = 0;
  uint64_t wal_bytes = 0;
  uint64_t ckpt_bytes = 0;  ///< sum of every checkpoint image written
  uint64_t ckpt_count = 0;
  uint64_t spill_bytes = 0;
  uint64_t replayed_records = 0;
  std::vector<float> feed_s;  ///< one latency per arrival
};

// The two report lines below use tools/chronos_check.cc's exact formats:
// the harness compares them byte for byte with the product's output.
std::string ViolationsLine(const CountingSink& sink) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "violations: total=%zu SESSION=%zu INT=%zu EXT=%zu "
                "NOCONFLICT=%zu TS-ORDER=%zu TS-DUP=%zu",
                sink.total(), sink.count(ViolationType::kSession),
                sink.count(ViolationType::kInt),
                sink.count(ViolationType::kExt),
                sink.count(ViolationType::kNoConflict),
                sink.count(ViolationType::kTsOrder),
                sink.count(ViolationType::kTsDuplicate));
  return buf;
}

/// Copies the checker's counters into `c` and returns its stats line.
std::string TakeStats(const CheckerStats& s, uint64_t flips, Counters* c) {
  c->ext_rechecks = s.ext_rechecks;
  c->noconflict_checks = s.noconflict_checks;
  c->gc_passes = s.gc_passes;
  c->spill_reloads = s.spill_reloads;
  c->flips = flips;
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "stats: txns=%llu ext_rechecks=%llu noconflict_checks=%llu "
                "gc_passes=%llu spill_reloads=%llu unsafe_wm=%llu "
                "unsafe_horizon=%llu corrupt_epochs=%llu",
                static_cast<unsigned long long>(s.txns_processed),
                static_cast<unsigned long long>(s.ext_rechecks),
                static_cast<unsigned long long>(s.noconflict_checks),
                static_cast<unsigned long long>(s.gc_passes),
                static_cast<unsigned long long>(s.spill_reloads),
                static_cast<unsigned long long>(s.unsafe_below_watermark),
                static_cast<unsigned long long>(s.unsafe_below_horizon),
                static_cast<unsigned long long>(s.corrupt_spill_epochs));
  return buf;
}

uint64_t TreeBytes(const std::string& path) {
  std::error_code ec;
  uint64_t total = 0;
  for (std::filesystem::recursive_directory_iterator it(path, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

/// The monolithic checker assembled from its public parts, as core/aion.cc
/// assembles `Aion`, with a span around every call into a layer.
class TracedMonolith final : private TxnIngress::Dispatch {
 public:
  TracedMonolith(const CheckerOptions& o, ViolationSink* sink, Tracer* tr)
      : report_([sink](Timestamp, const Violation& v) { sink->Report(v); }),
        engine_(KeyEngine::Options{o.mode, o.spill_dir}, &stats_, &flips_,
                report_),
        ingress_(o, &stats_, report_, this),
        tr_(tr) {}

  /// TxnIngress::OnTransaction, split at its layer boundaries. The three
  /// spans are contiguous, so their sum is the arrival's latency, which
  /// is returned (a parent span would cost two more clock reads).
  double OnTransaction(const Transaction& t, uint64_t now_ms) {
    double latency = 0;
    tr_->Begin(kAdmit);
    TxnIngress::Admission adm = ingress_.AdmitTxn(t, now_ms);
    if (adm.kind != TxnIngress::Admission::Kind::kDrop) {
      ClassifiedOps ops;
      const bool dispatch =
          adm.kind == TxnIngress::Admission::Kind::kDispatch;
      latency += tr_->Next(kClassify);
      ClassifyOps(t, report_, dispatch ? &ops : nullptr);
      if (dispatch) {
        latency += tr_->Next(kProcess);
        engine_.ProcessTxn(adm.ctx, View(ops), adm.register_reads,
                           adm.now_ms);
      }
    }
    return latency + tr_->End();
  }

  void Finish() {
    tr_->Begin(kIngressFinish);
    ingress_.Finish();
    tr_->End();
  }

  /// Aion::GetFootprint's estimate. A copy of the formula and constants in
  /// core/aion.cc (Aion::GetFootprint), which this must follow: the
  /// product prints no footprint, so no reproduction check catches drift.
  CheckerFootprint GetFootprint() const {
    CheckerFootprint f;
    f.live_txns = ingress_.live_txns();
    f.versions = engine_.TotalVersions();
    f.intervals = engine_.TotalIntervals();
    f.approx_bytes = engine_.ApproxBytes() + f.live_txns * 160 +
                     f.intervals * 64 + ingress_.used_ts_count() * 48;
    return f;
  }
  const CheckerStats& stats() const { return stats_; }
  const FlipFlopStats& flip_stats() const { return flips_; }

 private:
  static KeyEngine::OpsView View(const ClassifiedOps& ops) {
    KeyEngine::OpsView view;
    view.reads = ops.ext_reads.data();
    view.num_reads = ops.ext_reads.size();
    view.writes = ops.writes.data();
    view.num_writes = ops.writes.size();
    view.list_reads = ops.list_reads.data();
    view.num_list_reads = ops.list_reads.size();
    view.appends = ops.appends.data();
    view.num_appends = ops.appends.size();
    return view;
  }

  // Only TxnIngress::OnTransaction calls DispatchTxn, and this class
  // drives AdmitTxn itself.
  void DispatchTxn(const KeyEngine::TxnCtx&, ClassifiedOps&&, bool,
                   uint64_t) override {}
  void DispatchFinalize(TxnId tid) override {
    tr_->Begin(kFinalize);
    engine_.FinalizeTxn(tid);
    tr_->End();
  }
  // The online workload runs without GC; collection is untraced.
  void DispatchGc(Timestamp watermark) override {
    engine_.CollectUpTo(watermark);
  }

  CheckerStats stats_;
  FlipFlopStats flips_;
  KeyEngine::ReportFn report_;
  KeyEngine engine_;
  TxnIngress ingress_;
  Tracer* tr_;
};

/// Finish, the counters chronos_check --stats prints, and destruction of
/// a sharded checker; returns its stats line.
std::string FinishSharded(std::unique_ptr<online::ShardedAion> checker,
                          Tracer* tr, Counters* c) {
  tr->Begin(kShardedFinish);
  checker->Finish();
  tr->End();
  const std::string line = TakeStats(
      checker->stats(), checker->flip_stats().total_flips(), c);
  const online::PipelineHealth h = checker->pipeline_health();
  c->idle_ratio = h.CoordinatorIdleRatio();
  auto add = [c](const online::RingHealth& r) {
    c->producer_stalls += r.producer_stalls;
    c->consumer_stalls += r.consumer_stalls;
  };
  for (const auto& r : h.pre_stage_in) add(r);
  for (const auto& r : h.pre_stage_out) add(r);
  add(h.seq_ring);
  for (const auto& r : h.shard_rings) add(r);
  tr->Begin(kShardedFree);
  checker.reset();
  tr->End();
  return line;
}

/// Footprint maxima are sampled every 16 arrivals: the sharded footprint
/// reads atomics the shard workers keep writing.
template <typename Checker>
void TrackFootprint(const Checker& checker, Counters* c) {
  if (c->feed_s.size() % 16 != 0) return;
  const CheckerFootprint f = checker.GetFootprint();
  c->live_txns_max = std::max<uint64_t>(c->live_txns_max, f.live_txns);
  c->bytes_max = std::max<uint64_t>(c->bytes_max, f.approx_bytes);
}

double Percentile(std::vector<float> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank > 0 ? rank - 1 : 0)];
}

void PrintJson(const Tracer& tr, const std::string& violations,
               const std::string& stats, const Counters& c) {
  const double max_s =
      c.feed_s.empty() ? 0 : *std::max_element(c.feed_s.begin(), c.feed_s.end());
  std::printf(
      "{\"top_level_s\":%.9f,"
      "\"violations\":\"%s\",\"stats\":\"%s\",\"spans\":%s,"
      "\"counters\":{\"sort_s\":%.9f,\"scan_s\":%.9f,\"live_txns_max\":%llu,"
      "\"bytes_max\":%llu,\"gc_calls\":%llu,\"gc_useful\":%llu,"
      "\"ext_rechecks\":%llu,\"noconflict_checks\":%llu,\"flips\":%llu,"
      "\"gc_passes\":%llu,\"spill_reloads\":%llu,\"idle_ratio\":%.9f,"
      "\"producer_stalls\":%llu,\"consumer_stalls\":%llu,\"wal_bytes\":%llu,"
      "\"ckpt_bytes\":%llu,\"ckpt_count\":%llu,\"spill_bytes\":%llu,"
      "\"replayed_records\":%llu,\"feed_p50_s\":%.9f,"
      "\"feed_p99_s\":%.9f,\"feed_p999_s\":%.9f,\"feed_max_s\":%.9f}}\n",
      tr.top_level_seconds(),
      violations.c_str(), stats.c_str(), tr.SpansJson().c_str(), c.sort_s,
      c.scan_s, static_cast<unsigned long long>(c.live_txns_max),
      static_cast<unsigned long long>(c.bytes_max),
      static_cast<unsigned long long>(c.gc_calls),
      static_cast<unsigned long long>(c.gc_useful),
      static_cast<unsigned long long>(c.ext_rechecks),
      static_cast<unsigned long long>(c.noconflict_checks),
      static_cast<unsigned long long>(c.flips),
      static_cast<unsigned long long>(c.gc_passes),
      static_cast<unsigned long long>(c.spill_reloads), c.idle_ratio,
      static_cast<unsigned long long>(c.producer_stalls),
      static_cast<unsigned long long>(c.consumer_stalls),
      static_cast<unsigned long long>(c.wal_bytes),
      static_cast<unsigned long long>(c.ckpt_bytes),
      static_cast<unsigned long long>(c.ckpt_count),
      static_cast<unsigned long long>(c.spill_bytes),
      static_cast<unsigned long long>(c.replayed_records),
      Percentile(c.feed_s, 0.50), Percentile(c.feed_s, 0.99),
      Percentile(c.feed_s, 0.999), max_s);
}

int Fail(const std::string& msg) {
  std::fprintf(stderr, "trace_layers: %s\n", msg.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const char* mode_flag = FlagValue(argc, argv, "--mode");
  const char* in = FlagValue(argc, argv, "--in");
  if (!mode_flag || !in) {
    std::fprintf(stderr,
                 "usage: trace_layers --mode=offline|online|sharded|durable "
                 "--in=FILE [chronos_check flags] [--chrome-trace=FILE]\n");
    return 2;
  }
  const std::string mode = mode_flag;
  if (mode != "offline" && mode != "online" && mode != "sharded" &&
      mode != "durable") {
    return Fail("unknown --mode=" + mode);
  }

  Tracer tr;
  Counters c;
  CountingSink sink(0);
  std::string stats_line;

  tr.Begin(kLoad);
  History h;
  const hist::CodecStatus st = hist::LoadHistory(in, &h);
  tr.End();
  if (!st.ok) return Fail("load failed: " + st.message);

  if (mode == "offline") {
    tr.Begin(kChronosCheck);
    Chronos checker(ChronosOptions{}, &sink);
    const CheckStats cs = checker.Check(std::move(h));
    tr.End();
    c.sort_s = cs.sort_seconds;
    c.scan_s = cs.check_seconds;
  } else {
    hist::CollectorParams cp;
    cp.delay_mean_ms =
        static_cast<double>(U64Flag(argc, argv, "--delay-mean", 0));
    cp.delay_stddev_ms =
        static_cast<double>(U64Flag(argc, argv, "--delay-stddev", 0));
    tr.Begin(kSchedule);
    std::vector<hist::CollectedTxn> stream = hist::ScheduleDelivery(h, cp);
    tr.End();

    CheckerOptions opt;
    opt.ext_timeout_ms = U64Flag(argc, argv, "--timeout-ms", 5000);
    opt.pre_stage_workers =
        static_cast<size_t>(U64Flag(argc, argv, "--pre-stage-workers", 2));
    const size_t shards =
        static_cast<size_t>(U64Flag(argc, argv, "--shards", 1));
    c.feed_s.reserve(stream.size());

    if (mode == "online") {
      auto mono = std::make_unique<TracedMonolith>(opt, &sink, &tr);
      tr.Begin(kFeedLoop);
      for (const hist::CollectedTxn& ct : stream) {
        c.feed_s.push_back(
            static_cast<float>(mono->OnTransaction(ct.txn, ct.deliver_at_ms)));
        TrackFootprint(*mono, &c);
      }
      tr.End();
      mono->Finish();
      stats_line =
          TakeStats(mono->stats(), mono->flip_stats().total_flips(), &c);
      tr.Begin(kEngineFree);
      mono.reset();
      tr.End();
    } else if (mode == "sharded") {
      auto checker = std::make_unique<online::ShardedAion>(opt, shards, &sink);
      tr.Begin(kFeedLoop);
      for (const hist::CollectedTxn& ct : stream) {
        tr.Begin(kShardedFeed);  // the whole arrival: no parent span
        checker->OnTransaction(ct.txn, ct.deliver_at_ms);
        c.feed_s.push_back(static_cast<float>(tr.End()));
        TrackFootprint(*checker, &c);
      }
      tr.End();
      stats_line = FinishSharded(std::move(checker), &tr, &c);
    } else {
      const char* dir_flag = FlagValue(argc, argv, "--checkpoint-dir");
      if (!dir_flag) return Fail("--mode=durable needs --checkpoint-dir");
      const std::string dir = dir_flag;
      opt.spill_dir = dir + "/spill";
      const uint64_t ckpt_every =
          U64Flag(argc, argv, "--checkpoint-every", 5000);
      const uint64_t gc_every = U64Flag(argc, argv, "--gc-every", 0);
      const uint64_t gc_target = U64Flag(argc, argv, "--gc-target", 0);

      std::unique_ptr<online::ShardedAion> checker;
      uint64_t next_seq = 1, events = 0, wal_trunc = 0;
      if (HasFlag(argc, argv, "--resume")) {
        tr.Begin(kRecover);
        online::RecoverResult rec = online::Recover(opt, dir, &sink, shards);
        tr.End();
        if (!rec.checker) return Fail("recovery failed: " + rec.error);
        if (rec.used_fallback) return Fail("recovery fell back");
        checker = std::move(rec.checker);
        next_seq = rec.next_seq;
        events = rec.events;
        wal_trunc = rec.wal_truncate_to;
        // Without a fallback the newest checkpoint is the one loaded;
        // Recover replayed the WAL records past its wal_seq.
        uint64_t replayed_from = 0;
        if (rec.from_checkpoint) {
          online::CheckpointManager::Loaded used;
          if (!online::CheckpointManager::Load(
                  online::CheckpointManager::List(dir).back().second, &used)) {
            return Fail("cannot reread the recovered checkpoint");
          }
          replayed_from = used.wal_seq;
        }
        c.replayed_records = next_seq - 1 - replayed_from;
      } else {
        checker = std::make_unique<online::ShardedAion>(opt, shards, &sink);
      }
      // DurableRunner's constructor.
      online::CheckpointManager ckpts(dir);
      std::error_code ec;
      std::filesystem::create_directories(dir, ec);
      online::WalWriter wal;
      if (!wal.Open(dir + "/wal.log", wal_trunc)) return Fail("WAL open");

      // DurableRunner::Feed, one step per arrival (no memory ceiling).
      tr.Begin(kFeedLoop);
      for (size_t i = events; i < stream.size(); ++i) {
        const hist::CollectedTxn& ct = stream[i];
        tr.Begin(kFeed);
        tr.Begin(kShardedFeed);
        checker->OnTransaction(ct.txn, ct.deliver_at_ms);
        tr.End();
        ++events;
        online::WalRecord rec;
        rec.seq = next_seq;
        rec.now_ms = ct.deliver_at_ms;
        rec.txn = ct.txn;
        rec.gc_target = gc_target;
        rec.gc = gc_every > 0 && events % gc_every == 0;
        if (rec.gc) {
          const Timestamp before = checker->watermark();
          tr.Begin(kGcDrain);
          checker->FootprintExact();
          tr.Next(kGc);
          checker->GcToLiveTarget(static_cast<size_t>(gc_target));
          tr.Next(kCollect);
          checker->FootprintExact();
          tr.End();
          ++c.gc_calls;
          if (checker->watermark() != before) ++c.gc_useful;
        }
        tr.Begin(kWalLog);
        const bool logged = wal.LogStep(rec);
        tr.End();
        if (!logged) return Fail("WAL append");
        ++next_seq;
        if (ckpt_every > 0 && events % ckpt_every == 0) {
          tr.Begin(kWalSync);
          const bool synced = wal.Sync();
          tr.End();
          tr.Begin(kCkptExport);
          online::ShardedAion::StateImage img = checker->ExportState();
          tr.End();
          tr.Begin(kCkptWrite);
          const bool written = synced && ckpts.Write(img, next_seq - 1, events);
          tr.End();
          if (!written) return Fail("checkpoint write");
          ++c.ckpt_count;
          c.ckpt_bytes += std::filesystem::file_size(
              online::CheckpointManager::List(dir).back().second, ec);
        }
        c.feed_s.push_back(static_cast<float>(tr.End()));
        TrackFootprint(*checker, &c);
      }
      tr.End();
      stats_line = FinishSharded(std::move(checker), &tr, &c);
      c.wal_bytes = std::filesystem::file_size(dir + "/wal.log", ec);
      c.spill_bytes = TreeBytes(opt.spill_dir);
    }

    tr.Begin(kHistFree);
    stream = {};
    tr.End();
  }

  tr.Begin(kHistFree);
  h = History();
  tr.End();

  if (const char* path = FlagValue(argc, argv, "--chrome-trace")) {
    if (!tr.WriteChromeTrace(path)) return Fail("cannot write " + std::string(path));
  }
  PrintJson(tr, ViolationsLine(sink), stats_line, c);
  return 0;
}

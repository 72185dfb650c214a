// ShardedAion: AION over N key-partitioned KeyEngine shards, each owned
// by a worker thread, fed through lock-free SPSC rings (paper Fig. 3,
// parallelized). The per-key decomposition is sound because every
// expensive step of Algorithm 3 — NOCONFLICT overlap queries, Step-3
// EXT re-checks, frontier lookups, GC eviction — only consults state of
// the key it operates on (cf. the per-key version-order decomposition of
// Biswas & Enea).
//
// Pipeline topology: two stages, joined by two SpscRings per shard.
//
//   caller (TxnIngress + Dispatch) ──ring[j]────> shard worker j
//                                  ──payload[j]─>
//
//   - The calling thread runs the whole TxnIngress, exactly as in the
//     monolithic `Aion`: admission (SESSION/Eq.(1)/timestamp-uniqueness
//     checks), INT replay/classification, the EXT timeout clock and GC
//     watermark decisions. Only its Dispatch differs: instead of calling
//     one engine inline, it partitions each classified footprint by
//     key->shard and issues one ShardCmd per touched shard (first-touch
//     order). The caller is the sole producer of every shard ring.
//   - A ShardCmd is a fixed-size header (trivially copyable) on the
//     command ring `ring`; the footprint it covers rides the shard's
//     payload ring as 16-byte records, in op order: a register read or
//     write as {key, value}, a list read or append as {key, length}
//     followed by its values, two per record. Nothing the caller
//     allocates is freed on a worker.
//   - Header first: DispatchTxn stages every touched shard's header,
//     then the op records. A batch publication (every cmd_batch
//     commands per shard) publishes the payload ring before the command
//     ring, so a visible header finds its records visible too.
//   - Publish before block: before the caller blocks on a full ring of
//     a shard, it publishes both of that shard's rings. The worker then
//     drains the records of a published header as they are published,
//     so a footprint larger than the payload ring still goes through.
//   - Each shard worker drains its rings in FIFO order. Because the
//     caller issues commands in its total order and engines never read
//     other shards' keys, per-shard FIFO delivery reproduces the
//     monolith's verdicts exactly: a 1-shard ShardedAion is verdict-
//     and violation-identical to `Aion`.
//   - Finalize commands go only to the shards holding the transaction's
//     external reads; GC commands broadcast the coordinator's effective
//     watermark to every shard, which collects and spills independently
//     (spill_dir/shard<i>) but at the same cut.
//   - Violations are buffered per producer (caller, shards) and emitted
//     to the sink at Finish(), sorted by (commit_ts, txn id, content) —
//     deterministic regardless of shard count or thread timing.
//     Buffering until Finish is deliberate: stragglers can report
//     NOCONFLICT against spilled intervals of arbitrarily old
//     transactions, so no mid-stream flush point preserves global
//     sortedness. The cost is O(#violations) memory for the run —
//     violations are anomalies, so this stays small in practice.
//
// Determinism contract: every verdict-affecting decision (admission,
// watermarks, finalize deadlines) is made synchronously on the caller
// thread; the shard workers only execute work whose outcome is a pure
// function of the commands they receive. GetFootprint().live_txns is
// exact caller-side state, so GC-policy decisions — and hence WAL-replay
// recovery — never depend on pipeline timing.
#ifndef CHRONOS_ONLINE_SHARDED_AION_H_
#define CHRONOS_ONLINE_SHARDED_AION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/flipflop_stats.h"
#include "core/key_engine.h"
#include "core/online_checker.h"
#include "core/thread_annotations.h"
#include "core/txn_ingress.h"
#include "core/types.h"
#include "core/violation.h"
#include "online/metrics.h"
#include "online/spsc_ring.h"

namespace chronos::online {

class ShardedAion : public OnlineChecker, private TxnIngress::Dispatch {
 public:
  using Options = CheckerOptions;

  /// The finalize fan-out uses a 64-bit shard mask.
  static constexpr size_t kMaxShards = 64;

  /// `num_shards` is clamped to [1, kMaxShards]; one worker thread per
  /// shard.
  /// `cmd_batch` commands are staged per shard ring before one cursor
  /// publication; `queue_capacity` bounds each command ring, and four
  /// times it each payload ring's 16-byte records (backpressure on the
  /// caller).
  ShardedAion(const Options& options, size_t num_shards, ViolationSink* sink,
              size_t cmd_batch = 256, size_t queue_capacity = 8192);
  ~ShardedAion() override;

  ShardedAion(const ShardedAion&) = delete;
  ShardedAion& operator=(const ShardedAion&) = delete;

  // OnlineChecker. All calls must come from one caller thread, the sole
  // producer of every shard ring.
  void OnTransaction(const Transaction& t, uint64_t now_ms) override;
  void AdvanceTime(uint64_t now_ms) override;
  Timestamp Gc(Timestamp up_to) override;
  void GcToLiveTarget(size_t target) override;
  /// Finalizes outstanding transactions, drains the pipeline, and emits
  /// all buffered violations to the sink in (commit_ts, txn id) order.
  void Finish() override;

  /// Cheap footprint: live_txns is exact (caller-side ingress state);
  /// versions/intervals/bytes read per-shard atomics that trail the
  /// workers by at most one command batch (exact after Finish()/stats()).
  CheckerFootprint GetFootprint() const override;

  /// Exact footprint: drains every dispatched command first, so the
  /// result is a pure function of the events consumed — the durable
  /// runner's memory-ceiling decisions use this to stay reproducible
  /// across crash/recovery (online/checkpoint.h).
  CheckerFootprint FootprintExact();

  /// Merged stats across the coordinator and all shards. Blocks until
  /// every dispatched command has executed.
  CheckerStats stats();
  /// Merged flip-flop statistics (see FlipFlopStats::Merge). Blocks
  /// until every dispatched command has executed.
  FlipFlopStats flip_stats();

  /// Command- and payload-ring traffic, depth high-water marks and
  /// stall counts (online/metrics.h). Drains the pipeline first so the
  /// snapshot is quiescent.
  PipelineHealth pipeline_health();

  size_t num_shards() const { return shards_.size(); }
  Timestamp watermark() const { return ingress_.watermark(); }

  /// Crash-safe checkpoint support (online/checkpoint.h): a full state
  /// image, one byte-deterministic section per component. ExportState
  /// drains the pipeline first (WaitAll makes the subsequent reads of
  /// shard state race-free); ImportState assumes a freshly constructed
  /// checker with the same options and shard count, whose spill
  /// directories still hold the epoch files the serialized manifests
  /// reference. The coordinator section begins with the shard
  /// count so recovery can size the checker before parsing the rest.
  struct StateImage {
    std::string ingress;
    std::string coordinator;  ///< shard count, stats, violations, masks
    std::vector<std::string> shards;  ///< stats + flips + violations + engine
  };
  StateImage ExportState();
  bool ImportState(const StateImage& img);

  /// Memory-ceiling degradation: drains dispatched work, then trims list
  /// element buffers below the watermark on every shard (see
  /// OnlineChecker::ShedMemory).
  void ShedMemory() override;

 private:
  /// One command header. The footprint of a kTxn command rides the
  /// shard's payload ring: `records` records holding, in this order,
  /// `num_reads` reads, `num_writes` writes, `num_list_reads` list reads
  /// and `num_appends` appends.
  struct ShardCmd {
    enum class Kind : uint8_t { kTxn, kFinalize, kGc };
    Kind kind = Kind::kTxn;
    bool register_reads = false;
    uint32_t num_reads = 0;
    uint32_t num_writes = 0;
    uint32_t num_list_reads = 0;
    uint32_t num_appends = 0;
    uint32_t records = 0;
    KeyEngine::TxnCtx ctx{};       // kTxn; ctx.tid also keys kFinalize
    Timestamp gc_watermark = kTsMin;  // kGc
    uint64_t now_ms = 0;
  };
  static_assert(std::is_trivially_copyable_v<ShardCmd>,
                "a command header must cross the ring without a heap");

  /// One payload record: a register op's {key, value}, a list op's
  /// {key, length} head, or two of a list op's values.
  struct PayloadRec {
    uint64_t first = 0;
    int64_t second = 0;
  };
  static_assert(sizeof(PayloadRec) == 16);

  /// A worker's decode buffers; they keep their capacity across
  /// commands, so a steady stream allocates nothing.
  struct WorkerScratch {
    std::vector<PayloadRec> records;
    std::vector<KeyEngine::ExtReadReq> reads;
    std::vector<KeyEngine::WriteReq> writes;
    std::vector<KeyEngine::ListReadReq> list_reads;
    std::vector<KeyEngine::AppendReq> appends;
  };

  struct TaggedViolation {
    Timestamp order_ts = kTsMin;
    Violation v;
  };

  /// Payload records per command slot: each payload ring holds this
  /// many times `queue_capacity` records, no more than the four
  /// vectors a command slot used to carry took.
  static constexpr size_t kPayloadPerCmd = 4;

  struct Shard {
    explicit Shard(size_t ring_capacity)
        : ring(ring_capacity), payload(ring_capacity * kPayloadPerCmd) {}

    SpscRing<ShardCmd> ring;       // caller -> worker: command headers
    SpscRing<PayloadRec> payload;  // caller -> worker: their footprints

    /// Capability of the shard's worker thread: guards the engine and
    /// the verdict side-products it writes. The caller may assume it
    /// only behind a quiescent barrier (WaitAll / joined threads).
    ThreadRole owner;
    /// Capability of the caller (coordinator) thread over this shard's
    /// issue bookkeeping.
    ThreadRole caller_side;

    std::unique_ptr<KeyEngine> engine CHRONOS_PT_GUARDED_BY(owner);
    CheckerStats stats CHRONOS_GUARDED_BY(owner);  // read at barrier
    FlipFlopStats flips CHRONOS_GUARDED_BY(owner);  // read at barrier
    std::vector<TaggedViolation> violations CHRONOS_GUARDED_BY(owner);
    // Footprint mirrors, refreshed by the worker after each batch;
    // lock-free by design (GetFootprint runs inside the GC policy
    // check), so they carry explicit memory orders instead of a guard.
    std::atomic<size_t> versions{0};
    std::atomic<size_t> intervals{0};
    std::atomic<size_t> approx_bytes{0};

    // Caller-side issue bookkeeping: commands staged into the ring
    // (`issued`) and staged since the last batch publication (`staged`).
    uint64_t issued CHRONOS_GUARDED_BY(caller_side) = 0;
    uint32_t staged CHRONOS_GUARDED_BY(caller_side) = 0;

    // Completion barrier: worker bumps `done` after executing a batch.
    Mutex done_mu;
    CondVar done_cv;
    uint64_t done CHRONOS_GUARDED_BY(done_mu) = 0;

    std::thread worker;
  };

  // TxnIngress::Dispatch, called by ingress_ on the caller thread in its
  // single total order; each stages commands into the shard rings.
  void DispatchTxn(const KeyEngine::TxnCtx& ctx, ClassifiedOps&& ops,
                   bool register_reads, uint64_t now_ms) override;
  void DispatchFinalize(TxnId tid) override;
  void DispatchGc(Timestamp watermark) override;

  size_t ShardOf(Key key) const;
  // Caller-side staging; only the caller thread stages, as the sole
  // producer of every shard ring. A full ring publishes both of the
  // shard's rings before blocking (see the topology comment).
  /// Stages one command header and counts it issued.
  void StageHeader(Shard& s, ShardCmd cmd);
  /// Stages one payload record.
  void StagePayload(Shard& s, PayloadRec rec);
  /// Stages a list op: its {key, length} head, then its values.
  void StageList(Shard& s, Key key, const std::vector<Value>& values);
  /// Publishes once cmd_batch commands are staged on `s`.
  void PublishIfBatchFull(Shard& s);
  /// Publishes the payload ring, then the command ring.
  void PublishShard(Shard& s) CHRONOS_REQUIRES(
      s.caller_side, s.ring.producer_role, s.payload.producer_role);

  /// Caller-side barrier: publishes every staged command, then blocks
  /// until every shard has executed everything issued.
  void WaitAll();
  /// Merge-sorts all buffered violations into the sink (caller thread,
  /// after WaitAll or after the workers joined).
  void EmitViolations();

  /// The whole state image, one IO per section: the ingress, the
  /// coordinator (shard count, stats, buffered violations, read masks),
  /// then per shard its stats, flip-flop stats, buffered violations and
  /// engine. Instantiated for StateWriter and StateReader behind
  /// WaitAll.
  template <typename IO>
  void TransferImage(IO& ingress, IO& coordinator, std::vector<IO>& shards);

  void WorkerLoop(Shard* shard, size_t index);
  /// Runs one command; a kTxn's records are in `scratch.records`.
  void ExecuteCmd(Shard* shard, const ShardCmd& cmd, WorkerScratch& scratch)
      CHRONOS_REQUIRES(shard->owner);

  Options options_;
  ViolationSink* sink_;
  size_t cmd_batch_;

  // --- caller-thread state ---
  CheckerStats coord_stats_;  // txns_processed, gc_passes
  // Admission-side and INT reports, in arrival order.
  std::vector<TaggedViolation> coord_violations_;
  // Which shards hold a registered transaction's external reads; the
  // finalize fan-out targets exactly these. Erased at finalize.
  std::unordered_map<TxnId, uint64_t> read_shard_mask_;
  // DispatchTxn scratch: shard -> index into `headers_` (-1 when the
  // arrival has not touched it), one header per touched shard, and each
  // op's shard in op order.
  std::vector<int32_t> slot_;
  std::vector<std::pair<size_t, ShardCmd>> headers_;
  std::vector<uint8_t> op_shard_;

  std::vector<std::unique_ptr<Shard>> shards_;

  TxnIngress ingress_;
};

}  // namespace chronos::online

#endif  // CHRONOS_ONLINE_SHARDED_AION_H_

#include "online/sharded_aion.h"

#include <algorithm>
#include <string>
#include <utility>

namespace chronos::online {
namespace {

// splitmix64 finalizer: keys are often small sequential integers, so mix
// before taking the remainder to spread hot ranges across shards.
uint64_t MixKey(Key key) {
  uint64_t x = key + 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Records a list op of `n` values takes: its head plus the values, two
// per record.
size_t ListRecords(size_t n) { return 1 + (n + 1) / 2; }

// Grows `v` to at least `n` elements; never shrinks, so the elements'
// own buffers keep their capacity too.
template <typename T>
void EnsureSize(std::vector<T>& v, size_t n) {
  if (v.size() < n) v.resize(n);
}

// Decodes a list op's values from the records after its head.
template <typename Rec>
void DecodeList(const Rec*& rec, std::vector<Value>& values) {
  const size_t n = static_cast<size_t>(rec->second);
  ++rec;
  values.resize(n);
  for (size_t i = 0; i < n; i += 2, ++rec) {
    values[i] = static_cast<Value>(rec->first);
    if (i + 1 < n) values[i + 1] = rec->second;
  }
}

template <typename IO>
void TransferStats(IO& io, CheckerStats& s) {
  io.U64(s.txns_processed);
  io.U64(s.ext_rechecks);
  io.U64(s.noconflict_checks);
  io.U64(s.spill_reloads);
  io.U64(s.unsafe_below_watermark);
  io.U64(s.unsafe_below_horizon);
  io.U64(s.corrupt_spill_epochs);
  io.U64(s.gc_passes);
}

template <typename IO, typename Tagged>
void TransferViolations(IO& io, std::vector<Tagged>& violations) {
  io.Seq(violations, /*order_ts .. divergence*/ 64, [&](auto& tv) {
    io.U64(tv.order_ts);
    io.U8(tv.v.type, ViolationType::kSession, ViolationType::kTsDuplicate);
    io.U64(tv.v.tid);
    io.U64(tv.v.other_tid);
    io.U64(tv.v.key);
    io.I64(tv.v.expected);
    io.I64(tv.v.got);
    io.I64(tv.v.divergence);
  });
}

}  // namespace

ShardedAion::ShardedAion(const Options& options, size_t num_shards,
                         ViolationSink* sink, size_t cmd_batch,
                         size_t queue_capacity)
    : options_(options),
      sink_(sink),
      cmd_batch_(cmd_batch == 0 ? 1 : cmd_batch),
      ingress_(options, &coord_stats_,
               [this](Timestamp order_ts, const Violation& v) {
                 coord_violations_.push_back({order_ts, v});
               },
               this) {
  const size_t n = std::min(std::max<size_t>(num_shards, 1), kMaxShards);
  const size_t ring_cap = queue_capacity == 0 ? 2 : queue_capacity;
  slot_.assign(n, -1);
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>(ring_cap);
    Shard* raw = shard.get();
    KeyEngine::Options eo;
    eo.mode = options_.mode;
    if (!options_.spill_dir.empty()) {
      eo.spill_dir = options_.spill_dir + "/shard" + std::to_string(i);
    }
    shard->engine = std::make_unique<KeyEngine>(
        eo, &shard->stats, &shard->flips,
        [raw](Timestamp order_ts, const Violation& v) {
          // Engine callbacks fire only on the shard's worker thread
          // (inside ExecuteCmd), which owns the violation buffer.
          AssumeRole own(raw->owner);
          raw->violations.push_back({order_ts, v});
        });
    shards_.push_back(std::move(shard));
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->worker =
        std::thread(&ShardedAion::WorkerLoop, this, shards_[i].get(), i);
  }
}

ShardedAion::~ShardedAion() {
  // Close publishes everything staged before it marks the ring closed,
  // and each worker drains its ring before exiting, so no command — and
  // no detected violation — is lost for a caller that skipped Finish().
  for (auto& shard : shards_) {
    // The destructor runs on the caller thread, the sole producer.
    AssumeRole payload_prod(shard->payload.producer_role);
    AssumeRole prod(shard->ring.producer_role);
    shard->payload.Close();
    shard->ring.Close();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  EmitViolations();  // no-op after a normal Finish()
}

size_t ShardedAion::ShardOf(Key key) const {
  return static_cast<size_t>(MixKey(key) % shards_.size());
}

// --- shard workers ----------------------------------------------------

void ShardedAion::WorkerLoop(Shard* shard, size_t index) {
  // This thread owns the shard's engine/stats/violations and is the
  // sole consumer of its two rings for the whole pipeline lifetime.
  AssumeRole own(shard->owner);
  AssumeRole cons(shard->ring.consumer_role);
  AssumeRole payload_cons(shard->payload.consumer_role);
  std::vector<ShardCmd> chunk;
  WorkerScratch scratch;
  while (shard->ring.PopBatch(&chunk, cmd_batch_)) {
    if (options_.stall_hook) options_.stall_hook(index);
    for (const ShardCmd& cmd : chunk) {
      EnsureSize(scratch.records, cmd.records);
      // The caller stages a header's records before it can close the
      // rings, so they all arrive.
      if (cmd.records != 0 &&
          !shard->payload.PopInto(scratch.records.data(), cmd.records)) {
        return;
      }
      ExecuteCmd(shard, cmd, scratch);
    }
    shard->versions.store(shard->engine->TotalVersions(),
                          std::memory_order_relaxed);
    shard->intervals.store(shard->engine->TotalIntervals(),
                           std::memory_order_relaxed);
    shard->approx_bytes.store(shard->engine->ApproxBytes(),
                              std::memory_order_relaxed);
    {
      MutexLock lock(shard->done_mu);
      shard->done += chunk.size();
    }
    shard->done_cv.NotifyAll();
  }
}

void ShardedAion::ExecuteCmd(Shard* shard, const ShardCmd& cmd,
                             WorkerScratch& scratch) {
  switch (cmd.kind) {
    case ShardCmd::Kind::kTxn: {
      const PayloadRec* rec = scratch.records.data();
      EnsureSize(scratch.reads, cmd.num_reads);
      for (uint32_t i = 0; i < cmd.num_reads; ++i, ++rec) {
        scratch.reads[i] = {rec->first, rec->second};
      }
      EnsureSize(scratch.writes, cmd.num_writes);
      for (uint32_t i = 0; i < cmd.num_writes; ++i, ++rec) {
        scratch.writes[i] = {rec->first, rec->second};
      }
      EnsureSize(scratch.list_reads, cmd.num_list_reads);
      for (uint32_t i = 0; i < cmd.num_list_reads; ++i) {
        scratch.list_reads[i].key = rec->first;
        DecodeList(rec, scratch.list_reads[i].observed);
      }
      EnsureSize(scratch.appends, cmd.num_appends);
      for (uint32_t i = 0; i < cmd.num_appends; ++i) {
        scratch.appends[i].key = rec->first;
        DecodeList(rec, scratch.appends[i].delta);
      }
      KeyEngine::OpsView view;
      view.reads = scratch.reads.data();
      view.num_reads = cmd.num_reads;
      view.writes = scratch.writes.data();
      view.num_writes = cmd.num_writes;
      view.list_reads = scratch.list_reads.data();
      view.num_list_reads = cmd.num_list_reads;
      view.appends = scratch.appends.data();
      view.num_appends = cmd.num_appends;
      shard->engine->ProcessTxn(cmd.ctx, view, cmd.register_reads,
                                cmd.now_ms);
      break;
    }
    case ShardCmd::Kind::kFinalize:
      shard->engine->FinalizeTxn(cmd.ctx.tid);
      break;
    case ShardCmd::Kind::kGc:
      shard->engine->CollectUpTo(cmd.gc_watermark);
      break;
  }
}

// --- caller side ------------------------------------------------------

// Every OnlineChecker call comes from one caller thread, which is the
// sole producer of every shard ring and owns its issue bookkeeping: each
// staging function below assumes the caller's three roles on the shard.

void ShardedAion::StageHeader(Shard& s, ShardCmd cmd) {
  AssumeRole caller(s.caller_side);
  AssumeRole prod(s.ring.producer_role);
  AssumeRole payload_prod(s.payload.producer_role);
  if (!s.ring.TryStage(cmd)) {
    // Full: the worker may be waiting on staged records of an earlier
    // command, so publish them before blocking.
    PublishShard(s);
    s.ring.Stage(std::move(cmd));
  }
  ++s.issued;
  ++s.staged;
}

void ShardedAion::StagePayload(Shard& s, PayloadRec rec) {
  AssumeRole caller(s.caller_side);
  AssumeRole prod(s.ring.producer_role);
  AssumeRole payload_prod(s.payload.producer_role);
  if (!s.payload.TryStage(rec)) {
    // Full: the worker drains only records whose header it sees.
    PublishShard(s);
    s.payload.Stage(std::move(rec));
  }
}

void ShardedAion::StageList(Shard& s, Key key,
                            const std::vector<Value>& values) {
  StagePayload(s, {key, static_cast<int64_t>(values.size())});
  for (size_t i = 0; i < values.size(); i += 2) {
    StagePayload(s, {static_cast<uint64_t>(values[i]),
                     i + 1 < values.size() ? values[i + 1] : 0});
  }
}

void ShardedAion::PublishIfBatchFull(Shard& s) {
  AssumeRole caller(s.caller_side);
  AssumeRole prod(s.ring.producer_role);
  AssumeRole payload_prod(s.payload.producer_role);
  if (s.staged >= cmd_batch_) PublishShard(s);
}

void ShardedAion::PublishShard(Shard& s) {
  s.payload.Publish();
  s.ring.Publish();
  s.staged = 0;
}

void ShardedAion::DispatchTxn(const KeyEngine::TxnCtx& ctx,
                              ClassifiedOps&& ops, bool register_reads,
                              uint64_t now_ms) {
  ShardCmd head;
  head.kind = ShardCmd::Kind::kTxn;
  head.register_reads = register_reads;
  head.ctx = ctx;
  head.now_ms = now_ms;
  const bool one_shard = shards_.size() == 1;
  headers_.clear();
  op_shard_.clear();
  if (one_shard) {
    // Always exactly one command, even for an empty footprint: the
    // monolith runs ProcessTxn for it too, and 1 shard must stay
    // byte-identical.
    headers_.emplace_back(0, head);
  }
  // Counting pass: each op's shard, assigned once, and one header per
  // touched shard, in first-touch order.
  auto header_for = [&](Key key) -> ShardCmd& {
    if (one_shard) return headers_[0].second;
    const size_t s = ShardOf(key);
    op_shard_.push_back(static_cast<uint8_t>(s));
    if (slot_[s] < 0) {
      slot_[s] = static_cast<int32_t>(headers_.size());
      headers_.emplace_back(s, head);
    }
    return headers_[static_cast<size_t>(slot_[s])].second;
  };
  for (const KeyEngine::ExtReadReq& r : ops.ext_reads) {
    ShardCmd& h = header_for(r.key);
    ++h.num_reads;
    ++h.records;
  }
  for (const KeyEngine::WriteReq& w : ops.writes) {
    ShardCmd& h = header_for(w.key);
    ++h.num_writes;
    ++h.records;
  }
  for (const KeyEngine::ListReadReq& r : ops.list_reads) {
    ShardCmd& h = header_for(r.key);
    ++h.num_list_reads;
    h.records += static_cast<uint32_t>(ListRecords(r.observed.size()));
  }
  for (const KeyEngine::AppendReq& a : ops.appends) {
    ShardCmd& h = header_for(a.key);
    ++h.num_appends;
    h.records += static_cast<uint32_t>(ListRecords(a.delta.size()));
  }
  // Headers first, then each op's records into its shard's payload ring.
  uint64_t read_mask = 0;
  for (const auto& [s, cmd] : headers_) {
    slot_[s] = -1;
    if (register_reads && (cmd.num_reads != 0 || cmd.num_list_reads != 0)) {
      read_mask |= 1ull << s;
    }
    StageHeader(*shards_[s], cmd);
  }
  size_t op = 0;
  auto shard_of_op = [&]() -> Shard& {
    return *shards_[one_shard ? 0 : op_shard_[op++]];
  };
  for (const KeyEngine::ExtReadReq& r : ops.ext_reads) {
    StagePayload(shard_of_op(), {r.key, r.observed});
  }
  for (const KeyEngine::WriteReq& w : ops.writes) {
    StagePayload(shard_of_op(), {w.key, w.value});
  }
  for (const KeyEngine::ListReadReq& r : ops.list_reads) {
    StageList(shard_of_op(), r.key, r.observed);
  }
  for (const KeyEngine::AppendReq& a : ops.appends) {
    StageList(shard_of_op(), a.key, a.delta);
  }
  for (const auto& touched : headers_) {
    PublishIfBatchFull(*shards_[touched.first]);
  }
  if (read_mask != 0) read_shard_mask_[ctx.tid] = read_mask;
}

void ShardedAion::DispatchFinalize(TxnId tid) {
  auto it = read_shard_mask_.find(tid);
  if (it == read_shard_mask_.end()) return;  // no reads anywhere
  uint64_t mask = it->second;
  read_shard_mask_.erase(it);
  for (size_t s = 0; mask != 0; ++s, mask >>= 1) {
    if (mask & 1) {
      ShardCmd cmd;
      cmd.kind = ShardCmd::Kind::kFinalize;
      cmd.ctx.tid = tid;
      StageHeader(*shards_[s], cmd);
      PublishIfBatchFull(*shards_[s]);
    }
  }
}

void ShardedAion::DispatchGc(Timestamp watermark) {
  for (auto& shard : shards_) {
    ShardCmd cmd;
    cmd.kind = ShardCmd::Kind::kGc;
    cmd.gc_watermark = watermark;
    StageHeader(*shard, cmd);
    PublishIfBatchFull(*shard);
  }
}

void ShardedAion::OnTransaction(const Transaction& t, uint64_t now_ms) {
  ingress_.OnTransaction(t, now_ms);
}

void ShardedAion::AdvanceTime(uint64_t now_ms) {
  ingress_.AdvanceTime(now_ms);
}

Timestamp ShardedAion::Gc(Timestamp up_to) { return ingress_.Gc(up_to); }

void ShardedAion::GcToLiveTarget(size_t target) {
  ingress_.GcToLiveTarget(target);
}

void ShardedAion::WaitAll() {
  for (auto& shard : shards_) {
    Shard& s = *shard;
    AssumeRole caller(s.caller_side);  // caller thread, as StageHeader
    AssumeRole prod(s.ring.producer_role);
    AssumeRole payload_prod(s.payload.producer_role);
    PublishShard(s);
  }
  for (auto& shard : shards_) {
    AssumeRole caller(shard->caller_side);
    MutexLock lock(shard->done_mu);
    while (shard->done < shard->issued) shard->done_cv.Wait(lock);
  }
}

void ShardedAion::Finish() {
  ingress_.Finish();
  WaitAll();
  EmitViolations();
}

void ShardedAion::EmitViolations() {
  // Caller thread, behind WaitAll (Finish) or after the workers joined
  // (destructor): that barrier/join edge hands each worker's buffer over
  // race-free, and no new work can arrive concurrently because all
  // OnlineChecker calls share one caller thread.
  std::vector<TaggedViolation> all = std::move(coord_violations_);
  coord_violations_.clear();
  for (auto& shard : shards_) {
    AssumeRole own(shard->owner);  // same barrier/join edge
    all.insert(all.end(), shard->violations.begin(), shard->violations.end());
    shard->violations.clear();
  }
  // Deterministic order regardless of shard count and thread timing:
  // (commit_ts of the attributed txn, txn id), then content.
  std::sort(all.begin(), all.end(),
            [](const TaggedViolation& a, const TaggedViolation& b) {
              if (a.order_ts != b.order_ts) return a.order_ts < b.order_ts;
              if (a.v.tid != b.v.tid) return a.v.tid < b.v.tid;
              return ViolationLess(a.v, b.v);
            });
  for (const TaggedViolation& tv : all) sink_->Report(tv.v);
}

template <typename IO>
void ShardedAion::TransferImage(IO& ingress, IO& coordinator,
                                std::vector<IO>& shards) {
  ingress_.Transfer(ingress);
  uint64_t num_shards = shards_.size();
  coordinator.U64(num_shards);
  if constexpr (IO::kReading) coordinator.Require(num_shards == shards_.size());
  TransferStats(coordinator, coord_stats_);
  TransferViolations(coordinator, coord_violations_);
  coordinator.Map(read_shard_mask_, /*tid, mask*/ 16, [&](auto& mask) {
    coordinator.U64(mask);
    // DispatchFinalize indexes shards_ by the mask's bits.
    if constexpr (IO::kReading) {
      coordinator.Require(shards_.size() >= 64 || (mask >> shards_.size()) == 0);
    }
  });
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    // Callers hold the WaitAll barrier: the shard workers are idle, so
    // the caller may touch their state (see EmitViolations).
    AssumeRole own(shard.owner);
    TransferStats(shards[s], shard.stats);
    shard.flips.Transfer(shards[s]);
    TransferViolations(shards[s], shard.violations);
    shard.engine->Transfer(shards[s]);
  }
}

ShardedAion::StateImage ShardedAion::ExportState() {
  WaitAll();
  StateWriter ingress, coordinator;
  std::vector<StateWriter> shards(shards_.size());
  TransferImage(ingress, coordinator, shards);
  StateImage img{ingress.Take(), coordinator.Take(), {}};
  for (StateWriter& w : shards) img.shards.push_back(w.Take());
  return img;
}

bool ShardedAion::ImportState(const StateImage& img) {
  if (img.shards.size() != shards_.size()) return false;
  WaitAll();
  StateReader ingress(img.ingress), coordinator(img.coordinator);
  std::vector<StateReader> shards(img.shards.begin(), img.shards.end());
  TransferImage(ingress, coordinator, shards);
  bool ok = ingress.ok() && ingress.AtEnd() && coordinator.ok() &&
            coordinator.AtEnd();
  for (const StateReader& r : shards) ok = ok && r.ok() && r.AtEnd();
  for (auto& shard : shards_) {
    AssumeRole own(shard->owner);  // barrier edge, as in TransferImage
    shard->versions.store(shard->engine->TotalVersions(),
                          std::memory_order_relaxed);
    shard->intervals.store(shard->engine->TotalIntervals(),
                           std::memory_order_relaxed);
    shard->approx_bytes.store(shard->engine->ApproxBytes(),
                              std::memory_order_relaxed);
  }
  return ok;
}

void ShardedAion::ShedMemory() {
  WaitAll();
  for (auto& shard : shards_) {
    AssumeRole own(shard->owner);  // barrier edge, as in ExportState
    shard->engine->TrimListsBelowHorizon();
    shard->approx_bytes.store(shard->engine->ApproxBytes(),
                              std::memory_order_relaxed);
  }
}

CheckerStats ShardedAion::stats() {
  WaitAll();
  CheckerStats merged = coord_stats_;
  for (auto& shard : shards_) {
    AssumeRole own(shard->owner);  // barrier edge, as in ExportState
    merged += shard->stats;
  }
  return merged;
}

FlipFlopStats ShardedAion::flip_stats() {
  WaitAll();
  FlipFlopStats merged;
  for (auto& shard : shards_) {
    AssumeRole own(shard->owner);  // barrier edge, as in ExportState
    merged.Merge(shard->flips);
  }
  return merged;
}

PipelineHealth ShardedAion::pipeline_health() {
  WaitAll();
  PipelineHealth h;
  for (auto& shard : shards_) {
    h.shard_rings.push_back(shard->ring.health());
    h.payload_rings.push_back(shard->payload.health());
  }
  return h;
}

CheckerFootprint ShardedAion::GetFootprint() const {
  CheckerFootprint f;
  f.live_txns = ingress_.live_txns();
  size_t engine_bytes = 0;
  for (const auto& shard : shards_) {
    f.versions += shard->versions.load(std::memory_order_relaxed);
    f.intervals += shard->intervals.load(std::memory_order_relaxed);
    engine_bytes += shard->approx_bytes.load(std::memory_order_relaxed);
  }
  f.approx_bytes = engine_bytes + f.live_txns * 160 + f.intervals * 64 +
                   ingress_.used_ts_count() * 48;
  return f;
}

CheckerFootprint ShardedAion::FootprintExact() {
  // After the barrier the per-shard mirrors reflect every issued
  // command, so the estimate is deterministic for a given event prefix.
  WaitAll();
  return GetFootprint();
}

}  // namespace chronos::online

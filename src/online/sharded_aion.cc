#include "online/sharded_aion.h"

#include <algorithm>
#include <string>
#include <utility>

namespace chronos::online {
namespace {

constexpr size_t kMaxShards = 64;  // finalize fan-out uses a 64-bit mask

// splitmix64 finalizer: keys are often small sequential integers, so mix
// before taking the remainder to spread hot ranges across shards.
uint64_t MixKey(Key key) {
  uint64_t x = key + 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

void WriteStats(StateWriter* w, const CheckerStats& s) {
  w->U64(s.txns_processed);
  w->U64(s.ext_rechecks);
  w->U64(s.noconflict_checks);
  w->U64(s.spill_reloads);
  w->U64(s.unsafe_below_watermark);
  w->U64(s.unsafe_below_horizon);
  w->U64(s.corrupt_spill_epochs);
  w->U64(s.gc_passes);
}

void ReadStats(StateReader* r, CheckerStats* s) {
  s->txns_processed = r->U64();
  s->ext_rechecks = r->U64();
  s->noconflict_checks = r->U64();
  s->spill_reloads = r->U64();
  s->unsafe_below_watermark = r->U64();
  s->unsafe_below_horizon = r->U64();
  s->corrupt_spill_epochs = r->U64();
  s->gc_passes = r->U64();
}

void WriteViolation(StateWriter* w, Timestamp order_ts, const Violation& v) {
  w->U64(order_ts);
  w->U8(static_cast<uint8_t>(v.type));
  w->U64(v.tid);
  w->U64(v.other_tid);
  w->U64(v.key);
  w->I64(v.expected);
  w->I64(v.got);
  w->I64(v.divergence);
}

Violation ReadViolation(StateReader* r, Timestamp* order_ts) {
  *order_ts = r->U64();
  Violation v;
  v.type = static_cast<ViolationType>(r->U8());
  v.tid = r->U64();
  v.other_tid = r->U64();
  v.key = r->U64();
  v.expected = r->I64();
  v.got = r->I64();
  v.divergence = r->I64();
  return v;
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
    AssumeRole prod(shard->ring.producer_role);
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
  // sole consumer of its command ring for the whole pipeline lifetime.
  AssumeRole own(shard->owner);
  AssumeRole cons(shard->ring.consumer_role);
  std::vector<ShardCmd> chunk;
  while (shard->ring.PopBatch(&chunk, cmd_batch_)) {
    if (options_.stall_hook) options_.stall_hook(index);
    for (ShardCmd& cmd : chunk) ExecuteCmd(shard, cmd);
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

void ShardedAion::ExecuteCmd(Shard* shard, ShardCmd& cmd) {
  switch (cmd.kind) {
    case ShardCmd::Kind::kTxn: {
      KeyEngine::OpsView view;
      view.reads = cmd.reads.data();
      view.num_reads = cmd.reads.size();
      view.writes = cmd.writes.data();
      view.num_writes = cmd.writes.size();
      view.list_reads = cmd.list_reads.data();
      view.num_list_reads = cmd.list_reads.size();
      view.appends = cmd.appends.data();
      view.num_appends = cmd.appends.size();
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

void ShardedAion::StageShard(size_t shard, ShardCmd&& cmd) {
  Shard& s = *shards_[shard];
  // Every OnlineChecker call comes from one caller thread, which is the
  // sole producer of every shard ring and owns its issue bookkeeping.
  AssumeRole caller(s.caller_side);
  AssumeRole prod(s.ring.producer_role);
  s.ring.Stage(std::move(cmd));
  ++s.issued;
  if (++s.staged >= cmd_batch_) {
    s.ring.Publish();
    s.staged = 0;
  }
}

void ShardedAion::DispatchTxn(const KeyEngine::TxnCtx& ctx,
                              ClassifiedOps&& ops, bool register_reads,
                              uint64_t now_ms) {
  ShardCmd head;
  head.kind = ShardCmd::Kind::kTxn;
  head.register_reads = register_reads;
  head.ctx = ctx;
  head.now_ms = now_ms;
  partition_.clear();
  if (shards_.size() == 1) {
    // Always exactly one command, even for an empty footprint: the
    // monolith runs ProcessTxn for it too, and 1 shard must stay
    // byte-identical.
    head.reads = std::move(ops.ext_reads);
    head.writes = std::move(ops.writes);
    head.list_reads = std::move(ops.list_reads);
    head.appends = std::move(ops.appends);
    partition_.emplace_back(0, std::move(head));
  } else {
    // One command per touched shard, in first-touch order.
    auto cmd_for = [&](Key key) -> ShardCmd& {
      const size_t s = ShardOf(key);
      if (slot_[s] < 0) {
        slot_[s] = static_cast<int32_t>(partition_.size());
        partition_.emplace_back(s, head);
      }
      return partition_[static_cast<size_t>(slot_[s])].second;
    };
    for (const KeyEngine::ExtReadReq& r : ops.ext_reads) {
      cmd_for(r.key).reads.push_back(r);
    }
    for (const KeyEngine::WriteReq& w : ops.writes) {
      cmd_for(w.key).writes.push_back(w);
    }
    for (KeyEngine::ListReadReq& r : ops.list_reads) {
      cmd_for(r.key).list_reads.push_back(std::move(r));
    }
    for (KeyEngine::AppendReq& a : ops.appends) {
      cmd_for(a.key).appends.push_back(std::move(a));
    }
  }
  uint64_t read_mask = 0;
  for (auto& [s, cmd] : partition_) {
    slot_[s] = -1;
    if (register_reads && (!cmd.reads.empty() || !cmd.list_reads.empty())) {
      read_mask |= 1ull << s;
    }
    StageShard(s, std::move(cmd));
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
      StageShard(s, std::move(cmd));
    }
  }
}

void ShardedAion::DispatchGc(Timestamp watermark) {
  for (size_t s = 0; s < shards_.size(); ++s) {
    ShardCmd cmd;
    cmd.kind = ShardCmd::Kind::kGc;
    cmd.gc_watermark = watermark;
    StageShard(s, std::move(cmd));
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
    AssumeRole caller(shard->caller_side);  // caller thread, as StageShard
    AssumeRole prod(shard->ring.producer_role);
    if (shard->staged != 0) {
      shard->ring.Publish();
      shard->staged = 0;
    }
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

ShardedAion::StateImage ShardedAion::ExportState() {
  WaitAll();
  // Behind the barrier the shard workers are idle, so the caller may read
  // their state (see EmitViolations for the full argument).
  StateImage img;
  {
    StateWriter w;
    ingress_.Serialize(&w);
    img.ingress = w.Take();
  }
  {
    StateWriter w;
    w.U64(shards_.size());
    WriteStats(&w, coord_stats_);
    w.U64(coord_violations_.size());
    for (const TaggedViolation& tv : coord_violations_) {
      WriteViolation(&w, tv.order_ts, tv.v);
    }
    std::vector<std::pair<TxnId, uint64_t>> masks(read_shard_mask_.begin(),
                                                  read_shard_mask_.end());
    std::sort(masks.begin(), masks.end());
    w.U64(masks.size());
    for (const auto& [tid, mask] : masks) {
      w.U64(tid);
      w.U64(mask);
    }
    img.coordinator = w.Take();
  }
  img.shards.reserve(shards_.size());
  for (auto& shard : shards_) {
    AssumeRole own(shard->owner);  // barrier edge, as above
    StateWriter w;
    WriteStats(&w, shard->stats);
    shard->flips.Serialize(&w);
    w.U64(shard->violations.size());
    for (const TaggedViolation& tv : shard->violations) {
      WriteViolation(&w, tv.order_ts, tv.v);
    }
    shard->engine->Serialize(&w);
    img.shards.push_back(w.Take());
  }
  return img;
}

bool ShardedAion::ImportState(const StateImage& img) {
  if (img.shards.size() != shards_.size()) return false;
  WaitAll();  // behind the barrier, as in ExportState
  {
    StateReader r(img.ingress);
    if (!ingress_.Deserialize(&r) || !r.AtEnd()) return false;
  }
  {
    StateReader r(img.coordinator);
    if (r.U64() != shards_.size()) return false;
    ReadStats(&r, &coord_stats_);
    coord_violations_.clear();
    uint64_t nv = r.U64();
    for (uint64_t i = 0; i < nv && r.ok(); ++i) {
      Timestamp order_ts;
      Violation v = ReadViolation(&r, &order_ts);
      coord_violations_.push_back({order_ts, v});
    }
    read_shard_mask_.clear();
    uint64_t nm = r.U64();
    for (uint64_t i = 0; i < nm && r.ok(); ++i) {
      TxnId tid = r.U64();
      uint64_t mask = r.U64();
      read_shard_mask_[tid] = mask;
    }
    if (!r.ok() || !r.AtEnd()) return false;
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    AssumeRole own(shard.owner);  // barrier edge, as above
    StateReader r(img.shards[s]);
    ReadStats(&r, &shard.stats);
    if (!shard.flips.Deserialize(&r)) return false;
    shard.violations.clear();
    uint64_t nv = r.U64();
    for (uint64_t i = 0; i < nv && r.ok(); ++i) {
      Timestamp order_ts;
      Violation v = ReadViolation(&r, &order_ts);
      shard.violations.push_back({order_ts, v});
    }
    if (!shard.engine->Deserialize(&r) || !r.AtEnd()) return false;
    shard.versions.store(shard.engine->TotalVersions(),
                         std::memory_order_relaxed);
    shard.intervals.store(shard.engine->TotalIntervals(),
                          std::memory_order_relaxed);
    shard.approx_bytes.store(shard.engine->ApproxBytes(),
                             std::memory_order_relaxed);
  }
  return true;
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
  h.shard_rings.reserve(shards_.size());
  for (auto& shard : shards_) h.shard_rings.push_back(shard->ring.health());
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

#include "online/recovery.h"

#include <filesystem>
#include <limits>
#include <utility>

#include "online/checkpoint.h"

namespace chronos::online {

RecoverResult Recover(const CheckerOptions& options, const std::string& dir,
                      ViolationSink* sink, size_t default_shards,
                      size_t cmd_batch, size_t queue_capacity) {
  RecoverResult res;

  // Newest checkpoint first; a corrupt or torn file (or one whose state
  // fails to import) falls back to its predecessor. Keep-2 retention
  // (CheckpointManager::kKeep) guarantees a predecessor exists unless the
  // run never checkpointed twice — and WAL-only replay covers even that.
  auto ckpts = CheckpointManager::List(dir);
  uint64_t replay_from_seq = 0;
  for (size_t i = ckpts.size(); i-- > 0;) {
    CheckpointManager::Loaded loaded;
    if (!CheckpointManager::Load(ckpts[i].second, &loaded)) {
      res.used_fallback = true;
      continue;
    }
    auto checker = std::make_unique<ShardedAion>(
        options, loaded.num_shards, sink, cmd_batch, queue_capacity);
    if (!checker->ImportState(loaded.img)) {
      res.used_fallback = true;
      continue;
    }
    res.checker = std::move(checker);
    res.ckpt_seq = loaded.ckpt_seq;
    res.from_checkpoint = true;
    res.next_seq = loaded.wal_seq + 1;
    res.events = loaded.events;
    replay_from_seq = loaded.wal_seq;
    break;
  }
  if (!res.checker) {
    res.checker = std::make_unique<ShardedAion>(options, default_shards, sink,
                                                cmd_batch, queue_capacity);
  }

  // Replay every record past the checkpoint's cut as it is read,
  // reproducing the crashed driver's exact step sequence (arrivals with
  // their original clocks, GC decisions, shed decisions — all inside the
  // same record).
  auto replay = [&](const WalRecord& rec) {
    if (rec.seq <= replay_from_seq) return;
    res.checker->OnTransaction(rec.txn, rec.now_ms);
    ++res.events;
    if (rec.gc) res.checker->GcToLiveTarget(rec.gc_target);
    if (rec.shed) {
      res.checker->Gc(std::numeric_limits<Timestamp>::max());
      res.checker->ShedMemory();
    }
    res.next_seq = rec.seq + 1;
  };
  const std::string wal_path = dir + "/wal.log";
  std::error_code ec;
  if (std::filesystem::exists(wal_path, ec) &&
      !ReadWal(wal_path, replay, &res.wal_truncate_to)) {
    res.checker.reset();
    res.error = "wal.log unreadable or header corrupt";
    return res;
  }
  return res;
}

}  // namespace chronos::online

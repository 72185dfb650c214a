// Planted violation: a second producer on a shard command ring.
// DispatchGc() stages straight into the ring instead of going through
// StageShard(), the only function in the ring.Stage allowlist, so it is
// the exact "second ring producer" bug the rule exists to catch. The
// surrounding allowlisted functions are rule-clean.
#include "online/sharded_aion.h"

namespace chronos::online {

void ShardedAion::StageShard(size_t shard, ShardCmd&& cmd) {
  Shard& s = *shards_[shard];
  s.ring.Stage(std::move(cmd));
  if (++s.staged >= cmd_batch_) {
    s.ring.Publish();
    s.staged = 0;
  }
}

void ShardedAion::DispatchGc(Timestamp watermark) {
  for (auto& shard : shards_) {
    ShardCmd cmd;
    cmd.kind = ShardCmd::Kind::kGc;
    cmd.gc_watermark = watermark;
    shard->ring.Stage(std::move(cmd));
  }
}

}  // namespace chronos::online

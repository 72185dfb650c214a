// Planted violation: a second producer on a shard command ring.
// DispatchGc() stages straight into the ring instead of going through
// StageHeader(), the only function in the ring.Stage allowlist, so it is
// the exact "second ring producer" bug the rule exists to catch. The
// surrounding allowlisted functions are rule-clean.
#include "online/sharded_aion.h"

namespace chronos::online {

void ShardedAion::StageHeader(Shard& s, ShardCmd cmd) {
  if (!s.ring.TryStage(cmd)) {
    PublishShard(s);
    s.ring.Stage(std::move(cmd));
  }
  ++s.staged;
}

void ShardedAion::PublishShard(Shard& s) {
  s.payload.Publish();
  s.ring.Publish();
  s.staged = 0;
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

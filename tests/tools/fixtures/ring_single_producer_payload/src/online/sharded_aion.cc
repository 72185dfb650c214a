// Planted violation: a second producer on a shard payload ring.
// StageList() stages a list op's values straight into the payload ring
// instead of going through StagePayload(), the only function in the
// payload.Stage allowlist. The surrounding allowlisted functions are
// rule-clean, and so is the worker's pop.
#include "online/sharded_aion.h"

namespace chronos::online {

void ShardedAion::StagePayload(Shard& s, PayloadRec rec) {
  if (!s.payload.TryStage(rec)) {
    PublishShard(s);
    s.payload.Stage(std::move(rec));
  }
}

void ShardedAion::StageList(Shard& s, Key key,
                            const std::vector<Value>& values) {
  StagePayload(s, {key, static_cast<int64_t>(values.size())});
  for (size_t i = 0; i < values.size(); i += 2) {
    s.payload.Stage({static_cast<uint64_t>(values[i]), 0});
  }
}

void ShardedAion::WorkerLoop(Shard* shard, size_t index) {
  std::vector<ShardCmd> chunk;
  std::vector<PayloadRec> records(1);
  while (shard->ring.PopBatch(&chunk, cmd_batch_)) {
    shard->payload.PopInto(records.data(), 1);
  }
}

}  // namespace chronos::online

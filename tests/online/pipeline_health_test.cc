// Pins the lifecycle semantics of ShardedAion::pipeline_health():
// counters are carried when the same instance keeps running after
// Finish() (Finish is a finalize barrier, not a shutdown), and start
// from zero in a fresh instance restored from a checkpoint image
// (ring plumbing counters are runtime telemetry, not checker state, so
// ExportState/ImportState deliberately does not carry them).
#include <gtest/gtest.h>

#include "core/online_checker.h"
#include "core/violation.h"
#include "online/metrics.h"
#include "online/sharded_aion.h"

#include "../testutil.h"

namespace chronos::online {
namespace {

using chronos::testing::HistoryBuilder;

History MakeHistory(TxnId first_tid, Timestamp first_ts, size_t n) {
  HistoryBuilder b;
  for (size_t i = 0; i < n; ++i) {
    TxnId tid = first_tid + i;
    Timestamp ts = first_ts + 2 * i;
    b.Txn(tid, static_cast<SessionId>(tid), 0, ts, ts + 1)
        .W(static_cast<Key>(i % 3), static_cast<Value>(tid));
  }
  return b.Build();
}

CheckerOptions Opts() {
  CheckerOptions o;
  o.ext_timeout_ms = 1ull << 30;
  return o;
}

// Commands published into the shard rings so far, over all shards.
uint64_t Published(const PipelineHealth& ph) {
  uint64_t n = 0;
  for (const RingHealth& r : ph.shard_rings) n += r.published;
  return n;
}

TEST(PipelineHealthTest, SnapshotShapeMatchesTopology) {
  VectorSink sink;
  ShardedAion sh(Opts(), 4, &sink);
  History h = MakeHistory(1, 1, 6);
  uint64_t now = 1;
  for (const Transaction& t : h.txns) sh.OnTransaction(t, now++);
  sh.Finish();
  PipelineHealth ph = sh.pipeline_health();
  EXPECT_EQ(ph.shard_rings.size(), 4u);
  EXPECT_TRUE(ph.pre_stage_in.empty());
  EXPECT_TRUE(ph.pre_stage_out.empty());
  EXPECT_GT(Published(ph), 0u);
}

// Finish() finalizes the stream but the instance stays usable; feeding
// more arrivals afterwards keeps accumulating into the same counters —
// they are carried, never reset, for the life of the instance.
TEST(PipelineHealthTest, CountersCarryAcrossFinishThenRestart) {
  VectorSink sink;
  ShardedAion sh(Opts(), 2, &sink);
  uint64_t now = 1;
  for (const Transaction& t : MakeHistory(1, 1, 5).txns) {
    sh.OnTransaction(t, now++);
  }
  sh.Finish();
  PipelineHealth before = sh.pipeline_health();
  EXPECT_GT(Published(before), 0u);

  // Restart the stream on the same instance (fresh tids/timestamps).
  for (const Transaction& t : MakeHistory(100, 100, 5).txns) {
    sh.OnTransaction(t, now++);
  }
  sh.Finish();
  PipelineHealth after = sh.pipeline_health();
  EXPECT_GT(Published(after), Published(before));
  uint64_t hwm_before = 0, hwm_after = 0;
  for (const RingHealth& r : before.shard_rings) hwm_before += r.depth_hwm;
  for (const RingHealth& r : after.shard_rings) hwm_after += r.depth_hwm;
  EXPECT_GE(hwm_after, hwm_before);
}

// A checkpoint image restores checker state, not plumbing telemetry:
// the restored instance's counters restart at zero, while the donor's
// keep their full history. Both finish with identical verdicts.
TEST(PipelineHealthTest, CountersResetAcrossCheckpointRestore) {
  VectorSink sink_a;
  ShardedAion a(Opts(), 2, &sink_a);
  uint64_t now = 1;
  for (const Transaction& t : MakeHistory(1, 1, 8).txns) {
    a.OnTransaction(t, now++);
  }
  PipelineHealth donor = a.pipeline_health();
  EXPECT_GT(Published(donor), 0u);
  ShardedAion::StateImage img = a.ExportState();

  VectorSink sink_b;
  ShardedAion b(Opts(), 2, &sink_b);
  ASSERT_TRUE(b.ImportState(img));
  PipelineHealth restored = b.pipeline_health();
  EXPECT_LT(Published(restored), Published(donor))
      << "telemetry must not be carried by the state image";

  // The restored checker is still a working pipeline: finish the same
  // tail on both and the emissions agree.
  for (const Transaction& t : MakeHistory(100, 100, 3).txns) {
    a.OnTransaction(t, now);
    b.OnTransaction(t, now);
    ++now;
  }
  a.Finish();
  b.Finish();
  EXPECT_EQ(sink_a.Snapshot(), sink_b.Snapshot());
  EXPECT_EQ(a.stats(), b.stats());
}

}  // namespace
}  // namespace chronos::online

// Online pipeline: collector delivery schedule, throughput meter, the
// GC policy decision, and the max-rate driver under the GC policies.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "../testutil.h"
#include "core/aion.h"
#include "core/chronos.h"
#include "hist/codec.h"
#include "hist/collector.h"
#include "online/metrics.h"
#include "online/pipeline.h"
#include "workload/generator.h"

namespace chronos::online {
namespace {

TEST(CollectorTest, ZeroStddevDelaysEveryTxnByExactlyTheMean) {
  workload::WorkloadParams p;
  p.sessions = 8;
  p.txns = 1200;  // three batches
  p.ops_per_txn = 4;
  p.keys = 50;
  History h = workload::GenerateDefaultHistory(p);
  hist::CollectorParams cp;
  cp.delay_mean_ms = 7;
  cp.delay_stddev_ms = 0;
  auto stream = hist::ScheduleDelivery(h, cp);
  ASSERT_EQ(stream.size(), h.txns.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    const uint64_t batch_time = (i / cp.batch_size) * cp.batch_interval_ms;
    EXPECT_EQ(stream[i].deliver_at_ms, batch_time + 7) << "txn " << i;
    if (i > 0) {
      EXPECT_LE(stream[i - 1].txn.commit_ts, stream[i].txn.commit_ts)
          << "delivery must follow commit order";
    }
  }
}

/// Counts footprint reads; every other checker call is a no-op.
class FootprintProbe : public OnlineChecker {
 public:
  void OnTransaction(const Transaction&, uint64_t) override {}
  void AdvanceTime(uint64_t) override {}
  Timestamp Gc(Timestamp up_to) override { return up_to; }
  void GcToLiveTarget(size_t) override {}
  void Finish() override {}
  CheckerFootprint GetFootprint() const override {
    ++reads;
    CheckerFootprint f;
    f.live_txns = live;
    return f;
  }
  size_t live = 0;
  mutable int reads = 0;
};

TEST(GcPolicyTest, DueFollowsCadenceAndLiveTrigger) {
  FootprintProbe c;
  c.live = 100;
  EXPECT_FALSE(GcPolicy::None().Due(1024, c));
  const GcPolicy every = GcPolicy::Every(8, 3);
  EXPECT_TRUE(every.Due(16, c));
  EXPECT_FALSE(every.Due(17, c));
  EXPECT_EQ(c.reads, 0) << "a fixed cadence never reads the footprint";

  const GcPolicy threshold = GcPolicy::Threshold(100, 50);
  EXPECT_FALSE(threshold.Due(1023, c));
  EXPECT_TRUE(threshold.Due(1024, c));
  c.live = 99;
  EXPECT_FALSE(threshold.Due(2048, c));

  const GcPolicy cap = GcPolicy::HardCap(64);
  EXPECT_EQ(cap.every, 64u);
  EXPECT_EQ(cap.target_live, 60u);
}

TEST(ThroughputMeterTest, BucketsBySecond) {
  ThroughputMeter meter(1000);
  meter.Record(100, 5);
  meter.Record(900, 5);
  meter.Record(1500, 3);
  ASSERT_EQ(meter.counts().size(), 2u);
  EXPECT_DOUBLE_EQ(meter.Tps(0), 10.0);
  EXPECT_DOUBLE_EQ(meter.Tps(1), 3.0);
}

TEST(MetricsTest, RssIsReadable) {
  EXPECT_GT(ReadRssBytes(), 1u << 20) << "process RSS should exceed 1 MiB";
}

class PipelineTest : public ::testing::Test {
 protected:
  std::vector<hist::CollectedTxn> MakeStream(uint64_t txns,
                                             double stddev = 0) {
    workload::WorkloadParams p;
    p.sessions = 8;
    p.txns = txns;
    p.ops_per_txn = 6;
    p.keys = 100;
    History h = workload::GenerateDefaultHistory(p);
    hist::CollectorParams cp;
    cp.delay_mean_ms = stddev > 0 ? 50 : 0;
    cp.delay_stddev_ms = stddev;
    return hist::ScheduleDelivery(h, cp);
  }
};

TEST_F(PipelineTest, MaxRateProcessesWholeStreamWithoutViolations) {
  auto stream = MakeStream(3000);
  CountingSink sink;
  Aion::Options opt;
  opt.ext_timeout_ms = 100;
  Aion checker(opt, &sink);
  RunResult r = RunMaxRate(&checker, stream, GcPolicy::None(), 500);
  EXPECT_EQ(r.txns, 3000u);
  EXPECT_EQ(sink.total(), 0u)
      << (sink.first().empty() ? "" : sink.first()[0].ToString());
  EXPECT_FALSE(r.samples.empty());
}

TEST_F(PipelineTest, ThresholdGcBoundsLiveTxns) {
  auto stream = MakeStream(5000);
  CountingSink sink;
  Aion::Options opt;
  opt.ext_timeout_ms = 20;  // virtual ms: finalizes quickly
  Aion checker(opt, &sink);
  RunResult r = RunMaxRate(&checker, stream, GcPolicy::Threshold(1500, 500),
                           250);
  EXPECT_EQ(sink.total(), 0u);
  size_t max_live = 0;
  for (const auto& s : r.samples) max_live = std::max(max_live, s.live_txns);
  EXPECT_LT(max_live, 5000u) << "GC must have reclaimed records";
  EXPECT_GT(checker.stats().gc_passes, 0u);
}

TEST_F(PipelineTest, DelayedStreamStillChecksClean) {
  auto stream = MakeStream(3000, 30);
  CountingSink sink;
  Aion::Options opt;
  opt.ext_timeout_ms = 10000;  // above max delay: no premature verdicts
  Aion checker(opt, &sink);
  RunMaxRate(&checker, stream, GcPolicy::None());
  EXPECT_EQ(sink.total(), 0u)
      << (sink.first().empty() ? "" : sink.first()[0].ToString());
}

TEST_F(PipelineTest, FlipFlopsAppearUnderDelays) {
  auto stream = MakeStream(4000, 30);
  CountingSink sink;
  Aion::Options opt;
  opt.ext_timeout_ms = 10000;
  Aion checker(opt, &sink);
  RunMaxRate(&checker, stream, GcPolicy::None());
  EXPECT_GT(checker.flip_stats().total_flips(), 0u)
      << "out-of-order arrivals should cause transient EXT flips";
}

TEST_F(PipelineTest, SampleEveryZeroNeverSamples) {
  auto stream = MakeStream(3000);
  CountingSink sink;
  Aion checker(Aion::Options{}, &sink);
  RunResult r = RunMaxRate(&checker, stream, GcPolicy::None(), 0);
  EXPECT_EQ(r.txns, 3000u);
  EXPECT_TRUE(r.samples.empty());
}

TEST_F(PipelineTest, StreamedFileRunsLikeTheCollectedStream) {
  workload::WorkloadParams p;
  p.sessions = 8;
  p.txns = 4000;
  p.ops_per_txn = 6;
  p.keys = 100;
  const std::string path =
      chronos::testing::UniqueTempDir("pipeline") + "/h.hist";
  ASSERT_TRUE(hist::SaveHistory(workload::GenerateDefaultHistory(p), path).ok);
  History h;
  ASSERT_TRUE(hist::LoadHistory(path, &h).ok);
  hist::CollectorParams cp;
  cp.delay_mean_ms = 50;
  cp.delay_stddev_ms = 30;
  Aion::Options opt;
  opt.ext_timeout_ms = 40;
  const GcPolicy gc = GcPolicy::Every(300, 200);

  CountingSink held_sink;
  Aion held(opt, &held_sink);
  const RunResult a =
      RunMaxRate(&held, hist::ScheduleDelivery(std::move(h), cp), gc, 1000);

  CountingSink streamed_sink;
  Aion streamed(opt, &streamed_sink);
  hist::DeliveryStream stream(path, cp);
  hist::CollectedTxn ct;
  const RunResult b = RunMaxRate(
      &streamed,
      [&stream, &ct]() -> const hist::CollectedTxn* {
        return stream.Next(&ct) ? &ct : nullptr;
      },
      gc, 1000);
  ASSERT_TRUE(stream.status().ok) << stream.status().message;

  EXPECT_EQ(b.txns, a.txns);
  EXPECT_EQ(b.samples.size(), a.samples.size());
  EXPECT_EQ(streamed_sink.total(), held_sink.total());
  EXPECT_EQ(streamed.flip_stats().total_flips(),
            held.flip_stats().total_flips());
  EXPECT_EQ(streamed.stats().gc_passes, held.stats().gc_passes);
  EXPECT_EQ(streamed.stats().ext_rechecks, held.stats().ext_rechecks);
  EXPECT_GT(held.stats().gc_passes, 0u);
}

}  // namespace
}  // namespace chronos::online

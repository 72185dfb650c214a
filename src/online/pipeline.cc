#include "online/pipeline.h"

#include <chrono>

#include "core/aion.h"
#include "online/sharded_aion.h"

namespace chronos::online {

RunResult RunMaxRate(OnlineChecker* checker, const ArrivalSource& next,
                     const GcPolicy& gc, uint64_t sample_every) {
  RunResult result;
  ThroughputMeter meter(1000);
  const auto start = std::chrono::steady_clock::now();
  auto wall_ms = [&start] {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  };

  uint64_t done = 0;
  while (const hist::CollectedTxn* ct = next()) {
    checker->OnTransaction(ct->txn, ct->deliver_at_ms);
    ++done;
    meter.Record(wall_ms());
    if (gc.Due(done, *checker)) checker->GcToLiveTarget(gc.target_live);
    if (sample_every != 0 && done % sample_every == 0) {
      result.samples.push_back({static_cast<double>(wall_ms()) / 1000.0,
                                done, ReadRssBytes(),
                                checker->GetFootprint().live_txns});
    }
  }

  checker->Finish();
  result.txns = done;
  result.wall_seconds = static_cast<double>(wall_ms()) / 1000.0;
  for (size_t i = 0; i < meter.counts().size(); ++i) {
    result.tps_per_window.push_back(meter.Tps(i));
  }
  return result;
}

RunResult RunMaxRate(OnlineChecker* checker,
                     const std::vector<hist::CollectedTxn>& stream,
                     const GcPolicy& gc, uint64_t sample_every) {
  size_t i = 0;
  return RunMaxRate(
      checker,
      [&stream, &i]() -> const hist::CollectedTxn* {
        return i < stream.size() ? &stream[i++] : nullptr;
      },
      gc, sample_every);
}

std::unique_ptr<OnlineChecker> MakeChecker(const CheckerOptions& options,
                                           size_t shards,
                                           ViolationSink* sink) {
  if (shards <= 1) return std::make_unique<Aion>(options, sink);
  return std::make_unique<ShardedAion>(options, shards, sink);
}

}  // namespace chronos::online

#include "hist/collector.h"

#include <algorithm>
#include <optional>
#include <random>
#include <unordered_map>
#include <utility>

namespace chronos::hist {

std::vector<CollectedTxn> ScheduleDelivery(History history,
                                           const CollectorParams& params) {
  // CDC emission order: commit timestamp order.
  std::vector<uint32_t> order(history.txns.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return history.txns[a].commit_ts < history.txns[b].commit_ts;
  });

  // N(mean, 0) is not a valid distribution (libstdc++ asserts stddev >
  // 0), so a zero deviation delays every transaction by exactly the mean.
  std::mt19937_64 rng(params.seed);
  std::optional<std::normal_distribution<double>> delay;
  if (params.delay_stddev_ms > 0) {
    delay.emplace(params.delay_mean_ms, params.delay_stddev_ms);
  }

  std::vector<CollectedTxn> out;
  out.reserve(order.size());
  std::unordered_map<SessionId, uint64_t> session_floor;

  for (size_t i = 0; i < order.size(); ++i) {
    Transaction& t = history.txns[order[i]];
    uint64_t batch_time =
        (i / params.batch_size) * params.batch_interval_ms;
    double d = std::max(0.0, delay ? (*delay)(rng) : params.delay_mean_ms);
    uint64_t at = batch_time + static_cast<uint64_t>(d);
    // Preserve session order: never deliver before the session's previous
    // transaction.
    uint64_t& floor = session_floor[t.sid];
    at = std::max(at, floor);
    floor = at;
    out.push_back({std::move(t), at});
  }

  std::stable_sort(out.begin(), out.end(),
                   [](const CollectedTxn& a, const CollectedTxn& b) {
                     return a.deliver_at_ms < b.deliver_at_ms;
                   });
  return out;
}

}  // namespace chronos::hist

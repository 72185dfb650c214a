// The history collector of the online workflow (paper Fig. 3): committed
// transactions are dispatched to the checker in batches (500 per batch in
// the paper), and asynchrony is modelled by per-transaction delivery
// delays drawn from N(mu, sigma^2) (paper Sec. VI-C). Session order is
// preserved at delivery, which AION assumes (Sec. III-C1).
#ifndef CHRONOS_HIST_COLLECTOR_H_
#define CHRONOS_HIST_COLLECTOR_H_

#include <cstdint>
#include <vector>

#include "core/types.h"

namespace chronos::hist {

/// Delay / batching parameters.
struct CollectorParams {
  uint32_t batch_size = 500;       ///< transactions per dispatched batch
  uint64_t batch_interval_ms = 40; ///< time between batch dispatches
  double delay_mean_ms = 0;        ///< mu of the per-txn delay
  double delay_stddev_ms = 0;      ///< sigma of the per-txn delay
  uint64_t seed = 99;
};

/// A transaction with its delivery time on the checker's (virtual) clock.
struct CollectedTxn {
  Transaction txn;
  uint64_t deliver_at_ms = 0;
};

/// Computes the delivery schedule for `history` (transactions taken in
/// commit-timestamp order, as a CDC stream would emit them): batch k is
/// dispatched at k * batch_interval_ms and each transaction adds its own
/// normal delay. Delivery times are clamped so that each session's
/// transactions arrive in session order; the result is sorted by delivery
/// time (stable for ties). Each transaction is moved into the stream:
/// pass `std::move(h)` when `h` is not needed afterwards, an lvalue to
/// keep it (its transactions are then copied).
std::vector<CollectedTxn> ScheduleDelivery(History history,
                                           const CollectorParams& params);

}  // namespace chronos::hist

#endif  // CHRONOS_HIST_COLLECTOR_H_

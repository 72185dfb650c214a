// The history collector of the online workflow (paper Fig. 3): committed
// transactions are dispatched to the checker in batches (500 per batch in
// the paper), and asynchrony is modelled by per-transaction delivery
// delays drawn from N(mu, sigma^2) (paper Sec. VI-C). Session order is
// preserved at delivery, which AION assumes (Sec. III-C1).
//
// DeliveryStream is the collector as a pull stream: it reads a history
// file one block at a time (hist::HistoryReader) and releases arrivals
// through two bounded reorder buffers, so an online run holds the live
// window of the input, never the whole file:
//
//   - Commit-order buffer. A pre-pass over the file's T lines measures
//     D, the largest backward commit_ts jump in file order. No later
//     transaction commits below (largest commit_ts read) - D, so a
//     buffered one leaves in (commit_ts, file index) order once its
//     commit_ts is at or below that bound.
//   - Delivery buffer. Batch k dispatches at k * batch_interval_ms and
//     no delay is negative, so no later transaction arrives before the
//     dispatch time of the batch being read: a buffered arrival leaves in
//     (deliver_at_ms, commit index) order once it is at or below it.
//
// Both orders are the stable sorts the in-memory schedule used, so the
// stream is the same arrival sequence. An input that cannot seek (a pipe)
// cannot be pre-scanned: its D is unbounded and it is buffered whole.
// ScheduleDelivery drains a stream built over an in-memory history.
#ifndef CHRONOS_HIST_COLLECTOR_H_
#define CHRONOS_HIST_COLLECTOR_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/types.h"
#include "hist/codec.h"

namespace chronos::hist {

/// Delay / batching parameters.
struct CollectorParams {
  uint32_t batch_size = 500;       ///< transactions per batch (0 acts as 1)
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

/// The delivery schedule as a pull stream (see the file comment): the
/// transactions in commit-timestamp order, as a CDC stream emits them;
/// batch k dispatched at k * batch_interval_ms; each transaction adding
/// its own normal delay, clamped so that each session's transactions
/// arrive in session order; released in delivery-time order (commit
/// order for ties).
class DeliveryStream {
 public:
  /// The commit-order window of an input that could not be pre-scanned.
  static constexpr Timestamp kUnboundedLag =
      std::numeric_limits<Timestamp>::max();

  /// Streams the history file at `path`. An unreadable file or a bad
  /// header fails here: check status().
  DeliveryStream(const std::string& path, const CollectorParams& params);

  /// Streams an in-memory history, moving each transaction out of it.
  DeliveryStream(History history, const CollectorParams& params);

  /// Overwrites `*out` with the next arrival; the transaction `*out` held
  /// goes back to the stream, which reads a later one into its op vector.
  /// False at the end of the input and at the first malformed line:
  /// status() tells which.
  bool Next(CollectedTxn* out);

  const CodecStatus& status() const { return status_; }
  /// D, the commit-order buffer's window in ts units.
  Timestamp commit_lag() const { return lag_; }
  /// Transactions read but not yet released, across both buffers.
  size_t buffered() const { return commit_order_.size() + delivery_.size(); }

 private:
  // A buffered transaction: it stays in slots_[slot] from the read to
  // its release, and only this reference moves through the two heaps.
  struct Entry {
    uint64_t key = 0;    // commit_ts, then deliver_at_ms
    uint64_t index = 0;  // file index, then commit index
    uint32_t slot = 0;
  };
  using Heap = std::vector<Entry>;  // a min-heap on (key, index)
  /// The heap order for the std heap algorithms.
  static bool Later(const Entry& a, const Entry& b);

  void Init(const CollectorParams& params);
  bool Pull(Transaction* t);  // the next transaction in file order
  void Schedule(uint32_t slot);  // assigns deliver_at, into delivery_
  uint64_t DispatchTime(uint64_t commit_index) const;

  CollectorParams params_;
  CodecStatus status_;
  // Source: a file reader, or an in-memory history.
  std::optional<HistoryReader> reader_;
  History history_;
  size_t history_pos_ = 0;
  bool source_done_ = false;

  Timestamp lag_ = kUnboundedLag;
  Timestamp max_seen_ = 0;
  uint64_t read_ = 0;        // transactions pulled from the source
  Heap commit_order_;
  Timestamp released_ts_ = 0;  // commit_ts of the last commit-order release

  std::mt19937_64 rng_;
  std::optional<std::normal_distribution<double>> delay_;
  std::unordered_map<SessionId, uint64_t> session_floor_;
  uint64_t scheduled_ = 0;   // commit indices assigned
  Heap delivery_;

  std::vector<Transaction> slots_;
  std::vector<uint32_t> free_slots_;
};

/// Drains a DeliveryStream over `history`. Each transaction is moved into
/// the result: pass `std::move(h)` when `h` is not needed afterwards, an
/// lvalue to keep it (its transactions are then copied).
std::vector<CollectedTxn> ScheduleDelivery(History history,
                                           const CollectorParams& params);

}  // namespace chronos::hist

#endif  // CHRONOS_HIST_COLLECTOR_H_

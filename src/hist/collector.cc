#include "hist/collector.h"

#include <algorithm>
#include <utility>

namespace chronos::hist {

DeliveryStream::DeliveryStream(const std::string& path,
                               const CollectorParams& params) {
  Init(params);
  reader_.emplace();
  status_ = reader_->Open(path);
  if (!status_.ok) return;
  // A pipe can be read only once: it is not pre-scanned, and its lag
  // stays unbounded.
  CommitLag meter;
  if (reader_->ScanHeaders([&meter](const Transaction& t, size_t) {
        meter.Add(t.commit_ts);
        return false;
      })) {
    lag_ = meter.lag;
  }
  status_ = reader_->status();
}

DeliveryStream::DeliveryStream(History history, const CollectorParams& params)
    : history_(std::move(history)) {
  Init(params);
  CommitLag meter;
  for (const Transaction& t : history_.txns) meter.Add(t.commit_ts);
  lag_ = meter.lag;
}

void DeliveryStream::Init(const CollectorParams& params) {
  params_ = params;
  rng_.seed(params.seed);
  // N(mean, 0) is not a valid distribution (libstdc++ asserts stddev >
  // 0), so a zero deviation delays every transaction by exactly the mean.
  if (params.delay_stddev_ms > 0) {
    delay_.emplace(params.delay_mean_ms, params.delay_stddev_ms);
  }
}

bool DeliveryStream::Later(const Entry& a, const Entry& b) {
  return a.key != b.key ? a.key > b.key : a.index > b.index;
}

uint64_t DeliveryStream::DispatchTime(uint64_t commit_index) const {
  return commit_index / std::max<uint32_t>(params_.batch_size, 1) *
         params_.batch_interval_ms;
}

bool DeliveryStream::Pull(Transaction* t) {
  if (reader_) {
    if (reader_->Next(t)) return true;
    status_ = reader_->status();
    return false;
  }
  if (history_pos_ == history_.txns.size()) return false;
  *t = std::move(history_.txns[history_pos_++]);
  return true;
}

void DeliveryStream::Schedule(uint32_t slot) {
  const double d =
      std::max(0.0, delay_ ? (*delay_)(rng_) : params_.delay_mean_ms);
  uint64_t at = DispatchTime(scheduled_) + static_cast<uint64_t>(d);
  // Preserve session order: never deliver before the session's previous
  // transaction.
  uint64_t& floor = session_floor_[slots_[slot].sid];
  at = std::max(at, floor);
  floor = at;
  delivery_.push_back({at, scheduled_++, slot});
  std::push_heap(delivery_.begin(), delivery_.end(), Later);
}

bool DeliveryStream::Next(CollectedTxn* out) {
  while (status_.ok) {
    const bool more = !source_done_ || !commit_order_.empty();
    if (!delivery_.empty() &&
        (!more || delivery_.front().key <= DispatchTime(scheduled_))) {
      std::pop_heap(delivery_.begin(), delivery_.end(), Later);
      const Entry e = delivery_.back();
      delivery_.pop_back();
      // The slot takes the caller's previous transaction, so its op
      // vector's capacity serves the next read.
      std::swap(out->txn, slots_[e.slot]);
      out->deliver_at_ms = e.key;
      free_slots_.push_back(e.slot);
      return true;
    }
    if (!commit_order_.empty() &&
        (source_done_ || (max_seen_ >= lag_ &&
                          commit_order_.front().key <= max_seen_ - lag_))) {
      std::pop_heap(commit_order_.begin(), commit_order_.end(), Later);
      const Entry e = commit_order_.back();
      commit_order_.pop_back();
      if (e.key < released_ts_) {
        // Only a file rewritten between the pre-pass and this read
        // can get here; its order would be wrong, so stop.
        status_ = CodecStatus::Error(
            "input changed while streaming: commit_ts " +
            std::to_string(e.key) + " after " + std::to_string(released_ts_));
        return false;
      }
      released_ts_ = e.key;
      Schedule(e.slot);
      continue;
    }
    if (source_done_) return false;
    if (free_slots_.empty()) {
      free_slots_.push_back(static_cast<uint32_t>(slots_.size()));
      slots_.emplace_back();
    }
    const uint32_t slot = free_slots_.back();
    Transaction& t = slots_[slot];
    if (!Pull(&t)) {
      source_done_ = true;
      continue;
    }
    free_slots_.pop_back();
    max_seen_ = std::max(max_seen_, t.commit_ts);
    commit_order_.push_back({t.commit_ts, read_++, slot});
    std::push_heap(commit_order_.begin(), commit_order_.end(), Later);
  }
  return false;
}

std::vector<CollectedTxn> ScheduleDelivery(History history,
                                           const CollectorParams& params) {
  std::vector<CollectedTxn> out;
  out.reserve(history.txns.size());
  DeliveryStream stream(std::move(history), params);
  CollectedTxn ct;
  while (stream.Next(&ct)) out.push_back(std::move(ct));
  return out;
}

}  // namespace chronos::hist

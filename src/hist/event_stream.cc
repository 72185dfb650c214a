#include "hist/event_stream.h"

#include <algorithm>
#include <limits>

namespace chronos::hist {

EventStream::EventStream(const std::string& path) {
  status_ = reader_.Open(path);
}

CodecStatus EventStream::Load(History* out) {
  status_ = reader_.ReadAll(out);
  return status_;
}

bool EventStream::PrePass(WellFormednessPrePass* pre, CheckStats* stats) {
  if (!status_.ok) return false;
  level_ = pre->level();
  CommitLag lag;
  Timestamp span = 0;
  const bool scanned = reader_.ScanHeaders(
      [&](const Transaction& t, size_t nops) {
        if (tagged_ || t.iso != IsolationLevel::kUnspecified) {
          tagged_ = true;
          return false;
        }
        ++stats->txns;
        stats->ops += nops;
        lag.Add(t.commit_ts);
        if (!pre->Check(t)) return true;  // its ops: the INT-only check
        span = std::max(span, t.commit_ts - ReadView(t, level_));
        return false;
      },
      [pre](const Transaction& t) { pre->IntOnly(t); });
  status_ = scanned ? reader_.status()
                    : CodecStatus::Error("cannot pre-scan an input that "
                                         "cannot seek");
  if (!status_.ok || tagged_) return false;
  lag_ = lag.lag;
  span_ = span;
  constexpr Timestamp kMax = std::numeric_limits<Timestamp>::max();
  window_ = lag_ > kMax - span_ ? kMax : lag_ + span_;
  return true;
}

bool EventStream::Later(const Entry& a, const Entry& b) {
  if (a.ts != b.ts) return a.ts > b.ts;
  if (a.kind != b.kind) return a.kind > b.kind;
  return a.index > b.index;
}

bool EventStream::Releasable() const {
  return source_done_ ||
         (max_seen_ >= window_ && heap_.front().ts < max_seen_ - window_);
}

void EventStream::Read() {
  if (free_slots_.empty()) {
    free_slots_.push_back(static_cast<uint32_t>(slots_.size()));
    slots_.emplace_back();
  }
  const uint32_t slot = free_slots_.back();
  Transaction& t = slots_[slot];
  if (!reader_.Next(&t)) {
    source_done_ = true;
    status_ = reader_.status();
    return;
  }
  const uint64_t index = read_++;
  max_seen_ = std::max(max_seen_, t.commit_ts);
  // The pre-pass reported an Eq. (1)-invalid block; its slot stays free.
  if (!Replayed(t, level_)) return;
  free_slots_.pop_back();
  heap_.push_back({ReadView(t, level_), EventKind::kStart, index, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later);
  heap_.push_back({t.commit_ts, EventKind::kCommit, index, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later);
  max_held_ = std::max(max_held_, slots_.size() - free_slots_.size());
}

bool EventStream::Next(EventKind* kind, Transaction** t) {
  if (slot_done_) {
    free_slots_.push_back(released_.slot);
    slot_done_ = false;
  }
  while (status_.ok) {
    if (!heap_.empty() && Releasable()) {
      std::pop_heap(heap_.begin(), heap_.end(), Later);
      const Entry e = heap_.back();
      heap_.pop_back();
      if (any_released_ && Later(released_, e)) {
        // Pass 1's D and L no longer bound this file: it changed after
        // pass 1 read it, and the replay order would be wrong.
        status_ = CodecStatus::Error(
            "input changed while streaming: an event at ts " +
            std::to_string(e.ts) + " after one at ts " +
            std::to_string(released_.ts));
        return false;
      }
      released_ = e;
      any_released_ = true;
      slot_done_ = e.kind == EventKind::kCommit;
      *kind = e.kind;
      *t = &slots_[e.slot];
      return true;
    }
    if (source_done_) return false;
    Read();
  }
  return false;
}

}  // namespace chronos::hist

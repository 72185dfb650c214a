// The sorted start/commit event sequence that Chronos replays (Algorithm 2
// line 2). Aion keeps no timeline: it processes each arrival against
// per-key timestamp-versioned state (core/key_engine.h).
#ifndef CHRONOS_CORE_EVENT_TIMELINE_H_
#define CHRONOS_CORE_EVENT_TIMELINE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/online_checker.h"
#include "core/types.h"

namespace chronos {

/// False for a transaction that breaks Eq. (1) at run level `level`,
/// which the pre-pass reports and the replay skips. A start event
/// replays at the read view (ReadView), so under SER none does.
inline bool Replayed(const Transaction& t, IsolationLevel level) {
  return ReadView(t, level) <= t.commit_ts;
}

/// Kind of a timeline event. Start events sort before commit events at
/// equal timestamps so that a read-only transaction with
/// start_ts == commit_ts is processed start-first.
enum class EventKind : uint8_t { kStart = 0, kCommit = 1 };

/// One replay event.
struct Event {
  Timestamp ts = 0;
  EventKind kind = EventKind::kStart;
  uint32_t txn_index = 0;  ///< index into the history's txns vector

  friend bool operator<(const Event& a, const Event& b) {
    if (a.ts != b.ts) return a.ts < b.ts;
    if (a.kind != b.kind) return a.kind < b.kind;
    return a.txn_index < b.txn_index;
  }
};

/// Builds the fully sorted event vector for an offline history.
inline std::vector<Event> BuildSortedEvents(const History& h,
                                            IsolationLevel level) {
  std::vector<Event> events;
  events.reserve(h.txns.size() * 2);
  for (uint32_t i = 0; i < h.txns.size(); ++i) {
    const Transaction& t = h.txns[i];
    if (!Replayed(t, level)) continue;  // reported separately
    events.push_back({ReadView(t, level), EventKind::kStart, i});
    events.push_back({t.commit_ts, EventKind::kCommit, i});
  }
  std::sort(events.begin(), events.end());
  return events;
}

}  // namespace chronos

#endif  // CHRONOS_CORE_EVENT_TIMELINE_H_

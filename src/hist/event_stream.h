// CHRONOS's replay streamed from a history file (core/chronos.h
// ReplaySource), in two passes over the file, so an offline check holds
// a window of events rather than the history:
//
//   - Pass 1 reads only the T lines (HistoryReader::ScanHeaders), plus
//     the op lines of an Eq. (1)-invalid block, which its INT-only check
//     needs. It runs the well-formedness pre-pass in file order and
//     measures D, the largest backward commit_ts jump (hist::CommitLag),
//     and L, the largest commit_ts - start_ts of an Eq. (1)-valid
//     transaction (0 under SER, where a start replays at its commit_ts:
//     ReadView, core/online_checker.h).
//   - Pass 2 reads the blocks one at a time (HistoryReader::Next) and
//     pushes each valid transaction's start and commit events into a
//     heap keyed on (ts, kind, file index). No later block commits below
//     (largest commit_ts read) - D, and none starts more than L before
//     its commit, so an event leaves once its ts is below M - D - L, M
//     being the largest commit_ts read; everything leaves at the end of
//     the input. That is BuildSortedEvents' order.
//
// A transaction stays in one slot from its read to its commit event, so
// it keeps its ops until the replay has applied them at that event (the
// ReplaySource contract); the slot, with its op vector's capacity, then
// takes the next block.
// An input that cannot seek (a pipe) cannot be pre-scanned: Load reads
// it whole for an in-memory check. A history with iso= tags is checked
// in memory too (NeedsMixedLevelCheck picks the checker): pass 1 stops
// reporting at the first tag and the check stops (tagged()); Load then
// reads the history from its first block.
#ifndef CHRONOS_HIST_EVENT_STREAM_H_
#define CHRONOS_HIST_EVENT_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/chronos.h"
#include "core/types.h"
#include "hist/codec.h"

namespace chronos::hist {

/// A history file as Chronos's replay source (see the file comment).
class EventStream : public ReplaySource {
 public:
  /// Opens `path` and reads its header: check status().
  explicit EventStream(const std::string& path);

  /// False for an input that cannot seek: check it from Load instead.
  bool seekable() const { return reader_.seekable(); }

  /// Reads every block not yet read into `*out`: before a check, or after
  /// one that stopped at an iso= tag, the whole history.
  CodecStatus Load(History* out);

  bool PrePass(WellFormednessPrePass* pre, CheckStats* stats) override;
  bool Next(EventKind* kind, Transaction** t) override;

  /// The reader's status, or the error that stopped the stream.
  const CodecStatus& status() const { return status_; }
  /// True once pass 1 met an iso= tag; the check stopped there.
  bool tagged() const { return tagged_; }
  /// D and L as pass 1 measured them, in ts units.
  Timestamp commit_lag() const { return lag_; }
  Timestamp txn_span() const { return span_; }
  /// The most transactions pass 2 held at once.
  size_t max_held() const { return max_held_; }

 private:
  // An event in the heap: its transaction stays in slots_[slot].
  struct Entry {
    Timestamp ts = 0;
    EventKind kind = EventKind::kStart;
    uint64_t index = 0;  // file index
    uint32_t slot = 0;
  };
  /// The min-heap order on (ts, kind, index) for the std heap algorithms.
  static bool Later(const Entry& a, const Entry& b);

  // True when the heap's first event can leave.
  bool Releasable() const;
  // Reads the next block into a slot and its events into the heap.
  void Read();

  HistoryReader reader_;
  CodecStatus status_;
  bool tagged_ = false;
  IsolationLevel level_ = IsolationLevel::kSi;  // the pre-pass's
  Timestamp lag_ = 0;
  Timestamp span_ = 0;
  Timestamp window_ = 0;  // D + L, saturating

  bool source_done_ = false;
  uint64_t read_ = 0;      // blocks read in pass 2
  Timestamp max_seen_ = 0;  // M
  std::vector<Entry> heap_;
  Entry released_;  // the last event handed out
  bool any_released_ = false;
  bool slot_done_ = false;  // released_ is a commit: recycle its slot

  std::vector<Transaction> slots_;
  std::vector<uint32_t> free_slots_;
  size_t max_held_ = 0;
};

}  // namespace chronos::hist

#endif  // CHRONOS_HIST_EVENT_STREAM_H_

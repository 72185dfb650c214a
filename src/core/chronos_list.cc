#include "core/chronos_list.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "core/event_timeline.h"
#include "core/list_replay.h"
#include "core/session_order.h"
#include "core/small_map.h"

namespace chronos {
namespace {

// Per-transaction replay state: the shared list classification plus the
// full append delta per key (what the commit event applies).
struct ListTxnState {
  SmallMap<Key, ListAccess> access;
  SmallMap<Key, std::vector<Value>> appends;
  std::vector<Key> wkey;  // appended keys, first-append order
};

// INT is frontier-independent, so it is checked even for transactions
// whose timestamps are malformed (mirrors CheckIntOnly for registers).
void CheckListIntOnly(const Transaction& t, ViolationSink* sink,
                      CountingSink* counted) {
  SmallMap<Key, ListAccess> access;
  for (const Op& op : t.ops) {
    if (op.type == OpType::kAppend) {
      access.FindOrInsert(op.key)->own.push_back(op.value);
    } else if (op.type == OpType::kReadList) {
      if (op.list_index >= t.list_args.size()) continue;
      ListAccess* st = access.FindOrInsert(op.key);
      ListReadOutcome oc = ClassifyListRead(st, t.list_args[op.list_index]);
      if (oc.kind == ListReadOutcome::Kind::kIntMismatch) {
        sink->Report({ViolationType::kInt, t.tid, kTxnNone, op.key,
                      static_cast<Value>(oc.expected_len),
                      static_cast<Value>(oc.got_len), oc.divergence});
        counted->Report({ViolationType::kInt, t.tid});
      }
    }
  }
}

}  // namespace

CheckStats ChronosList::Check(History&& history) {
  CheckStats stats;
  stats.txns = history.txns.size();
  stats.ops = history.NumOps();
  CountingSink counted(0);

  // ---- Pre-pass: Eq. (1) and duplicate-timestamp well-formedness
  // (shared with the register Chronos, core/session_order.h). ----
  Stopwatch sw;
  std::unordered_map<SessionId, SessionState> sessions;
  WellFormednessPrePass(sink_, &counted, &sessions,
                        [&](const Transaction& t) {
                          CheckListIntOnly(t, sink_, &counted);
                        })
      .CheckAll(history);
  std::vector<Event> events = BuildSortedEvents(history);
  stats.sort_seconds = sw.Seconds();
  sw.Reset();

  // The frontier of a list key is its committed cumulative append
  // sequence. Replay processes commit events in timestamp order, so the
  // frontier only ever grows at the tail — the offline mirror of the
  // online materialized-prefix chain (core/list_kv.h), and of what the
  // database itself does (MvccStore::ApplyAppend merges by commit ts).
  std::unordered_map<Key, std::vector<Value>> frontier;
  std::unordered_map<Key, std::vector<TxnId>> ongoing;
  std::unordered_map<TxnId, ListTxnState> live;

  for (const Event& ev : events) {
    Transaction& t = history.txns[ev.txn_index];
    if (ev.kind == EventKind::kStart) {
      // SESSION (same contiguity-with-skips rule as register Chronos).
      SessionState& ss = sessions[t.sid];
      AdvanceOverSkipped(&ss);
      if (static_cast<int64_t>(t.sno) != ss.last_sno + 1 ||
          t.start_ts < ss.last_cts) {
        sink_->Report({ViolationType::kSession, t.tid, kTxnNone, 0,
                       static_cast<Value>(ss.last_sno + 1),
                       static_cast<Value>(t.sno)});
        counted.Report({ViolationType::kSession, t.tid});
      }
      ss.last_sno = static_cast<int64_t>(t.sno);
      ss.last_cts = t.commit_ts;

      ListTxnState& st = live[t.tid];
      for (const Op& op : t.ops) {
        if (op.type == OpType::kAppend) {
          st.access.FindOrInsert(op.key)->own.push_back(op.value);
          std::vector<Value>* pending = st.appends.Find(op.key);
          if (!pending) {
            pending = st.appends.FindOrInsert(op.key);
            st.wkey.push_back(op.key);
          }
          pending->push_back(op.value);
          auto& og = ongoing[op.key];
          if (std::find(og.begin(), og.end(), t.tid) == og.end()) {
            og.push_back(t.tid);
          }
        } else if (op.type == OpType::kReadList) {
          if (op.list_index >= t.list_args.size()) continue;
          const std::vector<Value>& observed = t.list_args[op.list_index];
          ListReadOutcome oc =
              ClassifyListRead(st.access.FindOrInsert(op.key), observed);
          if (oc.kind == ListReadOutcome::Kind::kIntMismatch) {
            sink_->Report({ViolationType::kInt, t.tid, kTxnNone, op.key,
                           static_cast<Value>(oc.expected_len),
                           static_cast<Value>(oc.got_len), oc.divergence});
            counted.Report({ViolationType::kInt, t.tid});
          } else if (oc.kind == ListReadOutcome::Kind::kResolvedBase) {
            // EXT: the resolved base must equal the committed cumulative
            // sequence at this transaction's snapshot. All ops replay at
            // the start event, so the frontier *is* the snapshot.
            const std::vector<Value>& snap = frontier[op.key];
            int64_t div = FirstListDivergence(snap, oc.resolved);
            if (div >= 0) {
              sink_->Report({ViolationType::kExt, t.tid, kTxnNone, op.key,
                             static_cast<Value>(snap.size()),
                             static_cast<Value>(oc.resolved.size()), div});
              counted.Report({ViolationType::kExt, t.tid});
            }
          }
        }
      }
    } else {
      auto lit = live.find(t.tid);
      if (lit == live.end()) continue;
      ListTxnState& st = lit->second;
      for (Key k : st.wkey) {
        auto& og = ongoing[k];
        og.erase(std::remove(og.begin(), og.end(), t.tid), og.end());
        for (TxnId other : og) {
          sink_->Report({ViolationType::kNoConflict, t.tid, other, k});
          counted.Report({ViolationType::kNoConflict, t.tid});
        }
        const std::vector<Value>& appends = *st.appends.Find(k);
        std::vector<Value>& f = frontier[k];
        f.insert(f.end(), appends.begin(), appends.end());
      }
      live.erase(lit);
      t.ops.clear();
      t.ops.shrink_to_fit();
      t.list_args.clear();
      t.list_args.shrink_to_fit();
    }
  }

  stats.check_seconds = sw.Seconds();
  stats.violations = counted.total();
  return stats;
}

CheckStats ChronosList::CheckHistory(const History& history,
                                     ViolationSink* sink) {
  ChronosList checker(sink);
  History copy = history;
  return checker.Check(std::move(copy));
}

}  // namespace chronos

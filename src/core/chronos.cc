#include "core/chronos.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/event_timeline.h"
#include "core/list_replay.h"
#include "core/session_order.h"
#include "core/small_map.h"
#include "core/txn_ingress.h"

namespace chronos {
namespace {

// What INT compares against while one transaction replays (int_val[tid]
// and each list's expected state). Owned by the check and cleared per
// transaction, so it keeps its capacity.
struct OpScratch {
  SmallMap<Key, Value> int_val;     // last value read or written per key
  SmallMap<Key, ListAccess> lists;  // list reads (core/list_replay.h)
};

// The replay's state of one key: what a snapshot reads (a register's
// last committed value, a list's committed cumulative append sequence)
// and, under SI, the ongoing transactions that write or append it, which
// NOCONFLICT checks at their commit events. Commit events replay in
// timestamp order, so a list only grows at the tail (the offline mirror
// of the online materialized-prefix chain, core/list_kv.h).
struct KeyState {
  Value reg = kValueInit;
  std::vector<Value> list;
  std::vector<TxnId> writers;
};
using KeyTable = std::unordered_map<Key, KeyState>;

// Reports `v` and counts it, so CheckStats.violations stays equal to the
// sink total.
void Emit(const Violation& v, ViolationSink* sink, CountingSink* counted) {
  sink->Report(v);
  counted->Report(v);
}

// A list mismatch: list lengths plus the first divergent element index.
Violation ListViolation(ViolationType type, TxnId tid, Key key,
                        int64_t expected_len, int64_t got_len,
                        int64_t divergence) {
  return {type, tid, kTxnNone, key, static_cast<Value>(expected_len),
          static_cast<Value>(got_len), divergence};
}

// Replays `t`'s ops at its start event (Algorithm 2 lines 11-22): INT
// against the transaction's own earlier ops, EXT against the committed
// state in `keys`. All ops replay at the start event, so the table *is*
// the snapshot, and what INT compares against (`scratch`) is only needed
// here. With `join`, `t` becomes an ongoing writer of each key it writes
// or appends, once per key. A null `keys` checks INT only, which depends
// on program order alone: that is how transactions with malformed
// timestamps are still checked.
void ReplayOps(const Transaction& t, KeyTable* keys, bool join,
               OpScratch* scratch, ViolationSink* sink,
               CountingSink* counted) {
  SmallMap<Key, Value>& int_val = scratch->int_val;
  SmallMap<Key, ListAccess>& lists = scratch->lists;
  int_val.Clear();
  int_val.Reserve(t.ops.size());
  lists.Clear();
  auto note_write = [&](Key k) {
    if (!keys || !join) return;
    std::vector<TxnId>& w = (*keys)[k].writers;
    if (std::find(w.begin(), w.end(), t.tid) == w.end()) w.push_back(t.tid);
  };
  for (const Op& op : t.ops) {
    switch (op.type) {
      case OpType::kRead:
        if (const Value* iv = int_val.Find(op.key)) {
          if (*iv != op.value) {
            Emit({ViolationType::kInt, t.tid, kTxnNone, op.key, *iv,
                  op.value},
                 sink, counted);
          }
        } else if (keys) {
          auto kit = keys->find(op.key);
          Value expect = kit == keys->end() ? kValueInit : kit->second.reg;
          if (op.value != expect) {
            Emit({ViolationType::kExt, t.tid, kTxnNone, op.key, expect,
                  op.value},
                 sink, counted);
          }
        }
        int_val.Put(op.key, op.value);
        break;
      case OpType::kWrite:
        note_write(op.key);
        int_val.Put(op.key, op.value);
        break;
      case OpType::kAppend:
        note_write(op.key);
        lists.FindOrInsert(op.key)->own.push_back(op.value);
        break;
      case OpType::kReadList: {
        if (op.list_index >= t.list_args.size()) break;
        ListReadOutcome oc = ClassifyListRead(lists.FindOrInsert(op.key),
                                              t.list_args[op.list_index]);
        if (oc.kind == ListReadOutcome::Kind::kIntMismatch) {
          Emit(ListViolation(ViolationType::kInt, t.tid, op.key,
                             oc.expected_len, oc.got_len, oc.divergence),
               sink, counted);
        } else if (oc.kind == ListReadOutcome::Kind::kResolvedBase && keys) {
          // The resolved base must be the key's committed sequence.
          const std::vector<Value>& snap = (*keys)[op.key].list;
          const int64_t div = FirstListDivergence(snap, oc.resolved);
          if (div >= 0) {
            Emit(ListViolation(ViolationType::kExt, t.tid, op.key,
                               static_cast<int64_t>(snap.size()),
                               static_cast<int64_t>(oc.resolved.size()), div),
                 sink, counted);
          }
        }
        break;
      }
    }
  }
}

// An in-memory history as a replay source: the pre-pass walks the
// vector, then one sort of every event (Algorithm 2 line 2). Operation
// storage stays until a GC pass releases it.
class HistorySource : public ReplaySource {
 public:
  explicit HistorySource(History* history) : history_(*history) {}

  bool PrePass(WellFormednessPrePass* pre, CheckStats* stats) override {
    stats->txns = history_.txns.size();
    stats->ops = history_.NumOps();
    pre->CheckAll(history_);
    events_ = BuildSortedEvents(history_, pre->level());
    return true;
  }

  bool Next(EventKind* kind, Transaction** t) override {
    if (pos_ == events_.size()) return false;
    const Event& ev = events_[pos_++];
    if (ev.kind == EventKind::kCommit) committed_.push_back(ev.txn_index);
    *kind = ev.kind;
    *t = &history_.txns[ev.txn_index];
    return true;
  }

  // Sheds container slack too, so memory actually returns to the OS
  // allocator (Fig. 10's sawtooth).
  void ReleaseCommitted() override {
    for (uint32_t idx : committed_) {
      Transaction& done = history_.txns[idx];
      done.ops.clear();
      done.ops.shrink_to_fit();
      done.list_args.clear();
      done.list_args.shrink_to_fit();
    }
    committed_.clear();
    committed_.shrink_to_fit();
  }

 private:
  History& history_;
  std::vector<Event> events_;
  size_t pos_ = 0;
  std::vector<uint32_t> committed_;  // since the last ReleaseCommitted
};

}  // namespace

Chronos::Chronos(const ChronosOptions& options, ViolationSink* sink)
    : options_(options), sink_(sink) {}

CheckStats Chronos::Check(History&& history) {
  HistorySource source(&history);
  return Check(&source);
}

CheckStats Chronos::Check(ReplaySource* source) {
  CheckStats stats;
  CountingSink counted(0);

  // ---- Pre-pass: Eq. (1) and duplicate-timestamp well-formedness, then
  // the sorting stage (Algorithm 2 line 2) where the source sorts. ----
  Stopwatch sw;
  OpScratch scratch;
  std::unordered_map<SessionId, SessionState> sessions;
  WellFormednessPrePass pre(options_.mode, sink_, &counted, &sessions,
                            [&](const Transaction& t) {
                              ReplayOps(t, nullptr, false, &scratch, sink_,
                                        &counted);
                            });
  if (!source->PrePass(&pre, &stats)) {
    stats.violations = counted.total();
    return stats;
  }
  stats.sort_seconds = sw.Seconds();
  sw.Reset();

  // ---- Checking stage: simulate in timestamp order. ----
  // Appends are writers like writes: NOCONFLICT is per key, whatever the
  // data type. SER has no NOCONFLICT, so no transaction joins a key's
  // writers there.
  const bool noconflict = options_.mode == IsolationLevel::kSi;
  KeyTable keys;
  auto report = [&](const Violation& v) { Emit(v, sink_, &counted); };

  uint64_t commits_since_gc = 0;
  double gc_seconds = 0;

  EventKind kind;
  Transaction* next = nullptr;
  while (source->Next(&kind, &next)) {
    const Transaction& t = *next;
    if (kind == EventKind::kStart) {
      // SESSION (Algorithm 2 lines 7-10).
      SessionState& ss = sessions[t.sid];
      AdvanceOverSkipped(&ss);
      if (static_cast<int64_t>(t.sno) != ss.last_sno + 1 ||
          ReadView(t, options_.mode) < ss.last_cts) {
        report({ViolationType::kSession, t.tid, kTxnNone, 0,
                static_cast<Value>(ss.last_sno + 1),
                static_cast<Value>(t.sno)});
      }
      ss.last_sno = static_cast<int64_t>(t.sno);
      ss.last_cts = t.commit_ts;

      // INT and EXT per operation (lines 11-22).
      ReplayOps(t, &keys, noconflict, &scratch, sink_, &counted);
      // The lists it read, most of a list history's bytes, are not read
      // again: the commit event needs only the ops.
      next->list_args.clear();
    } else {
      // Commit event: NOCONFLICT and the committed state (lines 23-33),
      // from the ops the source still holds. A key's first write or
      // append leaves its writers and reports those left; its last write
      // is the value a later snapshot reads.
      for (const Op& op : t.ops) {
        if (op.type != OpType::kWrite && op.type != OpType::kAppend) continue;
        KeyState& ks = keys[op.key];
        auto self = std::find(ks.writers.begin(), ks.writers.end(), t.tid);
        if (self != ks.writers.end()) {
          ks.writers.erase(self);
          for (TxnId other : ks.writers) {
            report({ViolationType::kNoConflict, t.tid, other, op.key});
          }
        }
        if (op.type == OpType::kWrite) {
          ks.reg = op.value;
        } else {
          ks.list.push_back(op.value);
        }
      }

      if (options_.gc_every_n_txns > 0 &&
          ++commits_since_gc >= options_.gc_every_n_txns) {
        Stopwatch gc_sw;
        commits_since_gc = 0;
        ++stats.gc_passes;
        // Release operation storage of processed transactions (T <- T\{T}).
        source->ReleaseCommitted();
#if defined(__GLIBC__)
        if (options_.trim_on_gc) malloc_trim(0);
#endif
        gc_seconds += gc_sw.Seconds();
      }
    }
  }

  stats.check_seconds = sw.Seconds() - gc_seconds;
  stats.gc_seconds = gc_seconds;
  stats.violations = counted.total();
  return stats;
}

CheckStats Chronos::CheckHistory(const History& history, ViolationSink* sink,
                                  IsolationLevel level) {
  ChronosOptions options;
  options.mode = level;
  Chronos checker(options, sink);
  History copy = history;
  return checker.Check(std::move(copy));
}

CheckStats ChronosMixed::Check(History&& history) {
  CheckStats stats;
  stats.txns = history.txns.size();
  stats.ops = history.NumOps();
  CountingSink counted(0);
  auto report = [&](const Violation& v) {
    sink_->Report(v);
    counted.Report({v.type, v.tid});
  };

  Stopwatch sw;
  const size_t n = history.txns.size();
  // Canonical admission order: commit timestamps, ties by tid — the
  // arrival order every schedule-invariant verdict is independent of.
  std::vector<uint32_t> order(n);
  for (uint32_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    const Transaction &ta = history.txns[a], &tb = history.txns[b];
    if (ta.commit_ts != tb.commit_ts) return ta.commit_ts < tb.commit_ts;
    return ta.tid < tb.tid;
  });
  stats.sort_seconds = sw.Seconds();
  sw.Reset();

  // ---- Admission replay: Eq. (1) and the per-level dup-gate. ----
  enum : uint8_t { kDropped = 0, kIntOnly = 1, kAdmitted = 2 };
  std::vector<uint8_t> admit(n, kDropped);
  std::unordered_set<Timestamp> used;
  used.reserve(n * 2);
  std::unordered_map<SessionId, SessionState> sessions;
  for (uint32_t idx : order) {
    const Transaction& t = history.txns[idx];
    const IsolationLevel lv = EffectiveLevel(t, default_level_);
    if (lv == IsolationLevel::kSi && !t.TimestampsOrdered()) {
      report({ViolationType::kTsOrder, t.tid, kTxnNone, 0,
              static_cast<Value>(t.start_ts),
              static_cast<Value>(t.commit_ts)});
      sessions[t.sid].skipped_snos.insert(t.sno);
      admit[idx] = kIntOnly;
      continue;
    }
    bool dup = false;
    if (lv == IsolationLevel::kSer) {
      dup = !used.insert(t.commit_ts).second;
    } else if (lv == IsolationLevel::kSi) {
      dup = used.count(t.start_ts) || used.count(t.commit_ts);
      if (!dup) {
        used.insert(t.start_ts);
        used.insert(t.commit_ts);
      }
    }  // RC/RA: no registration, never gated here
    if (dup) {
      report({ViolationType::kTsDuplicate, t.tid});
      sessions[t.sid].skipped_snos.insert(t.sno);
      continue;
    }
    admit[idx] = kAdmitted;
  }

  // ---- INT + footprint classification (per-txn, order-free). ----
  const KeyEngine::ReportFn classify_report =
      [&](Timestamp, const Violation& v) { report(v); };
  ClassifyScratch scratch;
  std::vector<ClassifiedOps> footprints(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (admit[i] == kAdmitted) {
      ClassifyOps(history.txns[i], classify_report, &footprints[i], &scratch);
    } else if (admit[i] == kIntOnly) {
      ClassifyOps(history.txns[i], classify_report, nullptr, &scratch);
    }
  }

  // ---- SESSION: per session in sequence-number order, with the
  // per-level ordering rule of TxnIngress::CheckSession. ----
  {
    std::unordered_map<SessionId, std::vector<uint32_t>> by_session;
    for (uint32_t i = 0; i < n; ++i) by_session[history.txns[i].sid].push_back(i);
    for (auto& [sid, idxs] : by_session) {
      std::sort(idxs.begin(), idxs.end(), [&](uint32_t a, uint32_t b) {
        const Transaction &ta = history.txns[a], &tb = history.txns[b];
        if (ta.sno != tb.sno) return ta.sno < tb.sno;
        return ta.tid < tb.tid;
      });
      SessionState& ss = sessions[sid];
      for (uint32_t idx : idxs) {
        if (admit[idx] != kAdmitted) continue;  // skipped_snos already set
        const Transaction& t = history.txns[idx];
        const IsolationLevel lv = EffectiveLevel(t, default_level_);
        AdvanceOverSkipped(&ss);
        const bool si = lv == IsolationLevel::kSi;
        const Timestamp order_ts = ReadView(t, lv);
        bool bad_order = si ? order_ts < ss.last_cts
                            : order_ts <= ss.last_cts && ss.last_sno >= 0;
        if (static_cast<int64_t>(t.sno) != ss.last_sno + 1 || bad_order) {
          report({ViolationType::kSession, t.tid, kTxnNone, 0,
                  static_cast<Value>(ss.last_sno + 1),
                  static_cast<Value>(t.sno)});
        }
        ss.last_sno = static_cast<int64_t>(t.sno);
        ss.last_cts = t.commit_ts;
      }
    }
  }

  // ---- Final version chains from admitted final writes. A per-key
  // commit-ts collision (possible only with an unregistered RC/RA
  // writer in the pair) mirrors the engine's install-time TS-DUP. ----
  struct ChainVersion {
    Timestamp ts;
    Value value;
    TxnId tid;
  };
  std::unordered_map<Key, std::vector<ChainVersion>> chains;
  for (uint32_t idx : order) {
    if (admit[idx] != kAdmitted) continue;
    const Transaction& t = history.txns[idx];
    for (const KeyEngine::WriteReq& w : footprints[idx].writes) {
      auto& chain = chains[w.key];
      bool collide = false;
      for (const ChainVersion& v : chain) {
        if (v.ts == t.commit_ts) {
          collide = true;
          break;
        }
      }
      if (collide) {
        report({ViolationType::kTsDuplicate, t.tid, kTxnNone, w.key});
      } else {
        chain.push_back({t.commit_ts, w.value, t.tid});
      }
    }
  }
  for (auto& [key, chain] : chains) {
    std::sort(chain.begin(), chain.end(),
              [](const ChainVersion& a, const ChainVersion& b) {
                return a.ts < b.ts;
              });
  }

  // ---- EXT against the final chains, per reader level. ----
  auto frontier_at = [&](Key key, Timestamp view, bool inclusive,
                         TxnId skip_tid) -> VersionedKv::Lookup {
    VersionedKv::Lookup best;
    auto it = chains.find(key);
    if (it == chains.end()) return best;
    for (const ChainVersion& v : it->second) {
      if (inclusive ? v.ts > view : v.ts >= view) break;
      if (v.tid == skip_tid) continue;
      best = VersionedKv::Lookup{v.value, v.tid, v.ts};
    }
    return best;
  };
  for (uint32_t idx : order) {
    if (admit[idx] != kAdmitted) continue;
    const Transaction& t = history.txns[idx];
    const IsolationLevel lv = EffectiveLevel(t, default_level_);
    const bool si = lv == IsolationLevel::kSi;
    const Timestamp view = ReadView(t, lv);
    for (const KeyEngine::ExtReadReq& r : footprints[idx].ext_reads) {
      bool ok;
      if (MembershipLevel(lv)) {
        ok = r.observed == kValueInit;
        if (!ok) {
          auto it = chains.find(r.key);
          if (it != chains.end()) {
            for (const ChainVersion& v : it->second) {
              if (v.ts >= view) break;
              if (v.tid != t.tid && v.value == r.observed) {
                ok = true;
                break;
              }
            }
          }
        }
      } else {
        ok = frontier_at(r.key, view, si, t.tid).value == r.observed;
      }
      if (!ok) {
        // Attribution mirrors KeyEngine::FinalizeTxn: the raw frontier
        // at the view (the reader's own version not excluded).
        VersionedKv::Lookup cur = frontier_at(r.key, view, si, kTxnNone);
        report({ViolationType::kExt, t.tid, cur.tid, r.key, cur.value,
                r.observed});
      }
    }
  }

  // ---- NOCONFLICT: pairwise SI-vs-SI write-interval overlap. ----
  {
    struct Interval {
      Timestamp start, end;
      TxnId tid;
    };
    std::unordered_map<Key, std::vector<Interval>> intervals;
    for (uint32_t idx : order) {
      if (admit[idx] != kAdmitted) continue;
      const Transaction& t = history.txns[idx];
      if (EffectiveLevel(t, default_level_) != IsolationLevel::kSi) continue;
      SmallMap<Key, bool> seen_key;
      auto add = [&](Key key) {
        if (seen_key.Find(key)) return;
        seen_key.Put(key, true);
        intervals[key].push_back({t.start_ts, t.commit_ts, t.tid});
      };
      for (const KeyEngine::WriteReq& w : footprints[idx].writes) add(w.key);
      for (const KeyEngine::AppendReq& a : footprints[idx].appends) {
        add(a.key);
      }
    }
    for (const auto& [key, ivs] : intervals) {
      for (size_t i = 0; i < ivs.size(); ++i) {
        for (size_t j = i + 1; j < ivs.size(); ++j) {
          const Interval &a = ivs[i], &b = ivs[j];
          if (a.start <= b.end && a.end >= b.start) {
            TxnId first = a.end < b.end ? a.tid : b.tid;
            TxnId second = first == a.tid ? b.tid : a.tid;
            report({ViolationType::kNoConflict, first, second, key});
          }
        }
      }
    }
  }

  stats.check_seconds = sw.Seconds();
  stats.violations = counted.total();
  return stats;
}

CheckStats ChronosMixed::CheckHistory(const History& history,
                                      IsolationLevel default_level,
                                      ViolationSink* sink) {
  ChronosMixed checker(default_level, sink);
  History copy = history;
  return checker.Check(std::move(copy));
}

}  // namespace chronos

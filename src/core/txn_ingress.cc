#include "core/txn_ingress.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "core/gc_triggers.h"

namespace chronos {

void ClassifyOps(const Transaction& t, const KeyEngine::ReportFn& report,
                 ClassifiedOps* out, ClassifyScratch* scratch) {
  SmallMap<Key, Value>& int_val = scratch->int_val;
  SmallMap<Key, ListAccess>& list_state = scratch->list_state;
  int_val.Clear();
  int_val.Reserve(t.ops.size());
  list_state.Clear();
  if (out) {
    out->ext_reads.clear();
    out->writes.clear();
    out->list_reads.clear();
    out->appends.clear();
    out->ext_reads.reserve(t.ops.size());
    out->writes.reserve(t.ops.size());
    scratch->write_at.Clear();
    scratch->write_at.Reserve(t.ops.size());
    scratch->append_at.Clear();
  }
  for (const Op& op : t.ops) {
    if (op.type == OpType::kRead) {
      if (Value* iv = int_val.Find(op.key)) {
        if (*iv != op.value) {
          report(t.commit_ts, {ViolationType::kInt, t.tid, kTxnNone, op.key,
                               *iv, op.value});
        }
        *iv = op.value;
      } else {
        // External read: evaluated against the frontier by the engine.
        if (out) out->ext_reads.push_back({op.key, op.value});
        int_val.Put(op.key, op.value);
      }
    } else if (op.type == OpType::kWrite) {
      int_val.Put(op.key, op.value);
      // writes carry each key once, in first-write order, with the
      // *last* value written to it.
      if (!out) continue;
      if (const uint32_t* at = scratch->write_at.Find(op.key)) {
        out->writes[*at].value = op.value;
      } else {
        scratch->write_at.Put(op.key,
                              static_cast<uint32_t>(out->writes.size()));
        out->writes.push_back({op.key, op.value});
      }
    } else if (op.type == OpType::kAppend) {
      list_state.FindOrInsert(op.key)->own.push_back(op.value);
      // appends carry each key once, in first-append order, with the
      // full concatenated delta.
      if (!out) continue;
      const uint32_t* at = scratch->append_at.Find(op.key);
      if (!at) {
        scratch->append_at.Put(op.key,
                               static_cast<uint32_t>(out->appends.size()));
        out->appends.push_back({op.key, {}});
      }
      out->appends[at ? *at : out->appends.size() - 1].delta.push_back(
          op.value);
    } else if (op.type == OpType::kReadList) {
      if (op.list_index >= t.list_args.size()) continue;  // malformed input
      const std::vector<Value>& observed = t.list_args[op.list_index];
      ListReadOutcome oc =
          ClassifyListRead(list_state.FindOrInsert(op.key), observed);
      if (oc.kind == ListReadOutcome::Kind::kIntMismatch) {
        report(t.commit_ts,
               {ViolationType::kInt, t.tid, kTxnNone, op.key,
                static_cast<Value>(oc.expected_len),
                static_cast<Value>(oc.got_len), oc.divergence});
      } else if (oc.kind == ListReadOutcome::Kind::kResolvedBase && out) {
        out->list_reads.push_back({op.key, std::move(oc.resolved)});
      }
    }
  }
}

void ClassifyOps(const Transaction& t, const KeyEngine::ReportFn& report,
                 ClassifiedOps* out) {
  ClassifyScratch scratch;
  ClassifyOps(t, report, out, &scratch);
}

TxnIngress::TxnIngress(const CheckerOptions& options, CheckerStats* stats,
                       KeyEngine::ReportFn report, Dispatch* dispatch)
    : options_(options),
      stats_(stats),
      report_(std::move(report)),
      dispatch_(dispatch) {}

TxnIngress::Admission TxnIngress::AdmitTxn(const Transaction& t,
                                           uint64_t now_ms) {
  Admission adm;
  last_now_ms_ = std::max(last_now_ms_, now_ms);
  FireDeadlines(last_now_ms_);
  adm.now_ms = last_now_ms_;

  const IsolationLevel lv = EffectiveLevel(t, options_.mode);

  // Eq. (1) well-formedness (Algorithm 3 lines 4-5) applies only to SI:
  // every other level reads at its commit view and ignores start
  // timestamps entirely. INT does not depend on timestamps, so the
  // footprint still goes through the INT replay (kIntOnly).
  if (lv == IsolationLevel::kSi && !t.TimestampsOrdered()) {
    report_(t.commit_ts, {ViolationType::kTsOrder, t.tid, kTxnNone, 0,
                          static_cast<Value>(t.start_ts),
                          static_cast<Value>(t.commit_ts)});
    sessions_[t.sid].skipped_snos.insert(t.sno);
    adm.kind = Admission::Kind::kIntOnly;
    return adm;
  }

  // Duplicate timestamps across distinct transactions. Per-level
  // registration (see RegistersTimestamps): SER consumes {commit}, SI
  // {start, commit}; the commit-order membership levels (RC/RA) consume
  // nothing — they neither claim snapshot timestamps nor participate in
  // the dup-gate (a same-commit-ts collision surfaces at the engine's
  // version install as TS-DUP instead).
  bool dup = false;
  if (lv == IsolationLevel::kSer) {
    dup = !ClaimTs(t.commit_ts);
  } else if (lv == IsolationLevel::kSi) {
    dup = TsUsed(t.start_ts) || TsUsed(t.commit_ts);
    if (!dup) {
      ClaimTs(t.start_ts);
      ClaimTs(t.commit_ts);  // false when start == commit: one claim
    }
  }
  if (dup) {
    report_(t.commit_ts, {ViolationType::kTsDuplicate, t.tid});
    sessions_[t.sid].skipped_snos.insert(t.sno);
    adm.kind = Admission::Kind::kDrop;
    return adm;
  }

  CheckSession(t, lv);

  const Timestamp view_ts = ReadView(t, lv);

  // A replayed tid keeps its original record and registrations: pushing
  // its view on the heap again would outlive the single finalize
  // tombstone and pin the GC watermark forever. Its footprint still goes
  // through Steps 2-3 like any other arrival.
  auto [it, inserted] = txns_.emplace(t.tid, TxnRec{view_ts, t.commit_ts,
                                                    false});
  (void)it;
  if (inserted) {
    commit_index_.insert(  // commits arrive in near-ts order: the tail
        TailLowerBound(commit_index_.begin(), commit_index_.end(),
                       t.commit_ts,
                       [](const auto& p, Timestamp ts) { return p.first < ts; }),
        {t.commit_ts, t.tid});
    view_heap_.push(view_ts);
    deadlines_.emplace_back(last_now_ms_ + options_.ext_timeout_ms, t.tid);
  }

  ++stats_->txns_processed;
  adm.kind = Admission::Kind::kDispatch;
  adm.register_reads = inserted;
  adm.ctx = KeyEngine::TxnCtx{t.tid, view_ts, t.commit_ts, t.start_ts, lv};
  return adm;
}

void TxnIngress::OnTransaction(const Transaction& t, uint64_t now_ms) {
  Admission adm = AdmitTxn(t, now_ms);
  switch (adm.kind) {
    case Admission::Kind::kDrop:
      return;
    case Admission::Kind::kIntOnly:
      ClassifyOps(t, report_, nullptr, &classify_scratch_);
      return;
    case Admission::Kind::kDispatch: {
      // Step 1 (transaction-scoped half): INT checks and the per-key
      // footprint classification. Both dispatches only read the
      // footprint, so its vectors come back for the next arrival.
      ClassifyOps(t, report_, &classified_, &classify_scratch_);
      dispatch_->DispatchTxn(adm.ctx, std::move(classified_),
                             adm.register_reads, adm.now_ms);
      return;
    }
  }
}

bool TxnIngress::TsUsed(Timestamp ts) const {
  auto it = TailLowerBound(used_ts_.begin(), used_ts_.end(), ts, std::less<>());
  return it != used_ts_.end() && *it == ts;
}

bool TxnIngress::ClaimTs(Timestamp ts) {
  auto it = TailLowerBound(used_ts_.begin(), used_ts_.end(), ts, std::less<>());
  if (it != used_ts_.end() && *it == ts) return false;
  used_ts_.insert(it, ts);
  return true;
}

void TxnIngress::CheckSession(const Transaction& t, IsolationLevel lv) {
  SessionState& ss = sessions_[t.sid];
  AdvanceOverSkipped(&ss);
  // SI: the next transaction of a session must start after the previous
  // one committed (strong session). Every commit-view level (SER, RC,
  // RA): its commit must come later in commit order.
  const bool si = lv == IsolationLevel::kSi;
  const Timestamp order_ts = ReadView(t, lv);
  bool bad_order = si ? order_ts < ss.last_cts
                      : order_ts <= ss.last_cts && ss.last_sno >= 0;
  if (static_cast<int64_t>(t.sno) != ss.last_sno + 1 || bad_order) {
    report_(t.commit_ts, {ViolationType::kSession, t.tid, kTxnNone, 0,
                          static_cast<Value>(ss.last_sno + 1),
                          static_cast<Value>(t.sno)});
  }
  ss.last_sno = static_cast<int64_t>(t.sno);
  ss.last_cts = t.commit_ts;
}

void TxnIngress::FinalizeRec(TxnId tid) {
  auto it = txns_.find(tid);
  if (it == txns_.end() || it->second.finalized) return;
  it->second.finalized = true;
  finalized_views_.push(it->second.view_ts);
  dispatch_->DispatchFinalize(tid);
}

void TxnIngress::FireDeadlines(uint64_t now_ms) {
  while (!deadlines_.empty() && deadlines_.front().first <= now_ms) {
    TxnId tid = deadlines_.front().second;
    deadlines_.pop_front();
    FinalizeRec(tid);
  }
}

void TxnIngress::AdvanceTime(uint64_t now_ms) {
  last_now_ms_ = std::max(last_now_ms_, now_ms);
  FireDeadlines(last_now_ms_);
}

void TxnIngress::Finish() {
  while (!deadlines_.empty()) {
    TxnId tid = deadlines_.front().second;
    deadlines_.pop_front();
    FinalizeRec(tid);
  }
}

std::optional<Timestamp> TxnIngress::OldestUnfinalizedView() {
  while (!finalized_views_.empty() &&
         finalized_views_.top() == view_heap_.top()) {
    view_heap_.pop();
    finalized_views_.pop();
  }
  if (view_heap_.empty()) return std::nullopt;
  return view_heap_.top();
}

Timestamp TxnIngress::Gc(Timestamp up_to) {
  // Clamp to the safe watermark: no unfinalized transaction's read view
  // may fall at or below the eviction point, otherwise a future Step-3
  // re-check could silently use an incomplete version bound.
  Timestamp effective = up_to;
  if (std::optional<Timestamp> oldest = OldestUnfinalizedView()) {
    if (*oldest == kTsMin) return watermark_;
    effective = std::min(effective, *oldest - 1);
  }
  if (effective <= watermark_) return watermark_;

  ++stats_->gc_passes;

  // Drop finalized transaction records committed at or below the line;
  // the engines drop their own ext-read payloads and reader refs when
  // the GC dispatch reaches them.
  auto line_end = std::upper_bound(
      commit_index_.begin(), commit_index_.end(), effective,
      [](Timestamp ts, const auto& p) { return ts < p.first; });
  auto keep = std::remove_if(
      commit_index_.begin(), line_end,
      [&](const std::pair<Timestamp, TxnId>& p) {
        auto tit = txns_.find(p.second);
        if (tit == txns_.end() || !tit->second.finalized) return false;
        txns_.erase(tit);
        return true;
      });
  commit_index_.erase(keep, line_end);

  // Timestamp-uniqueness bookkeeping below the line is no longer needed;
  // duplicates of recycled timestamps would be stragglers anyway.
  used_ts_.erase(used_ts_.begin(), std::upper_bound(used_ts_.begin(),
                                                    used_ts_.end(), effective));

  watermark_ = effective;
  dispatch_->DispatchGc(effective);
  return watermark_;
}

namespace {

using MinHeap =
    std::priority_queue<Timestamp, std::vector<Timestamp>, std::greater<>>;

// A min-heap or hash set of u64s travels as its values in ascending
// order: each behaves as a pure function of its multiset, so
// re-inserting the values restores it.
std::vector<uint64_t> Ascending(MinHeap heap) {
  std::vector<uint64_t> v;
  v.reserve(heap.size());
  for (; !heap.empty(); heap.pop()) v.push_back(heap.top());
  return v;
}
template <typename Set>
std::vector<uint64_t> Ascending(const Set& set) {
  std::vector<uint64_t> v(set.begin(), set.end());
  std::sort(v.begin(), v.end());
  return v;
}
void Refill(MinHeap* heap, const std::vector<uint64_t>& v) {
  *heap = {};
  for (uint64_t x : v) heap->push(x);
}
template <typename Set>
void Refill(Set* set, const std::vector<uint64_t>& v) {
  set->clear();
  set->insert(v.begin(), v.end());
}

template <typename IO, typename C>
void TransferAscending(IO& io, C& c) {
  std::vector<uint64_t> v;
  if constexpr (!IO::kReading) v = Ascending(c);
  io.Seq(v, 8, [&](auto& x) { io.U64(x); });
  if constexpr (IO::kReading) Refill(&c, v);
}

}  // namespace

template <typename IO>
void TxnIngress::Transfer(IO& io) {
  io.U64(watermark_);
  io.U64(last_now_ms_);
  io.Map(txns_, /*tid, view, commit, finalized*/ 32, [&](auto& rec) {
    io.U64(rec.view_ts);
    io.U64(rec.commit_ts);
    io.U8(rec.finalized);
  });
  io.Seq(commit_index_, /*cts, tid*/ 16, [&](auto& e) {
    io.U64(e.first);
    io.U64(e.second);
  });
  TransferAscending(io, view_heap_);
  TransferAscending(io, finalized_views_);
  if constexpr (IO::kReading) {
    // OldestUnfinalizedView cancels each finalized view against an equal
    // view, so every one of them must be among the views.
    const std::vector<uint64_t> views = Ascending(view_heap_);
    const std::vector<uint64_t> finalized = Ascending(finalized_views_);
    io.Require(std::includes(views.begin(), views.end(), finalized.begin(),
                             finalized.end()));
  }
  // The registry is written twice: the checkpoint format (CHKPTv2) has
  // two ascending u64 sequences in this slot. A read requires two equal,
  // strictly ascending copies, which TsUsed's search relies on.
  std::vector<Timestamp> copy;
  if constexpr (!IO::kReading) copy = used_ts_;
  for (auto* v : {&used_ts_, &copy}) {
    io.Seq(*v, 8, [&](auto& x) { io.U64(x); });
  }
  if constexpr (IO::kReading) {
    io.Require(copy == used_ts_ &&
               std::adjacent_find(used_ts_.begin(), used_ts_.end(),
                                  std::greater_equal<>()) == used_ts_.end());
  }
  io.Map(sessions_, /*sid, sno, cts, skipped*/ 32, [&](auto& ss) {
    io.I64(ss.last_sno);
    io.U64(ss.last_cts);
    TransferAscending(io, ss.skipped_snos);
  });
  io.Seq(deadlines_, /*deadline, tid*/ 16, [&](auto& d) {
    io.U64(d.first);
    io.U64(d.second);
  });
}

template void TxnIngress::Transfer(StateWriter&);
template void TxnIngress::Transfer(StateReader&);

void TxnIngress::GcToLiveTarget(size_t target) {
  if (txns_.size() <= target) return;
  // Fast reject: if the oldest unfinalized view already pins the
  // watermark, no amount of scanning will free anything (asynchrony
  // preventing recycling, Sec. III-C2 challenge 3).
  if (std::optional<Timestamp> oldest = OldestUnfinalizedView()) {
    if (*oldest == kTsMin || *oldest - 1 <= watermark_) return;
  }
  size_t excess = txns_.size() - target;
  Timestamp line = kTsMin;
  if (excess > 0 && !commit_index_.empty()) {
    line = commit_index_[std::min(excess, commit_index_.size()) - 1].first;
  }
  if (line != kTsMin) Gc(line);
}

}  // namespace chronos

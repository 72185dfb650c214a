#include "fuzz/shrink.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <vector>

namespace chronos::fuzz {
namespace {

// Rebuilds a transaction without ops [begin, end), dropping the list
// payloads of removed list reads and reindexing the survivors.
Transaction WithoutOps(const Transaction& t, size_t begin, size_t end) {
  Transaction out;
  out.tid = t.tid;
  out.sid = t.sid;
  out.sno = t.sno;
  out.start_ts = t.start_ts;
  out.commit_ts = t.commit_ts;
  for (size_t i = 0; i < t.ops.size(); ++i) {
    if (i >= begin && i < end) continue;
    Op op = t.ops[i];
    if (op.type == OpType::kReadList) {
      uint32_t idx = static_cast<uint32_t>(out.list_args.size());
      out.list_args.push_back(t.list_args[op.list_index]);
      op.list_index = idx;
    }
    out.ops.push_back(op);
  }
  return out;
}

// Rebuilds every transaction's list_args to hold exactly the payloads
// its surviving kReadList ops reference, in op order, renumbering
// Op::list_index to match. Applied to every candidate before the
// predicate runs, so no reduction path — present or future — can leave
// an index dangling into list_args or an orphaned payload behind:
// downstream checkers (Chronos, ElleList, the ingress) index
// list_args unchecked, and orphaned payloads bloat the emitted .repro.
// Ops whose index is already out of range are dropped outright (a
// malformed read cannot be part of a faithful reduction).
History CompactListArgs(History h) {
  for (Transaction& t : h.txns) {
    bool has_list_reads =
        std::any_of(t.ops.begin(), t.ops.end(), [](const Op& op) {
          return op.type == OpType::kReadList;
        });
    if (t.list_args.empty() && !has_list_reads) continue;
    std::vector<std::vector<Value>> compacted;
    std::vector<Op> kept_ops;
    kept_ops.reserve(t.ops.size());
    for (Op op : t.ops) {
      if (op.type == OpType::kReadList) {
        if (op.list_index >= t.list_args.size()) continue;
        uint32_t idx = static_cast<uint32_t>(compacted.size());
        compacted.push_back(t.list_args[op.list_index]);  // copy: an index
        op.list_index = idx;  // may legally be referenced more than once
      }
      kept_ops.push_back(op);
    }
    t.ops = std::move(kept_ops);
    t.list_args = std::move(compacted);
  }
  return h;
}

class Shrinker {
 public:
  Shrinker(History h, const FailurePredicate& fails,
           const ShrinkOptions& options)
      : current_(std::move(h)), fails_(fails), options_(options) {}

  bool Budget() const { return calls_ < options_.max_predicate_calls; }

  bool Accept(History&& candidate) {
    if (!Budget()) return false;
    ++calls_;
    History normalized = CompactListArgs(std::move(candidate));
    if (!fails_(normalized)) return false;
    current_ = std::move(normalized);
    return true;
  }

  // --- global interleaved ddmin over transactions and operations ------
  //
  // One pass alternates a txn-chunk sweep and an op-chunk sweep at each
  // granularity, halving both sizes together when neither removes
  // anything, instead of running each reduction to fixpoint in
  // isolation. Op chunks address the flat (txn-major) operation index
  // and may span transaction boundaries, so one predicate call can take
  // the tail of one transaction together with the head of the next —
  // repros whose failure couples ops in *different* transactions
  // (NOCONFLICT overlaps in particular) keep shrinking where a
  // per-transaction op pass plateaus.

  // One greedy sweep dropping runs of `chunk` transactions.
  bool SweepTxnChunks(size_t chunk) {
    bool removed = false;
    for (size_t start = 0; start < current_.txns.size() && Budget();) {
      History candidate = current_;
      size_t end = std::min(start + chunk, candidate.txns.size());
      candidate.txns.erase(candidate.txns.begin() + start,
                           candidate.txns.begin() + end);
      if (!candidate.txns.empty() &&
          Accept(NormalizeSessions(std::move(candidate)))) {
        removed = true;  // same start now addresses the next run
      } else {
        start += chunk;
      }
    }
    return removed;
  }

  // Rebuilds `h` without the flat op range [start, start + count): the
  // range maps to one contiguous slice per overlapped transaction.
  static History RemoveOpRange(const History& h, size_t start, size_t count) {
    History out = h;
    const size_t limit = start + count;
    size_t base = 0;
    for (size_t ti = 0; ti < h.txns.size(); ++ti) {
      const size_t n = h.txns[ti].ops.size();
      if (base < limit && base + n > start) {
        size_t b = start > base ? start - base : 0;
        size_t e = std::min(limit - base, n);
        out.txns[ti] = WithoutOps(h.txns[ti], b, e);
      }
      base += n;
    }
    return out;
  }

  // One greedy sweep dropping runs of `chunk` operations in the flat
  // txn-major index (runs may cross transaction boundaries).
  bool SweepOpChunks(size_t chunk) {
    bool removed = false;
    for (size_t start = 0; start < current_.NumOps() && Budget();) {
      if (Accept(RemoveOpRange(current_, start, chunk))) {
        removed = true;  // same start now addresses the next run
      } else {
        start += chunk;
      }
    }
    return removed;
  }

  void ShrinkGlobal() {
    size_t txn_chunk = std::max<size_t>(1, current_.txns.size() / 2);
    size_t op_chunk = std::max<size_t>(1, current_.NumOps() / 2);
    while (Budget()) {
      bool removed = SweepTxnChunks(txn_chunk);
      removed |= SweepOpChunks(op_chunk);
      // The history shrank: keep the chunks within it.
      txn_chunk =
          std::min(txn_chunk, std::max<size_t>(1, current_.txns.size()));
      op_chunk = std::min(op_chunk, std::max<size_t>(1, current_.NumOps()));
      if (!removed) {
        if (txn_chunk == 1 && op_chunk == 1) break;
        txn_chunk = std::max<size_t>(1, txn_chunk / 2);
        op_chunk = std::max<size_t>(1, op_chunk / 2);
      }
    }
  }

  // Rank-compresses all timestamps to 1..T (order- and equality-
  // preserving, so Eq. (1) inversions and duplicates survive).
  void CompactTimestamps() {
    std::map<Timestamp, Timestamp> rank;
    for (const Transaction& t : current_.txns) {
      rank[t.start_ts] = 0;
      rank[t.commit_ts] = 0;
    }
    Timestamp next = 1;
    for (auto& [ts, r] : rank) r = next++;
    History candidate = current_;
    for (Transaction& t : candidate.txns) {
      t.start_ts = rank[t.start_ts];
      t.commit_ts = rank[t.commit_ts];
    }
    Accept(std::move(candidate));
  }

  // Renames keys (to 0..k-1) and values (to 1..m, keeping the initial
  // value 0 fixed) in first-appearance order.
  void CompactKeysAndValues() {
    std::unordered_map<Key, Key> key_map;
    std::unordered_map<Value, Value> val_map;
    val_map[kValueInit] = kValueInit;
    auto key_of = [&](Key k) {
      auto [it, fresh] = key_map.emplace(k, key_map.size());
      (void)fresh;
      return it->second;
    };
    auto val_of = [&](Value v) {
      auto [it, fresh] =
          val_map.emplace(v, static_cast<Value>(val_map.size()));
      (void)fresh;
      return it->second;
    };
    History candidate = current_;
    for (Transaction& t : candidate.txns) {
      for (Op& op : t.ops) {
        op.key = key_of(op.key);
        if (op.type != OpType::kReadList) op.value = val_of(op.value);
      }
      for (auto& list : t.list_args) {
        for (Value& e : list) e = val_of(e);
      }
    }
    Accept(std::move(candidate));
  }

  ShrinkResult Finish() && {
    ShrinkResult r;
    r.minimized = std::move(current_);
    r.final_txns = r.minimized.txns.size();
    r.final_ops = r.minimized.NumOps();
    r.predicate_calls = calls_;
    return r;
  }

  History current_;

 private:
  const FailurePredicate& fails_;
  ShrinkOptions options_;
  size_t calls_ = 0;
};

}  // namespace

History NormalizeSessions(History h) {
  // Stable per-session reindex: order by current sno (ties by position),
  // reassign 0..n-1.
  std::unordered_map<SessionId, std::vector<Transaction*>> by_session;
  for (Transaction& t : h.txns) by_session[t.sid].push_back(&t);
  SessionId max_sid = 0;
  for (auto& [sid, txns] : by_session) {
    max_sid = std::max(max_sid, sid);
    std::stable_sort(txns.begin(), txns.end(),
                     [](const Transaction* a, const Transaction* b) {
                       return a->sno < b->sno;
                     });
    uint64_t next = 0;
    for (Transaction* t : txns) t->sno = next++;
  }
  h.num_sessions = h.txns.empty() ? 0 : max_sid + 1;
  return h;
}

ShrinkResult ShrinkHistory(const History& h, const FailurePredicate& fails,
                           const ShrinkOptions& options) {
  ShrinkResult nothing;
  nothing.minimized = h;
  nothing.initial_txns = nothing.final_txns = h.txns.size();
  nothing.initial_ops = nothing.final_ops = h.NumOps();
  if (!fails(h)) return nothing;  // precondition violated: no-op

  Shrinker s(h, fails, options);
  s.ShrinkGlobal();
  s.CompactTimestamps();
  s.CompactKeysAndValues();

  ShrinkResult r = std::move(s).Finish();
  r.initial_txns = h.txns.size();
  r.initial_ops = h.NumOps();
  return r;
}

}  // namespace chronos::fuzz

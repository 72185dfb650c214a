#include "core/key_engine.h"

#include <algorithm>
#include <optional>

#include "core/gc_triggers.h"
#include "core/list_replay.h"

namespace chronos {
namespace {

// Flip bookkeeping shared by register and list re-checks (the two
// tentative-verdict states carry the same satisfied/flips fields).
template <typename ReadState>
void UpdateTentativeVerdict(ReadState& s, bool now_satisfied, TxnId rtid,
                            uint64_t now_ms, FlipFlopStats* flips,
                            CheckerStats* stats) {
  ++stats->ext_rechecks;
  if (now_satisfied != s.satisfied) {
    flips->RecordFlip(rtid, now_ms - s.last_change_ms);
    ++s.flips;
    s.satisfied = now_satisfied;
    s.last_change_ms = now_ms;
  }
}

}  // namespace

template <typename Fn>
void KeyEngine::WalkAffectedReaders(const ReaderChain& readers, Timestamp cts,
                                    const std::optional<Timestamp>& upper,
                                    TxnId writer, Fn&& fn) {
  auto view_lt = [](const ReaderRef& r, Timestamp ts) {
    return r.view_ts < ts;
  };
  auto begin = TailLowerBound(readers.begin(), readers.end(), cts, view_lt);
  for (auto it = begin; it != readers.end(); ++it) {
    if (upper && it->view_ts > *upper) break;
    auto tit = local_txns_.find(it->tid);
    if (tit == local_txns_.end()) continue;
    if (tit->second.finalized) continue;  // Algorithm 3 line 40
    if (it->tid == writer) continue;
    // The lower range bound is per *reader* level (chains may mix
    // levels): SI sees the version at its own view ([cts, ...]), every
    // commit-view level sees strictly earlier versions only ((cts, ...]).
    if (it->view_ts == cts &&
        tit->second.level != IsolationLevel::kSi) {
      continue;
    }
    fn(*it, tit->second);
  }
}

KeyEngine::KeyEngine(const Options& options, CheckerStats* stats,
                     FlipFlopStats* flips, ReportFn report)
    : options_(options),
      stats_(stats),
      flip_stats_(flips),
      report_(std::move(report)),
      spill_(options.spill_dir) {}

void KeyEngine::ProcessTxn(const TxnCtx& ctx, const OpsView& ops,
                           bool register_reads, uint64_t now_ms) {
  const bool membership = MembershipLevel(ctx.level);

  // Step 1 (per-key half): tentative EXT verdict against the current
  // frontier at the read view (Algorithm 3 lines 13-15) — or, for the
  // commit-order levels (RC/RA), against committed membership before
  // the view. A replayed tid keeps its original record and
  // registrations (register_reads false): its reads are ignored —
  // re-evaluating them could only feed a record that does not exist —
  // but its writes below still go through Steps 2-3 like any other
  // arrival.
  LocalTxn* rec = nullptr;
  if (register_reads && ops.num_reads + ops.num_list_reads > 0) {
    rec = &local_txns_[ctx.tid];
    rec->view_ts = ctx.view_ts;
    rec->commit_ts = ctx.commit_ts;
    rec->level = ctx.level;
    rec->ext_reads.reserve(ops.num_reads);
    for (size_t i = 0; i < ops.num_reads; ++i) {
      ExtReadState er;
      er.key = ops.reads[i].key;
      er.observed = ops.reads[i].observed;
      if (membership) {
        er.satisfied =
            EvaluateMembership(er.key, ctx.view_ts, er.observed);
      } else {
        VersionedKv::Lookup cur =
            LookupFrontier(er.key, ctx.view_ts,
                           /*inclusive=*/ctx.level == IsolationLevel::kSi);
        er.satisfied = (cur.value == er.observed);
      }
      er.last_change_ms = now_ms;
      rec->ext_reads.push_back(er);
    }
    rec->list_reads.reserve(ops.num_list_reads);
    for (size_t i = 0; i < ops.num_list_reads; ++i) {
      ListReadState lr;
      lr.key = ops.list_reads[i].key;
      lr.observed = ops.list_reads[i].observed;
      lr.satisfied =
          EvaluateListRead(lr.key, ctx.view_ts, lr.observed).satisfied;
      lr.last_change_ms = now_ms;
      rec->list_reads.push_back(std::move(lr));
    }
  }

  // Register the reads before installing this transaction's versions so
  // that Step-3 re-checking can find them (its own reads are never in
  // the affected range: an SI read view precedes its own commit and SER
  // readers see strictly earlier versions only; the re-check loops skip
  // the writer's own tid).
  if (rec) {
    // Commits and views arrive in near-ts order: both inserts land at or
    // near the tail.
    commit_index_.insert(
        TailLowerBound(commit_index_.begin(), commit_index_.end(),
                       ctx.commit_ts,
                       [](const auto& p, Timestamp ts) { return p.first < ts; }),
        {ctx.commit_ts, ctx.tid});
    auto register_ref = [&](std::unordered_map<Key, ReaderChain>* index,
                            Key key, uint32_t i) {
      ReaderChain& chain = (*index)[key];
      chain.insert(
          TailLowerBound(
              chain.begin(), chain.end(), ctx.view_ts,
              [](const ReaderRef& r, Timestamp ts) { return r.view_ts < ts; }),
          ReaderRef{ctx.view_ts, ctx.tid, i});
    };
    auto* register_index =
        membership ? &membership_reader_index_ : &reader_index_;
    for (uint32_t i = 0; i < rec->ext_reads.size(); ++i) {
      register_ref(register_index, rec->ext_reads[i].key, i);
    }
    for (uint32_t i = 0; i < rec->list_reads.size(); ++i) {
      register_ref(&list_reader_index_, rec->list_reads[i].key, i);
    }
  }

  // Step 3 (per written key): install the version and re-check EXT for
  // affected readers.
  for (size_t i = 0; i < ops.num_writes; ++i) {
    InstallVersionAndRecheck(ctx, ops.writes[i].key, ops.writes[i].value,
                             now_ms);
  }
  for (size_t i = 0; i < ops.num_appends; ++i) {
    InstallAppendAndRecheck(ctx, ops.appends[i].key, ops.appends[i].delta,
                            now_ms);
  }

  // Step 2: NOCONFLICT against overlapping writers (SI transactions
  // only — commit-order levels have no validated start interval, so
  // neither their writes register intervals nor are they checked;
  // appends are writers of their key too, and a key both written and
  // appended by the same transaction is checked and registered once).
  if (ctx.level == IsolationLevel::kSi &&
      ops.num_writes + ops.num_appends > 0) {
    for (size_t i = 0; i < ops.num_writes; ++i) {
      CheckNoConflictKey(ctx, ops.writes[i].key);
    }
    // One pass decides which appended keys the write loop already
    // covered; checks run before any interval registration (above).
    std::vector<bool> append_written(ops.num_appends, false);
    for (size_t i = 0; i < ops.num_appends; ++i) {
      for (size_t w = 0; w < ops.num_writes; ++w) {
        if (ops.writes[w].key == ops.appends[i].key) {
          append_written[i] = true;
          break;
        }
      }
      if (!append_written[i]) CheckNoConflictKey(ctx, ops.appends[i].key);
    }
    for (size_t i = 0; i < ops.num_writes; ++i) {
      ongoing_.Add(ops.writes[i].key, ctx.start_ts, ctx.commit_ts, ctx.tid);
    }
    for (size_t i = 0; i < ops.num_appends; ++i) {
      if (!append_written[i]) {
        ongoing_.Add(ops.appends[i].key, ctx.start_ts, ctx.commit_ts,
                     ctx.tid);
      }
    }
  }
}

VersionedKv::Lookup KeyEngine::LookupFrontier(Key key, Timestamp view,
                                              bool inclusive) {
  VersionedKv::Lookup mem = inclusive ? versions_.GetAtOrBefore(key, view)
                                      : versions_.GetBefore(key, view);
  if (view >= watermark_ || watermark_ == kTsMin) return mem;
  // The read view lies below the GC watermark: in-memory state may lack
  // the intermediate versions; merge with the spill store.
  if (!spill_.persistent()) {
    ++stats_->unsafe_below_watermark;
    return mem;
  }
  VersionedKv::Lookup spilled = LookupSpilled(key, view, inclusive);
  return spilled.ts > mem.ts || (mem.tid == kTxnNone && spilled.tid != kTxnNone)
             ? spilled
             : mem;
}

bool KeyEngine::EvaluateMembership(Key key, Timestamp view, Value observed) {
  // The initial transaction (bottom-T) committed every key's initial
  // value, so it is always a member.
  if (observed == kValueInit) return true;
  if (versions_.HasValueBefore(key, view, observed)) return true;
  // The membership window spans [bottom, view): once GC has evicted
  // anything, the in-memory chain alone is incomplete for every key
  // with a collapsed base — merge with the spill store or degrade.
  if (watermark_ == kTsMin) return false;
  if (!spill_.persistent()) {
    ++stats_->unsafe_below_watermark;
    return false;
  }
  bool found = false;
  bool complete = spill_.Consult(stats_, [&](const SpillPayload& p) {
    for (const auto& [k, ts, entry] : p.versions) {
      if (k == key && ts < view && entry.value == observed) {
        found = true;
        break;
      }
    }
    return !found;
  });
  if (!found && !complete) ++stats_->unsafe_below_watermark;
  return found;
}

VersionedKv::Lookup KeyEngine::LookupSpilled(Key key, Timestamp view,
                                             bool inclusive) {
  VersionedKv::Lookup best;
  bool complete = spill_.Consult(stats_, [&](const SpillPayload& p) {
    for (const auto& [k, ts, entry] : p.versions) {
      bool qualifies = inclusive ? ts <= view : ts < view;
      if (k == key && qualifies && ts >= best.ts) {
        best = VersionedKv::Lookup{entry.value, entry.tid, ts};
      }
    }
    return true;
  });
  // A missing or corrupt epoch degrades this consult to the same
  // best-effort verdict as spill-less GC (D7): count it the same way.
  if (!complete) ++stats_->unsafe_below_watermark;
  return best;
}

void KeyEngine::InstallVersionAndRecheck(const TxnCtx& ctx, Key key,
                                         Value value, uint64_t now_ms) {
  const Timestamp cts = ctx.commit_ts;

  // If an in-memory version at or after cts but at or below the watermark
  // exists, this writer is a straggler shadowed below the watermark: every
  // affected reader is already finalized, so no re-check is needed.
  // Evicted versions are all strictly older than the retained per-key
  // base, so the in-memory NextVersionAfter bound is exact in the
  // re-check path below. Only a writer below the watermark can be
  // shadowed, so only it pays the lookup (which lands near the front).
  bool shadowed_below_watermark =
      watermark_ != kTsMin && cts < watermark_ &&
      versions_.GetAtOrBefore(key, watermark_).ts >= cts;

  std::optional<Timestamp> next = versions_.NextVersionAfter(key, cts);
  if (!versions_.Put(key, cts, value, ctx.tid)) {
    report_(cts, {ViolationType::kTsDuplicate, ctx.tid, kTxnNone, key});
    return;
  }

  // Membership readers (RC/RA): a new version joins the committed set
  // of every live reader with view > cts — verdicts are monotone (a
  // satisfied read can never become unsatisfied), and the range has no
  // NextVersionAfter bound. This applies even to a writer shadowed
  // below the watermark: its value still becomes a member for live
  // readers above it.
  auto mit = membership_reader_index_.find(key);
  if (mit != membership_reader_index_.end()) {
    WalkAffectedReaders(
        mit->second, cts, std::nullopt, ctx.tid,
        [&](const ReaderRef& ref, LocalTxn& reader) {
          ExtReadState& er = reader.ext_reads[ref.read_idx];
          UpdateTentativeVerdict(er, er.satisfied || er.observed == value,
                                 ref.tid, now_ms, flip_stats_, stats_);
        });
  }

  if (shadowed_below_watermark) return;

  auto rit = reader_index_.find(key);
  if (rit == reader_index_.end()) return;

  // Affected read views: SI sees versions with cts <= view, so the range
  // is [cts, next]; SER sees versions with cts < view, so it is (cts,
  // next]. The upper bound is inclusive in both modes: timestamps are
  // unique across transactions, so a reader whose view equals `next` can
  // only be the writer of the version at `next` itself (start == commit),
  // and its own version is invisible to it — the version installed here
  // is its real frontier (fuzz finding: a late-start-stamped
  // read-then-write transaction was left with a stale tentative EXT
  // verdict because the re-check stopped at `next` exclusive).
  // The uniqueness premise holds even for malformed input: the ingress
  // dup-gate rejects any arrival whose start or commit timestamp was
  // already used (the offender is never dispatched, divergence entry
  // D6), and once GC prunes the used-ts window a colliding straggler can
  // only shadow readers the watermark clamp already finalized — which
  // the walk's `finalized` check skips.
  WalkAffectedReaders(
      rit->second, cts, next, ctx.tid,
      [&](const ReaderRef& ref, LocalTxn& reader) {
        ExtReadState& er = reader.ext_reads[ref.read_idx];
        UpdateTentativeVerdict(er, er.observed == value, ref.tid, now_ms,
                               flip_stats_, stats_);
      });
}

template <typename Fn>
void KeyEngine::ForEachSpilledListVersion(Key key, Fn&& fn) {
  bool complete = spill_.Consult(stats_, [&](const SpillPayload& p) {
    for (const ListSpillVersion& lv : p.list_versions) {
      if (lv.key == key) fn(lv);
    }
    return true;
  });
  // Unloadable epoch: the reconstruction is incomplete — same D7
  // best-effort accounting as the spill-less paths.
  if (!complete) ++stats_->unsafe_below_watermark;
}

std::vector<std::pair<Timestamp, std::vector<Value>>>
KeyEngine::SpilledListDeltas(Key key) {
  std::vector<std::pair<Timestamp, std::vector<Value>>> out;
  ForEachSpilledListVersion(key, [&](const ListSpillVersion& lv) {
    out.emplace_back(lv.ts, lv.delta);
  });
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::vector<std::pair<Timestamp, size_t>> KeyEngine::SpilledListLens(
    Key key) {
  // Placement offsets only need boundary lengths, not element payloads.
  std::vector<std::pair<Timestamp, size_t>> out;
  ForEachSpilledListVersion(key, [&](const ListSpillVersion& lv) {
    out.emplace_back(lv.ts, lv.delta.size());
  });
  std::sort(out.begin(), out.end());
  return out;
}

KeyEngine::ListEval KeyEngine::EvaluateListRead(
    Key key, Timestamp view, const std::vector<Value>& observed) {
  // SI evaluates at ts <= view — except that a version at exactly
  // ts == view can only be the reading transaction's own append
  // (timestamps are unique across transactions and the ingress dup-gate
  // never dispatches a collision, so only a start==commit-stamped
  // read-then-append transaction puts a version at its own read view).
  // Its own delta is stripped from the resolved base (list_replay.h), so
  // the evaluation must step to the predecessor — the list analogue of
  // the self_stamped_rw fuzz finding for registers.
  const bool inclusive = options_.mode == IsolationLevel::kSi;
  ListEval ev;

  // Below-base straggler view: the in-memory prefix is incomplete (the
  // collapsed base absorbs everything at or below the watermark), so the
  // cumulative sequence at the view must be reconstructed from the
  // spilled boundaries plus any merged below-base stragglers.
  Timestamp base_ts = lists_.BaseTs(key);
  bool below_base = base_ts != kTsMin && base_ts <= watermark_ &&
                    (inclusive ? view < base_ts : view <= base_ts);
  if (below_base) {
    if (lists_.TrimmedLen(key) > 0) {
      // Horizon trim may have truncated this key's spilled deltas
      // (ListKv invariant 5), so the reconstruction below cannot be
      // trusted element-wise. Deterministic-optimistic, counted.
      ++stats_->unsafe_below_horizon;
      ev.frontier_len = observed.size();
      ev.satisfied = true;
      ev.divergence = -1;
      return ev;
    }
    if (!spill_.persistent()) {
      ++stats_->unsafe_below_watermark;
      // Deterministic best effort: no below-base content is resolvable.
      ev.frontier_len = 0;
      ev.satisfied = observed.empty();
      ev.divergence = observed.empty() ? -1 : 0;
      return ev;
    }
    std::vector<std::pair<Timestamp, std::vector<Value>>> parts =
        SpilledListDeltas(key);
    if (const auto* merged = lists_.MergedBelow(key)) {
      parts.insert(parts.end(), merged->begin(), merged->end());
      std::sort(parts.begin(), parts.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
    }
    std::vector<Value> prefix;
    for (const auto& [ts, delta] : parts) {
      if (ts < view) {  // ts == view would be the reader's own delta
        prefix.insert(prefix.end(), delta.begin(), delta.end());
      }
    }
    ev.frontier_len = prefix.size();
    ev.divergence = FirstListDivergence(prefix, observed);
    ev.satisfied = ev.divergence < 0;
    return ev;
  }

  ListKv::Prefix p = lists_.PrefixAt(key, view, inclusive);
  if (inclusive && p.ts == view && p.ts != kTsMin) {
    p = lists_.PrefixAt(key, view, /*inclusive=*/false);
  }
  ev.frontier_len = p.len;
  ev.frontier_tid = p.tid;
  if (p.trimmed == 0) {
    ev.divergence = FirstListDivergence(p.data, p.len, observed.data(),
                                        observed.size());
    ev.satisfied = ev.divergence < 0;
    return ev;
  }
  // Trim-aware comparison: the materialized tail element-wise, then the
  // hash-trimmed region by FNV (a mismatch there reports divergence 0 —
  // the exact index is gone with the elements). A tainted hash cannot
  // verify the region at all: deterministic-optimistic, counted.
  size_t n = std::min(p.len, observed.size());
  int64_t div = -1;
  for (size_t i = p.trimmed; i < n; ++i) {
    if (p.data[i - p.trimmed] != observed[i]) {
      div = static_cast<int64_t>(i);
      break;
    }
  }
  if (div < 0 && p.len != observed.size()) div = static_cast<int64_t>(n);
  if (div < 0) {
    if (p.hash_tainted) {
      ++stats_->unsafe_below_horizon;
    } else if (Fnv1a(observed.data(), p.trimmed * sizeof(Value)) !=
               p.trimmed_hash) {
      div = 0;
    }
  }
  ev.divergence = div;
  ev.satisfied = div < 0;
  return ev;
}

void KeyEngine::InstallAppendAndRecheck(const TxnCtx& ctx, Key key,
                                        const std::vector<Value>& delta,
                                        uint64_t now_ms) {
  const Timestamp cts = ctx.commit_ts;

  // Route a below-base straggler through the spill-informed merge path
  // (ListKv invariant 4); otherwise a plain chain insert.
  Timestamp base_ts = lists_.BaseTs(key);
  bool ok;
  if (base_ts != kTsMin && base_ts <= watermark_ && cts < base_ts) {
    std::vector<std::pair<Timestamp, size_t>> spilled_lens;
    if (!spill_.persistent()) {
      ++stats_->unsafe_below_watermark;
    } else {
      spilled_lens = SpilledListLens(key);
    }
    bool into_trimmed = false;
    ok = lists_.PutBelowBase(key, cts, delta, ctx.tid, spilled_lens,
                             &into_trimmed);
    if (into_trimmed) ++stats_->unsafe_below_horizon;
  } else {
    ok = lists_.Put(key, cts, delta, ctx.tid);
  }
  if (!ok) {
    report_(cts, {ViolationType::kTsDuplicate, ctx.tid, kTxnNone, key});
    return;
  }

  // Appends compose rather than shadow: the installed delta changes the
  // cumulative prefix of *every* read view at or after cts, so the
  // re-check range has no NextVersionAfter upper bound (ListKv
  // invariant 2). Finalized readers — everything at or below the
  // watermark — are skipped, which bounds the walk to live readers; the
  // writer's own read is skipped too (its own delta is not its base).
  auto rit = list_reader_index_.find(key);
  if (rit == list_reader_index_.end()) return;
  WalkAffectedReaders(
      rit->second, cts, std::nullopt, ctx.tid,
      [&](const ReaderRef& ref, LocalTxn& reader) {
        ListReadState& lr = reader.list_reads[ref.read_idx];
        UpdateTentativeVerdict(
            lr, EvaluateListRead(key, ref.view_ts, lr.observed).satisfied,
            ref.tid, now_ms, flip_stats_, stats_);
      });
}

void KeyEngine::CheckNoConflictKey(const TxnCtx& ctx, Key key) {
  // The caller already deduplicated: each written/appended key is
  // checked once, in first-access op order.
  ++stats_->noconflict_checks;
  for (const WriteInterval& iv :
       ongoing_.Overlapping(key, ctx.start_ts, ctx.commit_ts)) {
    if (iv.tid == ctx.tid) continue;
    // Attribute the conflict to the earlier committer (paper's
    // deduplication rule).
    TxnId first = iv.end < ctx.commit_ts ? iv.tid : ctx.tid;
    TxnId second = first == iv.tid ? ctx.tid : iv.tid;
    report_(std::min(iv.end, ctx.commit_ts),
            {ViolationType::kNoConflict, first, second, key});
  }
  // Straggler below the watermark: evicted intervals may also overlap.
  if (watermark_ != kTsMin && ctx.start_ts < watermark_) {
    if (!spill_.persistent()) {
      ++stats_->unsafe_below_watermark;
    } else {
      bool complete = spill_.Consult(stats_, [&](const SpillPayload& p) {
        for (const auto& [k, iv] : p.intervals) {
          if (k != key || iv.tid == ctx.tid) continue;
          if (iv.start <= ctx.commit_ts && iv.end >= ctx.start_ts) {
            TxnId first = iv.end < ctx.commit_ts ? iv.tid : ctx.tid;
            TxnId second = first == iv.tid ? ctx.tid : iv.tid;
            report_(std::min(iv.end, ctx.commit_ts),
                    {ViolationType::kNoConflict, first, second, key});
          }
        }
        return true;
      });
      // Epochs that failed to load leave the interval scan incomplete:
      // same best-effort accounting as running without a spill dir.
      if (!complete) ++stats_->unsafe_below_watermark;
    }
  }
}

void KeyEngine::FinalizeTxn(TxnId tid) {
  auto it = local_txns_.find(tid);
  if (it == local_txns_.end()) return;
  LocalTxn& rec = it->second;
  if (rec.finalized) return;
  rec.finalized = true;
  for (const ExtReadState& er : rec.ext_reads) {
    flip_stats_->RecordPairDone(er.flips);
    if (!er.satisfied) {
      // Attribution: the frontier at the reader's view — the value the
      // reader "should" have seen. For a membership reader (RC/RA) no
      // single version is mandated; the latest committed one before the
      // view is the representative witness.
      VersionedKv::Lookup cur =
          LookupFrontier(er.key, rec.view_ts,
                         /*inclusive=*/rec.level == IsolationLevel::kSi);
      report_(rec.commit_ts, {ViolationType::kExt, tid, cur.tid, er.key,
                              cur.value, er.observed});
    }
  }
  for (const ListReadState& lr : rec.list_reads) {
    flip_stats_->RecordPairDone(lr.flips);
    if (!lr.satisfied) {
      // Lengths + first divergent element index identify the mismatch;
      // full contents are unbounded (same convention as Chronos).
      ListEval ev = EvaluateListRead(lr.key, rec.view_ts, lr.observed);
      report_(rec.commit_ts,
              {ViolationType::kExt, tid, ev.frontier_tid, lr.key,
               static_cast<Value>(ev.frontier_len),
               static_cast<Value>(lr.observed.size()), ev.divergence});
    }
  }
}

void KeyEngine::CollectUpTo(Timestamp watermark) {
  SpillPayload payload;
  payload.max_ts = watermark;
  versions_.CollectUpTo(watermark, &payload.versions);
  ongoing_.CollectUpTo(watermark, &payload.intervals);
  lists_.CollectUpTo(watermark, &payload.list_versions);
  spill_.Spill(payload);

  // Drop finalized transaction records committed at or below the line.
  // Reader refs are batch-compacted per key afterwards: erasing each ref
  // individually would make a pass over a hot key's chain quadratic.
  std::unordered_map<Key, std::vector<Timestamp>> dropped_views;
  std::unordered_map<Key, std::vector<Timestamp>> dropped_member_views;
  std::unordered_map<Key, std::vector<Timestamp>> dropped_list_views;
  auto line_end = std::upper_bound(
      commit_index_.begin(), commit_index_.end(), watermark,
      [](Timestamp ts, const auto& p) { return ts < p.first; });
  auto keep = std::remove_if(
      commit_index_.begin(), line_end,
      [&](const std::pair<Timestamp, TxnId>& p) {
        auto tit = local_txns_.find(p.second);
        if (tit == local_txns_.end() || !tit->second.finalized) return false;
        auto* ext_dropped = MembershipLevel(tit->second.level)
                                ? &dropped_member_views
                                : &dropped_views;
        for (const ExtReadState& er : tit->second.ext_reads) {
          (*ext_dropped)[er.key].push_back(tit->second.view_ts);
        }
        for (const ListReadState& lr : tit->second.list_reads) {
          dropped_list_views[lr.key].push_back(tit->second.view_ts);
        }
        local_txns_.erase(tit);
        return true;
      });
  commit_index_.erase(keep, line_end);
  auto compact = [](std::unordered_map<Key, ReaderChain>* index,
                    std::unordered_map<Key, std::vector<Timestamp>>* dropped) {
    for (auto& [key, views] : *dropped) {
      auto rit = index->find(key);
      if (rit == index->end()) continue;
      std::sort(views.begin(), views.end());
      // The chain is sorted by view and no dropped ref lies past the
      // largest dropped view: only the front up to it is scanned (a
      // front cut, so a plain bisection finds its end).
      ReaderChain& chain = rit->second;
      auto cut = std::upper_bound(
          chain.begin(), chain.end(), views.back(),
          [](Timestamp ts, const ReaderRef& r) { return ts < r.view_ts; });
      chain.erase(std::remove_if(chain.begin(), cut,
                                 [&](const ReaderRef& r) {
                                   return std::binary_search(
                                       views.begin(), views.end(), r.view_ts);
                                 }),
                  cut);
      if (chain.empty()) index->erase(rit);
    }
  };
  compact(&reader_index_, &dropped_views);
  compact(&membership_reader_index_, &dropped_member_views);
  compact(&list_reader_index_, &dropped_list_views);

  watermark_ = std::max(watermark_, watermark);
}

size_t KeyEngine::TrimListsBelowHorizon() {
  return lists_.TrimTo(watermark_);
}

template <typename IO>
void KeyEngine::Transfer(IO& io) {
  io.U64(watermark_);
  versions_.Transfer(io);
  lists_.Transfer(io);
  ongoing_.Transfer(io);
  spill_.TransferManifest(io);
  io.Map(local_txns_, /*tid .. list read count*/ 56, [&](auto& rec) {
    io.U64(rec.view_ts);
    io.U64(rec.commit_ts);
    io.U8(rec.finalized);
    io.U8(rec.level, IsolationLevel::kSer, IsolationLevel::kRa);
    io.Seq(rec.ext_reads, /*key .. last_change_ms*/ 40, [&](auto& er) {
      io.U64(er.key);
      io.I64(er.observed);
      io.U8(er.satisfied);
      io.U64(er.flips);
      io.U64(er.last_change_ms);
    });
    io.Seq(rec.list_reads, /*key .. last_change_ms*/ 40, [&](auto& lr) {
      io.U64(lr.key);
      io.Values(lr.observed);
      io.U8(lr.satisfied);
      io.U64(lr.flips);
      io.U64(lr.last_change_ms);
    });
  });
  io.Seq(commit_index_, /*cts, tid*/ 16, [&](auto& e) {
    io.U64(e.first);
    io.U64(e.second);
  });
  if constexpr (IO::kReading) RebuildReaderIndexes();
}

template void KeyEngine::Transfer(StateWriter&);
template void KeyEngine::Transfer(StateReader&);

void KeyEngine::RebuildReaderIndexes() {
  // Every resident transaction's reads are registered (refs persist
  // until the record itself is dropped), so rebuilding from local_txns_
  // and sorting by the unique view timestamps reproduces the chains.
  reader_index_.clear();
  membership_reader_index_.clear();
  list_reader_index_.clear();
  for (const auto& [tid, rec] : local_txns_) {
    auto* ext_index = MembershipLevel(rec.level) ? &membership_reader_index_
                                                 : &reader_index_;
    for (uint32_t i = 0; i < rec.ext_reads.size(); ++i) {
      (*ext_index)[rec.ext_reads[i].key].push_back(
          ReaderRef{rec.view_ts, tid, i});
    }
    for (uint32_t i = 0; i < rec.list_reads.size(); ++i) {
      list_reader_index_[rec.list_reads[i].key].push_back(
          ReaderRef{rec.view_ts, tid, i});
    }
  }
  for (auto* index :
       {&reader_index_, &membership_reader_index_, &list_reader_index_}) {
    for (auto& [key, chain] : *index) {
      std::sort(chain.begin(), chain.end(),
                [](const ReaderRef& a, const ReaderRef& b) {
                  return a.view_ts < b.view_ts;
                });
    }
  }
}

}  // namespace chronos

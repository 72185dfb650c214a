// Incremental-accounting invariants of the flat hot-path structures:
// VersionedKv's running version/byte counters and trigger-heap GC, and
// OngoingIndex's and ListKv's GC against brute-force models, must stay
// exact under every mutation order (in-order puts, out-of-order puts,
// GC, re-insert, checkpoint restore).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "core/list_kv.h"
#include "core/ongoing_index.h"
#include "core/state_io.h"
#include "core/versioned_kv.h"

namespace chronos {
namespace {

TEST(VersionedKvAccountingTest, TotalVersionsTracksPutEvictRestore) {
  VersionedKv kv;
  EXPECT_EQ(kv.TotalVersions(), 0u);
  kv.Put(1, 10, 1, 100);
  kv.Put(1, 20, 2, 101);
  kv.Put(2, 15, 5, 102);
  EXPECT_EQ(kv.TotalVersions(), 3u);

  std::vector<std::tuple<Key, Timestamp, VersionEntry>> evicted;
  EXPECT_EQ(kv.CollectUpTo(25, &evicted), 1u);  // key 1: ts-10 out
  EXPECT_EQ(kv.TotalVersions(), 2u);

  for (const auto& [k, ts, e] : evicted) kv.Put(k, ts, e.value, e.tid);
  EXPECT_EQ(kv.TotalVersions(), 3u);
  EXPECT_EQ(kv.GetAtOrBefore(1, 15).value, 1);
}

TEST(VersionedKvAccountingTest, ApproxBytesGrowsAndShrinks) {
  VersionedKv kv;
  size_t empty = kv.ApproxBytes();
  for (int i = 0; i < 1000; ++i) {
    kv.Put(i % 10, static_cast<Timestamp>(i + 1), i, i);
  }
  size_t full = kv.ApproxBytes();
  EXPECT_GT(full, empty);
  kv.CollectUpTo(900);
  EXPECT_LT(kv.ApproxBytes(), full);
}

TEST(VersionedKvAccountingTest, OutOfOrderPutKeepsChainSorted) {
  VersionedKv kv;
  kv.Put(1, 30, 3, 103);
  kv.Put(1, 10, 1, 101);  // straggler below the chain head
  kv.Put(1, 20, 2, 102);  // straggler in the middle
  EXPECT_EQ(kv.GetAtOrBefore(1, 15).value, 1);
  EXPECT_EQ(kv.GetAtOrBefore(1, 25).value, 2);
  EXPECT_EQ(kv.GetAtOrBefore(1, 35).value, 3);
  EXPECT_EQ(kv.NextVersionAfter(1, 10).value(), 20u);
  EXPECT_FALSE(kv.Put(1, 20, 9, 104)) << "duplicate ts must be rejected";
  EXPECT_EQ(kv.TotalVersions(), 3u);
}

TEST(VersionedKvAccountingTest, GcCollectsKeyDirtiedByOutOfOrderPut) {
  // A key armed for GC, collected, then re-dirtied below the old
  // watermark by a straggler: the trigger heap must re-arm it.
  VersionedKv kv;
  kv.Put(1, 10, 1, 101);
  kv.Put(1, 50, 5, 105);
  EXPECT_EQ(kv.CollectUpTo(60), 1u);  // ts-10 out, ts-50 is the base
  kv.Put(1, 70, 7, 107);
  kv.Put(1, 60, 6, 106);  // out-of-order: between base and head
  EXPECT_EQ(kv.CollectUpTo(80), 2u) << "ts-50 and ts-60 must be evicted";
  EXPECT_EQ(kv.GetAtOrBefore(1, 100).value, 7);
  EXPECT_EQ(kv.TotalVersions(), 1u);
}

TEST(VersionedKvAccountingTest, SparseGcMatchesFullScanSemantics) {
  // Randomized: O(dirty) GC must evict exactly what the seed's full-key
  // scan evicted — per key, everything strictly below the latest version
  // at or under the watermark.
  std::mt19937_64 rng(42);
  VersionedKv kv;
  std::map<Key, std::map<Timestamp, Value>> reference;
  for (int i = 0; i < 2000; ++i) {
    Key k = rng() % 50;
    Timestamp ts = 1 + rng() % 10000;
    Value v = static_cast<Value>(rng() % 1000);
    bool ok = kv.Put(k, ts, v, i);
    bool ref_ok = reference[k].emplace(ts, v).second;
    ASSERT_EQ(ok, ref_ok);
  }
  for (Timestamp wm : {2000u, 5000u, 5000u, 9000u}) {
    size_t expect_evicted = 0;
    for (auto& [k, m] : reference) {
      auto end = m.upper_bound(wm);
      if (end == m.begin()) continue;
      --end;
      while (m.begin() != end) {
        m.erase(m.begin());
        ++expect_evicted;
      }
    }
    EXPECT_EQ(kv.CollectUpTo(wm), expect_evicted) << "watermark " << wm;
    size_t ref_total = 0;
    for (const auto& [k, m] : reference) ref_total += m.size();
    ASSERT_EQ(kv.TotalVersions(), ref_total);
    for (const auto& [k, m] : reference) {
      for (const auto& [ts, v] : m) {
        ASSERT_EQ(kv.GetAtOrBefore(k, ts).value, v)
            << "key " << k << " ts " << ts;
      }
    }
  }
}

TEST(OngoingIndexAccountingTest, TotalIntervalsTracksAddEvictRestore) {
  OngoingIndex idx;
  EXPECT_EQ(idx.TotalIntervals(), 0u);
  idx.Add(1, 10, 20, 100);
  idx.Add(1, 30, 40, 101);
  idx.Add(2, 5, 50, 102);
  EXPECT_EQ(idx.TotalIntervals(), 3u);

  std::vector<std::pair<Key, WriteInterval>> evicted;
  EXPECT_EQ(idx.CollectUpTo(25, &evicted), 1u);  // key 1's [10,20]
  EXPECT_EQ(idx.TotalIntervals(), 2u);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].second.tid, 100u);

  const auto& [key, iv] = evicted[0];
  idx.Add(key, iv.start, iv.end, iv.tid);
  EXPECT_EQ(idx.TotalIntervals(), 3u);
  EXPECT_EQ(idx.Overlapping(1, 12, 18).size(), 1u);
}

TEST(OngoingIndexAccountingTest, RepeatedGcOnlyTouchesDirtyKeys) {
  OngoingIndex idx;
  for (Key k = 0; k < 100; ++k) {
    idx.Add(k, 1000 + k, 2000 + k, k);  // all high: clean at low watermark
  }
  idx.Add(7, 1, 2, 999);
  EXPECT_EQ(idx.CollectUpTo(10, nullptr), 1u);
  EXPECT_EQ(idx.CollectUpTo(10, nullptr), 0u) << "second pass is a no-op";
  EXPECT_EQ(idx.TotalIntervals(), 100u);
  EXPECT_EQ(idx.CollectUpTo(2100, nullptr), 100u);
  EXPECT_EQ(idx.TotalIntervals(), 0u);
}

using Evicted = std::vector<std::pair<Key, WriteInterval>>;
using EvictedRow = std::tuple<Key, Timestamp, Timestamp, TxnId>;

std::vector<EvictedRow> Rows(const Evicted& ev) {
  std::vector<EvictedRow> rows;
  for (const auto& [k, iv] : ev) rows.emplace_back(k, iv.start, iv.end, iv.tid);
  return rows;
}

std::vector<EvictedRow> SortedRows(const Evicted& ev) {
  std::vector<EvictedRow> rows = Rows(ev);
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Fails if a key's evictions in `ev` are split over two runs.
void ExpectOneRunPerKey(const Evicted& ev) {
  std::set<Key> seen;
  for (size_t i = 0; i < ev.size(); ++i) {
    if (i > 0 && ev[i].first == ev[i - 1].first) continue;
    EXPECT_TRUE(seen.insert(ev[i].first).second)
        << "key " << ev[i].first << " evicted in two runs";
  }
}

std::vector<TxnId> SortedTids(const std::vector<WriteInterval>& ivs) {
  std::vector<TxnId> tids;
  for (const WriteInterval& iv : ivs) tids.push_back(iv.tid);
  std::sort(tids.begin(), tids.end());
  return tids;
}

TEST(OngoingIndexAccountingTest, GcMatchesBruteForceAcrossPasses) {
  // Hundreds of GC passes against a brute-force per-key vector: one hot
  // key with a wide live window, many cold keys, long straddlers,
  // self-stamped [ts, ts] writers (some landing exactly on a watermark),
  // commits out of order and stragglers below the watermark. Half-way a
  // copy restored through Transfer forks off; from then on its GC must evict
  // exactly what the uninterrupted index evicts, in the same order.
  constexpr Key kHot = 0;
  constexpr Key kColdKeys = 200;
  constexpr int kPasses = 400;
  std::mt19937_64 rng(13);
  OngoingIndex idx;
  std::optional<OngoingIndex> restored;
  std::map<Key, std::vector<WriteInterval>> ref;
  Timestamp clock = 5000;
  Timestamp wm = 0;
  Timestamp last_point = 0;  // commit ts of the newest [ts, ts] writer
  TxnId tid = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (int b = 0; b < 24; ++b) {
      clock += 1 + rng() % 4;
      Timestamp commit = clock - rng() % 60;
      if (wm > 2000 && rng() % 20 == 0) commit = wm - rng() % 50;  // straggler
      Timestamp len = rng() % 40;
      switch (rng() % 10) {
        case 0: len = 0; break;                  // self-stamped
        case 1: len = 200 + rng() % 800; break;  // long straddler
        default: break;
      }
      WriteInterval iv{commit - len, commit, ++tid};
      if (len == 0) last_point = commit;
      std::vector<Key> keys = {1 + rng() % kColdKeys};
      if (rng() % 2 == 0) keys.push_back(kHot);
      for (Key k : keys) {
        idx.Add(k, iv.start, iv.end, iv.tid);
        if (restored) restored->Add(k, iv.start, iv.end, iv.tid);
        ref[k].push_back(iv);
      }
    }
    // Mostly a lagging, sometimes stalled watermark; every third pass it
    // lands on the newest self-stamped commit.
    if (pass % 3 == 0) {
      wm = std::max(wm, last_point);
    } else if (rng() % 4 != 0) {
      wm = std::max(wm, clock - 100 - rng() % 200);
    }

    Evicted got;
    size_t n = idx.CollectUpTo(wm, &got);
    ASSERT_EQ(n, got.size());
    Evicted want;
    size_t ref_total = 0;
    for (auto it = ref.begin(); it != ref.end();) {
      std::vector<WriteInterval>& ivs = it->second;
      auto cut = std::partition(
          ivs.begin(), ivs.end(),
          [&](const WriteInterval& iv) { return iv.end > wm; });
      for (auto e = cut; e != ivs.end(); ++e) want.emplace_back(it->first, *e);
      ivs.erase(cut, ivs.end());
      ref_total += ivs.size();
      it = ivs.empty() ? ref.erase(it) : std::next(it);
    }
    ASSERT_EQ(SortedRows(got), SortedRows(want)) << "pass " << pass;
    ASSERT_EQ(idx.TotalIntervals(), ref_total) << "pass " << pass;
    ExpectOneRunPerKey(got);

    if (restored) {
      Evicted got_restored;
      restored->CollectUpTo(wm, &got_restored);
      ASSERT_EQ(Rows(got_restored), Rows(got)) << "pass " << pass;
      ASSERT_EQ(restored->TotalIntervals(), ref_total);
    } else if (pass == kPasses / 2) {
      StateWriter w;
      idx.Transfer(w);
      StateReader r(w.data());
      restored.emplace();
      restored->Transfer(r);
      ASSERT_TRUE(r.ok());
      ASSERT_TRUE(r.AtEnd());
      ASSERT_EQ(restored->TotalIntervals(), ref_total);
    }

    for (int q = 0; q < 8; ++q) {
      Key k = q == 0 ? kHot : rng() % (kColdKeys + 1);
      Timestamp lo = std::max<Timestamp>(wm, 100) - 100 + rng() % 400;
      Timestamp hi = lo + rng() % 30;
      std::vector<WriteInterval> brute;
      auto it = ref.find(k);
      if (it != ref.end()) {
        for (const WriteInterval& iv : it->second) {
          if (iv.start <= hi && iv.end >= lo) brute.push_back(iv);
        }
      }
      ASSERT_EQ(SortedTids(idx.Overlapping(k, lo, hi)), SortedTids(brute))
          << "pass " << pass << " key " << k << " [" << lo << "," << hi
          << "]";
      if (restored) {
        ASSERT_EQ(SortedTids(restored->Overlapping(k, lo, hi)),
                  SortedTids(brute));
      }
    }
  }
}

using ListRow = std::tuple<Key, Timestamp, TxnId, std::vector<Value>>;

std::vector<ListRow> Rows(const std::vector<ListSpillVersion>& ev) {
  std::vector<ListRow> rows;
  for (const ListSpillVersion& lv : ev) {
    rows.emplace_back(lv.key, lv.ts, lv.tid, lv.delta);
  }
  return rows;
}

TEST(ListKvAccountingTest, GcMatchesBruteForceAcrossPasses) {
  // Hundreds of GC passes against a brute-force per-key model: a hot key,
  // many cold keys, in-chain commits out of order (some below the
  // watermark, re-dirtying a collected key through the chain rule) and
  // stragglers below a collapsed base (merged through PutBelowBase, as
  // KeyEngine routes them). Half-way a copy restored through Transfer
  // forks off; from then on its GC must evict exactly what the uninterrupted
  // structure evicts, in the same order.
  constexpr Key kHot = 0;
  constexpr Key kColdKeys = 60;
  constexpr int kPasses = 300;
  struct Model {
    std::map<Timestamp, std::pair<TxnId, std::vector<Value>>> live;
    std::vector<std::pair<Timestamp, size_t>> spilled_lens;  // ts order
    std::map<Timestamp, std::vector<Value>> all;  // every delta ever put
  };
  std::mt19937_64 rng(17);
  ListKv kv;
  std::optional<ListKv> restored;
  std::map<Key, Model> model;
  std::set<Timestamp> used;
  Timestamp clock = 1000;
  Timestamp wm = 0;
  TxnId tid = 0;
  Value next_value = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (int b = 0; b < 16; ++b) {
      clock += 2 + rng() % 4;
      Timestamp ts = clock - rng() % 30;
      if (wm > 200 && rng() % 8 == 0) ts = wm - rng() % 150;  // below wm
      if (!used.insert(ts).second) continue;
      Key k = rng() % 2 == 0 ? kHot : 1 + rng() % kColdKeys;
      std::vector<Value> delta(1 + rng() % 3);
      for (Value& v : delta) v = ++next_value;
      ++tid;
      Model& m = model[k];
      m.all.emplace(ts, delta);
      Timestamp base = kv.BaseTs(k);
      if (base != kTsMin && base <= wm && ts < base) {
        ASSERT_TRUE(kv.PutBelowBase(k, ts, delta, tid, m.spilled_lens));
        if (restored) {
          ASSERT_TRUE(restored->PutBelowBase(k, ts, delta, tid, m.spilled_lens));
        }
      } else {
        ASSERT_TRUE(kv.Put(k, ts, delta, tid));
        if (restored) {
          ASSERT_TRUE(restored->Put(k, ts, delta, tid));
        }
        m.live.emplace(ts, std::make_pair(tid, delta));
      }
    }
    if (rng() % 4 != 0) wm = std::max(wm, clock - 40 - rng() % 100);

    std::vector<ListSpillVersion> got;
    size_t n = kv.CollectUpTo(wm, &got);
    ASSERT_EQ(n, got.size());
    std::vector<ListRow> want;
    size_t ref_total = 0;
    for (auto& [k, m] : model) {
      auto end = m.live.upper_bound(wm);
      if (end != m.live.begin()) {
        --end;  // the retained base
        for (auto it = m.live.begin(); it != end; ++it) {
          want.emplace_back(k, it->first, it->second.first, it->second.second);
          m.spilled_lens.emplace_back(it->first, it->second.second.size());
        }
        m.live.erase(m.live.begin(), end);
        std::sort(m.spilled_lens.begin(), m.spilled_lens.end());
      }
      ref_total += m.live.size();
    }
    std::vector<ListRow> got_rows = Rows(got);
    std::vector<ListRow> sorted_got = got_rows;
    std::sort(sorted_got.begin(), sorted_got.end());
    std::sort(want.begin(), want.end());
    ASSERT_EQ(sorted_got, want) << "pass " << pass;
    ASSERT_EQ(kv.TotalVersions(), ref_total) << "pass " << pass;

    if (restored) {
      std::vector<ListSpillVersion> got_restored;
      restored->CollectUpTo(wm, &got_restored);
      ASSERT_EQ(Rows(got_restored), got_rows) << "pass " << pass;
      ASSERT_EQ(restored->TotalVersions(), ref_total);
    } else if (pass == kPasses / 2) {
      StateWriter w;
      kv.Transfer(w);
      StateReader r(w.data());
      restored.emplace();
      restored->Transfer(r);
      ASSERT_TRUE(r.ok());
      ASSERT_TRUE(r.AtEnd());
      ASSERT_EQ(restored->TotalVersions(), ref_total);
    }

    // Every view at or above a key's base resolves to the concatenation
    // of all its deltas up to the view, in ts order: GC collapses
    // boundaries but never drops elements.
    for (int q = 0; q < 6; ++q) {
      Key k = q == 0 ? kHot : 1 + rng() % kColdKeys;
      auto mit = model.find(k);
      if (mit == model.end() || mit->second.live.empty()) continue;
      Timestamp view = mit->second.live.begin()->first + rng() % 200;
      std::vector<Value> brute;
      for (const auto& [ts, delta] : mit->second.all) {
        if (ts <= view) brute.insert(brute.end(), delta.begin(), delta.end());
      }
      for (const ListKv* s : {&kv, restored ? &*restored : nullptr}) {
        if (!s) continue;
        ListKv::Prefix p = s->PrefixAt(k, view, /*inclusive=*/true);
        ASSERT_EQ(p.trimmed, 0u);
        ASSERT_EQ(std::vector<Value>(p.data, p.data + p.len), brute)
            << "pass " << pass << " key " << k << " view " << view;
      }
    }
  }
}

}  // namespace
}  // namespace chronos

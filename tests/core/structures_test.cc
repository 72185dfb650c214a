// Unit tests for the timestamp-versioned data structures: VersionedKv
// (frontier_ts), OngoingIndex (ongoing_ts), the shared
// GcTriggers heap and tail-anchored chain searches, SmallMap, and the
// spill store.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "../testutil.h"
#include "core/gc_triggers.h"
#include "core/list_kv.h"
#include "core/ongoing_index.h"
#include "core/small_map.h"
#include "core/spill.h"
#include "core/state_io.h"
#include "core/versioned_kv.h"

namespace chronos {
namespace {

TEST(VersionedKvTest, LookupFallsBackToInitialValue) {
  VersionedKv kv;
  EXPECT_EQ(kv.GetAtOrBefore(1, 100).value, kValueInit);
  EXPECT_EQ(kv.GetAtOrBefore(1, 100).tid, kTxnNone);
}

TEST(VersionedKvTest, InclusiveAndExclusiveBounds) {
  VersionedKv kv;
  ASSERT_TRUE(kv.Put(1, 10, 7, 100));
  EXPECT_EQ(kv.GetAtOrBefore(1, 10).value, 7);   // SI view: cts <= view
  EXPECT_EQ(kv.GetBefore(1, 10).value, kValueInit);  // SER view: cts < view
  EXPECT_EQ(kv.GetBefore(1, 11).value, 7);
}

TEST(VersionedKvTest, DuplicateTimestampRejected) {
  VersionedKv kv;
  ASSERT_TRUE(kv.Put(1, 10, 7, 100));
  EXPECT_FALSE(kv.Put(1, 10, 8, 101));
}

TEST(VersionedKvTest, NextVersionAfterBoundsRecheckWindow) {
  VersionedKv kv;
  kv.Put(1, 10, 1, 100);
  kv.Put(1, 30, 3, 101);
  EXPECT_EQ(kv.NextVersionAfter(1, 10).value(), 30u);
  EXPECT_EQ(kv.NextVersionAfter(1, 5).value(), 10u);
  EXPECT_FALSE(kv.NextVersionAfter(1, 30).has_value());
  EXPECT_FALSE(kv.NextVersionAfter(2, 0).has_value());
}

TEST(VersionedKvTest, CollectKeepsBaseVersion) {
  VersionedKv kv;
  kv.Put(1, 10, 1, 100);
  kv.Put(1, 20, 2, 101);
  kv.Put(1, 30, 3, 102);
  std::vector<std::tuple<Key, Timestamp, VersionEntry>> evicted;
  EXPECT_EQ(kv.CollectUpTo(25, &evicted), 1u);  // ts-10 evicted, ts-20 kept
  EXPECT_EQ(evicted.size(), 1u);
  EXPECT_EQ(kv.GetAtOrBefore(1, 25).value, 2) << "base remains queryable";
  EXPECT_EQ(kv.GetAtOrBefore(1, 35).value, 3);
}

TEST(VersionedKvTest, RestoreReloadsEvictedVersion) {
  VersionedKv kv;
  kv.Put(1, 10, 1, 100);
  kv.Put(1, 20, 2, 101);
  std::vector<std::tuple<Key, Timestamp, VersionEntry>> evicted;
  kv.CollectUpTo(25, &evicted);
  for (const auto& [k, ts, e] : evicted) kv.Put(k, ts, e.value, e.tid);
  EXPECT_EQ(kv.GetAtOrBefore(1, 15).value, 1);
}

// OngoingIndex on one key: overlap answers come in (start, tid) order,
// evictions in (end, tid) order.
constexpr Key kIvKey = 1;
using Evicted = std::vector<std::pair<Key, WriteInterval>>;

std::vector<TxnId> Tids(const std::vector<WriteInterval>& ivs) {
  std::vector<TxnId> tids;
  for (const WriteInterval& iv : ivs) tids.push_back(iv.tid);
  return tids;
}

std::vector<TxnId> Tids(const Evicted& ev) {
  std::vector<TxnId> tids;
  for (const auto& [k, iv] : ev) tids.push_back(iv.tid);
  return tids;
}

TEST(OngoingIndexTest, OverlapQueryFindsContainedAndSpanning) {
  OngoingIndex idx;
  idx.Add(kIvKey, 10, 20, 1);
  idx.Add(kIvKey, 15, 25, 2);
  idx.Add(kIvKey, 30, 40, 3);
  EXPECT_EQ(Tids(idx.Overlapping(kIvKey, 18, 22)), (std::vector<TxnId>{1, 2}));
  EXPECT_TRUE(idx.Overlapping(kIvKey, 26, 29).empty());
  EXPECT_EQ(Tids(idx.Overlapping(kIvKey, 35, 35)), (std::vector<TxnId>{3}));
  EXPECT_TRUE(idx.Overlapping(kIvKey + 1, 0, 100).empty()) << "other key";
}

TEST(OngoingIndexTest, LongSpanningIntervalIsNotMissed) {
  // The pathological case a sorted-disjoint map would miss: an old
  // interval spanning far beyond its successors.
  OngoingIndex idx;
  idx.Add(kIvKey, 0, 100, 1);
  idx.Add(kIvKey, 50, 60, 2);
  idx.Add(kIvKey, 55, 58, 3);
  EXPECT_EQ(Tids(idx.Overlapping(kIvKey, 55, 58)),
            (std::vector<TxnId>{1, 2, 3}));
}

TEST(OngoingIndexTest, EvictEndingUpToRemovesOnlyOldIntervals) {
  OngoingIndex idx;
  idx.Add(kIvKey, 1, 5, 1);
  idx.Add(kIvKey, 2, 50, 2);
  idx.Add(kIvKey, 6, 9, 3);
  Evicted evicted;
  EXPECT_EQ(idx.CollectUpTo(10, &evicted), 2u);
  EXPECT_EQ(Tids(evicted), (std::vector<TxnId>{1, 3}));
  EXPECT_EQ(idx.TotalIntervals(), 1u);
  EXPECT_EQ(Tids(idx.Overlapping(kIvKey, 25, 25)), (std::vector<TxnId>{2}));
}

TEST(OngoingIndexTest, EvictEndingUpToBoundaryAtWatermark) {
  // At watermark 10: self-stamped [10, 10] writers tie on start across
  // tids and must all go, while their [10, 11] and [10, 25] siblings
  // with the same start stay, as do straddlers (start <= 10 < end) and
  // intervals starting after 10. Every insertion order evicts the same
  // sequence and answers the same queries.
  const std::vector<WriteInterval> ivs = {
      {10, 10, 5}, {10, 10, 1},  {10, 10, 9},  {10, 11, 3},
      {10, 11, 7}, {4, 10, 2},   {3, 7, 11},   {2, 30, 4},
      {10, 25, 6}, {11, 11, 8},  {12, 20, 10}, {10, 10, 12}};
  std::mt19937_64 rng(3);
  for (int rep = 0; rep < 200; ++rep) {
    std::vector<WriteInterval> order = ivs;
    std::shuffle(order.begin(), order.end(), rng);
    OngoingIndex idx;
    for (const WriteInterval& iv : order) {
      idx.Add(kIvKey, iv.start, iv.end, iv.tid);
    }
    Evicted evicted;
    ASSERT_EQ(idx.CollectUpTo(10, &evicted), 6u) << "rep " << rep;
    ASSERT_EQ(Tids(evicted), (std::vector<TxnId>{11, 1, 2, 5, 9, 12}))
        << "rep " << rep;
    ASSERT_EQ(idx.TotalIntervals(), 6u);
    ASSERT_EQ(Tids(idx.Overlapping(kIvKey, 10, 10)),
              (std::vector<TxnId>{4, 3, 6, 7}));
    ASSERT_EQ(Tids(idx.Overlapping(kIvKey, 11, 11)),
              (std::vector<TxnId>{4, 3, 6, 7, 8}));
    ASSERT_EQ(Tids(idx.Overlapping(kIvKey, 0, 9)), (std::vector<TxnId>{4}));
    ASSERT_EQ(Tids(idx.Overlapping(kIvKey, 12, 40)),
              (std::vector<TxnId>{4, 6, 10}));
    EXPECT_EQ(idx.CollectUpTo(10, nullptr), 0u) << "idempotent";
  }
}

TEST(OngoingIndexTest, ReorderedArrivalBelowExistingIntervals) {
  // Writers that commit before intervals already inserted: one lands
  // mid-chain and must lower the earlier entries' min_start, one lands
  // at the front and must lower the key's GC trigger.
  OngoingIndex idx;
  idx.Add(kIvKey, 10, 20, 1);
  idx.Add(kIvKey, 30, 40, 2);
  idx.Add(kIvKey, 35, 50, 3);
  idx.Add(kIvKey, 5, 25, 4);
  idx.Add(kIvKey, 2, 8, 5);
  // [10, 20] ends first but starts after 7; the scan must pass it to
  // reach [5, 25].
  EXPECT_EQ(Tids(idx.Overlapping(kIvKey, 6, 7)), (std::vector<TxnId>{5, 4}));
  EXPECT_EQ(Tids(idx.Overlapping(kIvKey, 3, 3)), (std::vector<TxnId>{5}));
  EXPECT_EQ(Tids(idx.Overlapping(kIvKey, 12, 14)), (std::vector<TxnId>{4, 1}));
  EXPECT_EQ(Tids(idx.Overlapping(kIvKey, 22, 32)), (std::vector<TxnId>{4, 2}));
  Evicted evicted;
  EXPECT_EQ(idx.CollectUpTo(9, &evicted), 1u) << "trigger lowered to 8";
  EXPECT_EQ(Tids(evicted), (std::vector<TxnId>{5}));
  evicted.clear();
  EXPECT_EQ(idx.CollectUpTo(30, &evicted), 2u);
  EXPECT_EQ(Tids(evicted), (std::vector<TxnId>{1, 4}));
  EXPECT_EQ(idx.TotalIntervals(), 2u);
}

TEST(OngoingIndexTest, TransferReadAcceptsAnyOrderWithinAKey) {
  // Checkpoints written before chains were end-sorted list a key's
  // intervals in another order; a read must rebuild the same index.
  const std::vector<WriteInterval> arrival = {
      {10, 20, 1}, {30, 40, 2}, {35, 50, 3}, {5, 25, 4}, {2, 8, 5}};
  StateWriter w;
  w.U64(2);  // keys
  w.U64(kIvKey);
  w.U64(arrival.size());
  for (const WriteInterval& iv : arrival) {
    w.U64(iv.start);
    w.U64(iv.end);
    w.U64(iv.tid);
  }
  w.U64(kIvKey + 1);
  w.U64(0);  // an empty chain is dropped
  OngoingIndex read;
  StateReader r(w.data());
  read.Transfer(r);
  ASSERT_TRUE(r.ok() && r.AtEnd());
  OngoingIndex added;
  for (const WriteInterval& iv : arrival) {
    added.Add(kIvKey, iv.start, iv.end, iv.tid);
  }
  StateWriter from_read, from_added;
  read.Transfer(from_read);
  added.Transfer(from_added);
  EXPECT_EQ(from_read.data(), from_added.data());
  EXPECT_EQ(read.TotalIntervals(), 5u);
  EXPECT_EQ(Tids(read.Overlapping(kIvKey, 6, 7)), (std::vector<TxnId>{5, 4}));
  Evicted evicted;
  EXPECT_EQ(read.CollectUpTo(9, &evicted), 1u) << "trigger at the front";
  EXPECT_EQ(Tids(evicted), (std::vector<TxnId>{5}));
}

TEST(OngoingIndexTest, RandomizedAgainstBruteForce) {
  std::mt19937_64 rng(7);
  OngoingIndex idx;
  std::vector<WriteInterval> reference;
  for (int i = 0; i < 500; ++i) {
    Timestamp s = rng() % 1000;
    WriteInterval iv{s, s + rng() % 50, static_cast<TxnId>(i)};
    idx.Add(kIvKey, iv.start, iv.end, iv.tid);
    reference.push_back(iv);
  }
  std::sort(reference.begin(), reference.end(),
            [](const WriteInterval& a, const WriteInterval& b) {
              return a.start != b.start ? a.start < b.start : a.tid < b.tid;
            });
  for (int q = 0; q < 200; ++q) {
    Timestamp lo = rng() % 1000, hi = lo + rng() % 100;
    std::vector<WriteInterval> expected;
    for (const auto& iv : reference) {
      if (iv.start <= hi && iv.end >= lo) expected.push_back(iv);
    }
    ASSERT_EQ(Tids(idx.Overlapping(kIvKey, lo, hi)), Tids(expected))
        << "query [" << lo << "," << hi << "]";
  }
}

TEST(GcTriggersTest, KeyArmedManyTimesIsVisitedOncePerPass) {
  GcTriggers triggers;
  for (Timestamp ts = 1; ts <= 50; ++ts) triggers.Arm(ts, 7);
  triggers.Arm(3, 8);
  std::vector<Key> visits;
  triggers.PassUpTo(40, [&](Key k) { visits.push_back(k); });
  EXPECT_EQ(visits, (std::vector<Key>{7, 8}));
  // Key 7's triggers 41..50 survived the pass; they fire once more.
  visits.clear();
  triggers.PassUpTo(100, [&](Key k) { visits.push_back(k); });
  EXPECT_EQ(visits, (std::vector<Key>{7}));
  visits.clear();
  triggers.PassUpTo(100, [&](Key k) { visits.push_back(k); });
  EXPECT_TRUE(visits.empty()) << "a drained heap visits nothing";
}

TEST(GcTriggersTest, TriggersArmedAboveTsDuringAPassWaitForTheNextPass) {
  GcTriggers triggers;
  triggers.Arm(10, 1);
  triggers.Arm(20, 2);
  std::vector<Key> visits;
  triggers.PassUpTo(20, [&](Key k) {
    visits.push_back(k);
    triggers.Arm(21, k);   // re-arm above the pass
    triggers.Arm(30, 3);   // a new key above the pass
  });
  EXPECT_EQ(visits, (std::vector<Key>{1, 2}));
  visits.clear();
  triggers.PassUpTo(25, [&](Key k) { visits.push_back(k); });
  EXPECT_EQ(visits, (std::vector<Key>{1, 2}));
  visits.clear();
  triggers.PassUpTo(30, [&](Key k) { visits.push_back(k); });
  EXPECT_EQ(visits, (std::vector<Key>{3}));
}

TEST(GcTriggersTest, VisitsComeInAscendingTsThenKeyOrder) {
  // Spill payload order, hence epoch bytes, follows the visit order.
  std::mt19937_64 rng(5);
  GcTriggers triggers;
  std::map<Key, Timestamp> first;  // each key's lowest trigger
  for (int i = 0; i < 500; ++i) {
    Key k = rng() % 60;
    Timestamp ts = 1 + rng() % 40;  // many ties across keys
    triggers.Arm(ts, k);
    auto [it, fresh] = first.emplace(k, ts);
    if (!fresh) it->second = std::min(it->second, ts);
  }
  std::vector<std::pair<Timestamp, Key>> want;
  for (const auto& [k, ts] : first) want.emplace_back(ts, k);
  std::sort(want.begin(), want.end());
  std::vector<std::pair<Timestamp, Key>> got;
  triggers.PassUpTo(40, [&](Key k) { got.emplace_back(first.at(k), k); });
  EXPECT_EQ(got, want);
}

// TailLowerBound/TailUpperBound must return exactly what
// std::lower_bound/std::upper_bound return, for every target and both
// comparator shapes the chains use: TsOrder (element <-> Timestamp) and
// OngoingIndex::EndTidLess (element <-> element).
struct TsElem {
  Timestamp ts = 0;
};

void ExpectTailBoundsMatchStd(const std::vector<TsElem>& v, Timestamp t) {
  EXPECT_EQ(TailLowerBound(v.begin(), v.end(), t, TsOrder{}),
            std::lower_bound(v.begin(), v.end(), t, TsOrder{}))
      << "n=" << v.size() << " t=" << t;
  EXPECT_EQ(TailUpperBound(v.begin(), v.end(), t, TsOrder{}),
            std::upper_bound(v.begin(), v.end(), t, TsOrder{}))
      << "n=" << v.size() << " t=" << t;
}

TEST(TailSearchTest, EmptyAndSingleElementRanges) {
  std::vector<TsElem> v;
  for (Timestamp t : {Timestamp{0}, Timestamp{5}}) {
    ExpectTailBoundsMatchStd(v, t);
    EXPECT_EQ(TsLowerBound(v, t), v.end());
    EXPECT_EQ(TsUpperBound(v, t), v.end());
  }
  v.push_back({5});
  for (Timestamp t : {Timestamp{4}, Timestamp{5}, Timestamp{6}}) {
    ExpectTailBoundsMatchStd(v, t);
  }
  EXPECT_EQ(TsLowerBound(v, 5), v.begin());
  EXPECT_EQ(TsUpperBound(v, 5), v.end());
}

TEST(TailSearchTest, RandomizedTsOrderMatchesStd) {
  std::mt19937_64 rng(11);
  for (int round = 0; round < 300; ++round) {
    const size_t n = rng() % 200;
    std::vector<TsElem> v(n);
    // Small ranges give long runs of duplicates.
    const Timestamp range = 1 + rng() % (round % 2 ? 8 : 1000);
    for (TsElem& e : v) e.ts = 10 + rng() % range;
    std::sort(v.begin(), v.end(),
              [](const TsElem& a, const TsElem& b) { return a.ts < b.ts; });
    // Before the front, past the back, every present value and its
    // neighbours.
    ExpectTailBoundsMatchStd(v, 0);
    ExpectTailBoundsMatchStd(v, 10 + range + 5);
    for (const TsElem& e : v) {
      ExpectTailBoundsMatchStd(v, e.ts - 1);
      ExpectTailBoundsMatchStd(v, e.ts);
      ExpectTailBoundsMatchStd(v, e.ts + 1);
    }
  }
}

TEST(TailSearchTest, RandomizedEndTidLessMatchesStd) {
  using Entry = OngoingIndex::Entry;
  const auto less = OngoingIndex::EndTidLess;
  std::mt19937_64 rng(12);
  for (int round = 0; round < 300; ++round) {
    const size_t n = rng() % 150;
    std::vector<Entry> v(n);
    for (Entry& e : v) {
      e.iv.end = rng() % 20;  // many equal ends, ordered by tid
      e.iv.tid = rng() % 6;
      e.iv.start = 0;
      e.min_start = 0;
    }
    std::sort(v.begin(), v.end(), less);
    for (Timestamp end = 0; end <= 21; ++end) {
      for (TxnId tid = 0; tid <= 6; ++tid) {
        Entry probe{{0, end, tid}, 0};
        EXPECT_EQ(TailLowerBound(v.begin(), v.end(), probe, less),
                  std::lower_bound(v.begin(), v.end(), probe, less))
            << "n=" << n << " end=" << end << " tid=" << tid;
        EXPECT_EQ(TailUpperBound(v.begin(), v.end(), probe, less),
                  std::upper_bound(v.begin(), v.end(), probe, less))
            << "n=" << n << " end=" << end << " tid=" << tid;
      }
    }
  }
}

TEST(SmallMapTest, PutFindClear) {
  SmallMap<uint64_t, int> m;
  EXPECT_EQ(m.Find(1), nullptr);
  m.Put(1, 10);
  m.Put(2, 20);
  m.Put(1, 11);  // overwrite
  ASSERT_NE(m.Find(1), nullptr);
  EXPECT_EQ(*m.Find(1), 11);
  EXPECT_EQ(m.size(), 2u);
  m.Clear();
  EXPECT_TRUE(m.empty());
}

TEST(SpillStoreTest, RoundTripsPayload) {
  std::string dir = chronos::testing::UniqueTempDir("spill_rt");
  SpillStore store(dir);
  SpillPayload payload;
  payload.max_ts = 100;
  payload.versions.emplace_back(1, 10, VersionEntry{7, 42});
  payload.versions.emplace_back(2, 20, VersionEntry{-3, 43});
  payload.intervals.emplace_back(1, WriteInterval{5, 10, 42});
  uint64_t id = store.Spill(payload);
  ASSERT_NE(id, 0u);
  SpillPayload loaded;
  ASSERT_EQ(store.Load(id, &loaded), SpillStore::LoadStatus::kOk);
  ASSERT_EQ(loaded.versions.size(), 2u);
  EXPECT_EQ(std::get<0>(loaded.versions[0]), 1u);
  EXPECT_EQ(std::get<2>(loaded.versions[1]).value, -3);
  ASSERT_EQ(loaded.intervals.size(), 1u);
  EXPECT_EQ(loaded.intervals[0].second.tid, 42u);
  std::filesystem::remove_all(dir);
}

TEST(SpillStoreTest, NonPersistentModeDiscards) {
  SpillStore store("");
  SpillPayload payload;
  payload.versions.emplace_back(1, 10, VersionEntry{7, 42});
  EXPECT_EQ(store.Spill(payload), 0u);
  EXPECT_FALSE(store.persistent());
}

TEST(SpillStoreTest, EmptyPayloadNotSpilled) {
  std::string dir = chronos::testing::UniqueTempDir("spill_empty");
  SpillStore store(dir);
  EXPECT_EQ(store.Spill(SpillPayload{}), 0u);
  EXPECT_EQ(store.NumEpochs(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(SpillStoreTest, DistinguishesMissingFromCorruptEpochs) {
  std::string dir = chronos::testing::UniqueTempDir("spill_tristate");
  std::filesystem::remove_all(dir);
  SpillStore store(dir);
  SpillPayload payload;
  payload.max_ts = 50;
  payload.versions.emplace_back(1, 10, VersionEntry{7, 42});
  uint64_t id = store.Spill(payload);
  ASSERT_NE(id, 0u);

  SpillPayload loaded;
  EXPECT_EQ(store.Load(id, &loaded), SpillStore::LoadStatus::kOk);
  // An epoch id that was never spilled.
  EXPECT_EQ(store.Load(id + 99, &loaded), SpillStore::LoadStatus::kMissing);

  // A file that vanished (e.g. deleted out from under the checker).
  std::string path = store.PathFor(id);
  std::string bytes;
  {
    FILE* f = fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    size_t n = fread(buf, 1, sizeof(buf), f);
    bytes.assign(buf, n);
    fclose(f);
  }
  std::filesystem::remove(path);
  EXPECT_EQ(store.Load(id, &loaded), SpillStore::LoadStatus::kMissing);

  // A file that is present but unparseable — integrity failure, not a
  // silent miss (counted as CheckerStats::corrupt_spill_epochs by the
  // consulting engine).
  {
    FILE* f = fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    fputs("not a spill epoch\n", f);
    fclose(f);
  }
  EXPECT_EQ(store.Load(id, &loaded), SpillStore::LoadStatus::kCorrupt);

  // Truncations of the real payload must read as corrupt, not kOk.
  for (size_t len = 1; len + 1 < bytes.size(); len += 3) {
    FILE* f = fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    fwrite(bytes.data(), 1, len, f);
    fclose(f);
    EXPECT_NE(store.Load(id, &loaded), SpillStore::LoadStatus::kOk)
        << "len " << len;
  }
  std::filesystem::remove_all(dir);
}

TEST(ListKvTrimTest, TrimToHashesBaseRegionOnly) {
  ListKv kv;
  ASSERT_TRUE(kv.Put(1, 10, {1, 2}, 100));
  ASSERT_TRUE(kv.Put(1, 20, {3}, 101));
  ASSERT_TRUE(kv.Put(1, 30, {4, 5}, 102));
  // Collapse boundaries <= 20 into the base so its region spans [0, 3).
  std::vector<ListSpillVersion> evicted;
  kv.CollectUpTo(20, &evicted);

  // Horizon below the base: nothing to trim.
  EXPECT_EQ(kv.TrimTo(15), 0u);
  EXPECT_EQ(kv.TrimmedLen(1), 0u);

  // Horizon at the base: its whole region is hashed away.
  EXPECT_EQ(kv.TrimTo(20), 3u);
  EXPECT_EQ(kv.TrimmedLen(1), 3u);
  EXPECT_EQ(kv.TotalTrimmed(), 3u);
  // Idempotent: already trimmed this far.
  EXPECT_EQ(kv.TrimTo(20), 0u);

  ListKv::Prefix p = kv.PrefixAt(1, 30, /*inclusive=*/true);
  EXPECT_EQ(p.len, 5u);
  EXPECT_EQ(p.trimmed, 3u);
  EXPECT_FALSE(p.hash_tainted);
  const Value expect[] = {1, 2, 3};
  EXPECT_EQ(p.trimmed_hash, Fnv1a(expect, sizeof(expect)));
  ASSERT_NE(p.data, nullptr);
  EXPECT_EQ(p.data[0], 4);  // data starts at the trim cut
  EXPECT_EQ(p.data[1], 5);

  // A view resolving at the base sees a fully hashed prefix.
  ListKv::Prefix base = kv.PrefixAt(1, 20, /*inclusive=*/true);
  EXPECT_EQ(base.len, 3u);
  EXPECT_EQ(base.trimmed, 3u);
}

TEST(ListKvTrimTest, StragglerIntoTrimmedRegionTaintsHash) {
  ListKv kv;
  ASSERT_TRUE(kv.Put(1, 10, {1, 2}, 100));
  ASSERT_TRUE(kv.Put(1, 30, {3}, 101));
  std::vector<ListSpillVersion> evicted;
  kv.CollectUpTo(10, &evicted);
  ASSERT_EQ(kv.TrimTo(10), 2u);

  // A below-base straggler landing inside the hashed region is absorbed
  // by it: not materialized, but the hash is no longer verifiable.
  bool into_trimmed = false;
  ASSERT_TRUE(kv.PutBelowBase(1, 5, {9}, 102, {}, &into_trimmed));
  EXPECT_TRUE(into_trimmed);
  EXPECT_EQ(kv.TrimmedLen(1), 3u);

  ListKv::Prefix p = kv.PrefixAt(1, 30, /*inclusive=*/true);
  EXPECT_EQ(p.len, 4u);
  EXPECT_EQ(p.trimmed, 3u);
  EXPECT_TRUE(p.hash_tainted);
  ASSERT_NE(kv.MergedBelow(1), nullptr);  // content kept for below-base reads
}

// The per-field encoding StateWriter replaced with its staged block:
// every field appended to the buffer as it is written.
struct PerFieldWriter {
  std::string buf;
  void Put(uint64_t v) {
    for (int i = 0; i < 8; ++i) buf.push_back(static_cast<char>(v >> (8 * i)));
  }
  void Raw(const void* p, size_t n) {
    buf.append(static_cast<const char*>(p), n);
  }
};

TEST(StateWriterTest, StagedBytesEqualPerFieldEncoding) {
  // Fields in a random mix, so 8-byte fields land at every offset of
  // the 4 KiB stage and straddle its end; Bytes and Values of every
  // size (empty, inside the stage, larger than it) after staged fields;
  // data() read mid-stream, then writing goes on until Take().
  std::mt19937_64 rng(2025);
  for (int round = 0; round < 20; ++round) {
    StateWriter w(round % 2 == 0 ? 0 : 64);
    PerFieldWriter ref;
    for (int field = 0; field < 3000; ++field) {
      switch (rng() % 8) {
        case 0:
        case 1: {
          const uint64_t v = rng();
          w.U64(v);
          ref.Put(v);
          break;
        }
        case 2: {
          const int64_t v = static_cast<int64_t>(rng());
          w.I64(v);
          ref.Put(static_cast<uint64_t>(v));
          break;
        }
        case 3: {
          const bool flag = rng() % 2 == 0;
          w.U8(flag);
          ref.Put(flag ? 1 : 0);
          break;
        }
        case 4: {
          const size_t sizes[] = {0, 1, 7, 4095, 4096, 4097, 9000};
          const size_t n = rng() % 4 == 0 ? sizes[rng() % 7] : rng() % 40;
          std::string bytes(n, '\0');
          for (char& c : bytes) c = static_cast<char>(rng());
          w.Bytes(bytes);
          ref.Put(n);
          ref.Raw(bytes.data(), n);
          break;
        }
        case 5: {
          std::vector<Value> values(rng() % 4 == 0 ? 600 : rng() % 6);
          for (Value& v : values) v = static_cast<Value>(rng());
          w.Values(values);
          ref.Put(values.size() * sizeof(Value));
          ref.Raw(values.data(), values.size() * sizeof(Value));
          break;
        }
        case 6: {
          const std::vector<uint64_t> seq = {rng(), rng(), rng()};
          w.Seq(seq, 8, [&w](uint64_t x) { w.U64(x); });
          ref.Put(seq.size());
          for (uint64_t x : seq) ref.Put(x);
          break;
        }
        default:
          ASSERT_EQ(w.data(), ref.buf) << "round " << round << " field "
                                       << field;
      }
    }
    EXPECT_EQ(w.data(), ref.buf) << "round " << round;
    w.U64(round);
    ref.Put(static_cast<uint64_t>(round));
    EXPECT_EQ(w.Take(), ref.buf) << "round " << round;
    EXPECT_TRUE(w.data().empty());
    EXPECT_TRUE(w.Take().empty());
  }
}

}  // namespace
}  // namespace chronos

// Micro/ablation benchmarks (google-benchmark): per-transaction checker
// cost and the data-structure choices of ROADMAP.md's performance notes —
// the augmented interval tree vs brute-force overlap scans, per-key
// version maps vs linear scans, and GC passes.
#include <benchmark/benchmark.h>

#include <random>

#include "core/aion.h"
#include "core/chronos.h"
#include "core/interval_tree.h"
#include "core/versioned_kv.h"
#include "online/sharded_aion.h"
#include "ref_map_kv.h"
#include "workload/generator.h"

namespace chronos {
namespace {

History MakeHistory(uint64_t txns) {
  workload::WorkloadParams p;
  p.sessions = 24;
  p.txns = txns;
  p.ops_per_txn = 8;
  p.keys = 500;
  return workload::GenerateDefaultHistory(p);
}

void BM_ChronosPerTxn(benchmark::State& state) {
  History h = MakeHistory(static_cast<uint64_t>(state.range(0)));
  for (auto _ : state) {
    CountingSink sink;
    History copy = h;
    Chronos checker(ChronosOptions{}, &sink);
    benchmark::DoNotOptimize(checker.Check(std::move(copy)));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(h.txns.size()));
}
BENCHMARK(BM_ChronosPerTxn)->Arg(2000)->Arg(10000);

void BM_AionPerTxn(benchmark::State& state) {
  History h = MakeHistory(static_cast<uint64_t>(state.range(0)));
  for (auto _ : state) {
    CountingSink sink;
    Aion::Options opt;
    opt.ext_timeout_ms = 50;
    Aion aion(opt, &sink);
    uint64_t now = 0;
    for (const Transaction& t : h.txns) aion.OnTransaction(t, ++now);
    aion.Finish();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(h.txns.size()));
}
BENCHMARK(BM_AionPerTxn)->Arg(2000)->Arg(10000);

// The key-partitioned checker at the 10k-txn size of BM_AionPerTxn.
// items/s vs BM_AionPerTxn/10000 is the sharding speedup (needs >= the
// shard count in cores to show; on a 1-core runner the series measures
// coordination overhead instead). Timed on the wall clock: the shard
// workers do most of the work, and the default CPU time would count
// only the calling thread.
void BM_ShardedAionPerTxn(benchmark::State& state) {
  History h = MakeHistory(10000);
  const size_t shards = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    CountingSink sink;
    Aion::Options opt;
    opt.ext_timeout_ms = 50;
    online::ShardedAion aion(opt, shards, &sink);
    uint64_t now = 0;
    for (const Transaction& t : h.txns) aion.OnTransaction(t, ++now);
    aion.Finish();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(h.txns.size()));
}
BENCHMARK(BM_ShardedAionPerTxn)
    ->ArgName("shards")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void BM_IntervalTreeOverlap(benchmark::State& state) {
  IntervalTree tree;
  std::mt19937_64 rng(1);
  for (int i = 0; i < state.range(0); ++i) {
    Timestamp s = rng() % 100000;
    tree.Insert({s, s + rng() % 100, static_cast<TxnId>(i)});
  }
  std::vector<WriteInterval> out;
  for (auto _ : state) {
    out.clear();
    Timestamp lo = rng() % 100000;
    tree.QueryOverlap(lo, lo + 50, &out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_IntervalTreeOverlap)->Arg(1000)->Arg(100000);

void BM_BruteForceOverlap(benchmark::State& state) {
  std::mt19937_64 rng(1);
  std::vector<WriteInterval> ivs;
  for (int i = 0; i < state.range(0); ++i) {
    Timestamp s = rng() % 100000;
    ivs.push_back({s, s + rng() % 100, static_cast<TxnId>(i)});
  }
  std::vector<WriteInterval> out;
  for (auto _ : state) {
    out.clear();
    Timestamp lo = rng() % 100000, hi = lo + 50;
    for (const auto& iv : ivs) {
      if (iv.start <= hi && iv.end >= lo) out.push_back(iv);
    }
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_BruteForceOverlap)->Arg(1000)->Arg(100000);

void BM_VersionedKvLookup(benchmark::State& state) {
  VersionedKv kv;
  std::mt19937_64 rng(1);
  for (int i = 0; i < state.range(0); ++i) {
    kv.Put(i % 100, static_cast<Timestamp>(i + 1), i, i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kv.GetAtOrBefore(rng() % 100, rng() % state.range(0)));
  }
}
BENCHMARK(BM_VersionedKvLookup)->Arg(10000)->Arg(1000000);

// Old-vs-new: the seed's per-key std::map frontier (ref_map_kv.h) against
// the flat chains on the same access pattern.
void BM_MapKvLookup(benchmark::State& state) {
  bench::RefMapKv kv;
  std::mt19937_64 rng(1);
  for (int i = 0; i < state.range(0); ++i) {
    kv.Put(i % 100, static_cast<Timestamp>(i + 1), i, i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kv.GetAtOrBefore(rng() % 100, rng() % state.range(0)));
  }
}
BENCHMARK(BM_MapKvLookup)->Arg(10000)->Arg(1000000);

void BM_VersionedKvPut(benchmark::State& state) {
  for (auto _ : state) {
    VersionedKv kv;
    for (int i = 0; i < state.range(0); ++i) {
      kv.Put(i % 100, static_cast<Timestamp>(i + 1), i, i);
    }
    benchmark::DoNotOptimize(kv.TotalVersions());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_VersionedKvPut)->Arg(100000);

void BM_MapKvPut(benchmark::State& state) {
  for (auto _ : state) {
    bench::RefMapKv kv;
    for (int i = 0; i < state.range(0); ++i) {
      kv.Put(i % 100, static_cast<Timestamp>(i + 1), i, i);
    }
    benchmark::DoNotOptimize(kv.TotalVersions());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MapKvPut)->Arg(100000);

// Streaming GC with a sparse dirty set (the paper's frequent-GC mode,
// Fig. 6/9 gc-10k): state.range(0) keys stay clean while one hot key per
// pass accumulates collectible versions. Each iteration is one put
// burst plus one GC pass; the flat KV's trigger heap touches only the
// dirty key, the map baseline re-scans every key per pass. items/sec ==
// GC passes per second.
template <typename Kv>
void StreamingSparseGc(benchmark::State& state, Kv* kv) {
  const int num_keys = static_cast<int>(state.range(0));
  for (int k = 0; k < num_keys; ++k) {
    kv->Put(k, 1, 1, 1);  // single clean version: never collectible
  }
  Timestamp ts = 10;
  uint64_t i = 0;
  for (auto _ : state) {
    Key hot = i % 100;
    kv->Put(hot, ts, 1, 1);
    kv->Put(hot, ts + 1, 2, 2);
    benchmark::DoNotOptimize(kv->CollectUpTo(ts + 2));
    ts += 10;
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_VersionedKvGcSparse(benchmark::State& state) {
  VersionedKv kv;
  StreamingSparseGc(state, &kv);
}
BENCHMARK(BM_VersionedKvGcSparse)->Arg(10000)->Arg(100000);

void BM_MapKvGcSparse(benchmark::State& state) {
  bench::RefMapKv kv;
  StreamingSparseGc(state, &kv);
}
BENCHMARK(BM_MapKvGcSparse)->Arg(10000)->Arg(100000);

// Write-interval GC under one hot key (the zipf head of a durable run
// with frequent GC): the hot key keeps a sliding window of
// state.range(0) live intervals while 1000 cold keys take one interval
// per hot one. Each iteration adds a 16-txn burst and runs one GC pass
// evicting the window's oldest burst, so a pass that walks the hot
// key's whole tree, or walks it once per evicted interval, shows as a
// fall with the window size. items/sec == GC passes per second.
void BM_OngoingIndexGcHotKey(benchmark::State& state) {
  const auto window = static_cast<Timestamp>(state.range(0));
  constexpr Key kHot = 0;
  constexpr uint64_t kColdKeys = 1000;
  constexpr int kBurst = 16;
  OngoingIndex idx;
  std::mt19937_64 rng(1);
  TxnId tid = 0;
  Timestamp ts = 8;
  auto add_burst = [&] {
    for (int i = 0; i < kBurst; ++i) {
      ++ts;
      Timestamp start = ts - rng() % 8;
      idx.Add(kHot, start, ts, ++tid);
      idx.Add(1 + rng() % kColdKeys, start, ts, ++tid);
    }
  };
  while (ts < window + 8) add_burst();
  std::vector<std::pair<Key, WriteInterval>> evicted;
  for (auto _ : state) {
    add_burst();
    evicted.clear();
    benchmark::DoNotOptimize(idx.CollectUpTo(ts - window, &evicted));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OngoingIndexGcHotKey)->Arg(1000)->Arg(10000);

void BM_AionFootprint(benchmark::State& state) {
  History h = MakeHistory(5000);
  CountingSink sink;
  Aion::Options opt;
  opt.ext_timeout_ms = 50;
  Aion aion(opt, &sink);
  uint64_t now = 0;
  for (const Transaction& t : h.txns) aion.OnTransaction(t, ++now);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aion.GetFootprint());
  }
  aion.Finish();
}
BENCHMARK(BM_AionFootprint);

}  // namespace
}  // namespace chronos

BENCHMARK_MAIN();

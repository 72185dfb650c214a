// Micro/ablation benchmarks (google-benchmark): per-transaction checker
// cost and the data-structure choices of ROADMAP.md's performance notes —
// the flat write-interval chains vs brute-force overlap scans, per-key
// version maps vs linear scans, and GC passes.
#include <benchmark/benchmark.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <ctime>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "core/aion.h"
#include "core/chronos.h"
#include "core/ongoing_index.h"
#include "core/versioned_kv.h"
#include "hist/collector.h"
#include "online/checkpoint.h"
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

// BM_AionPerTxn's history delivered as e2ebench's `online` workload
// delivers it: through the collector with 20 +- 10 ms delays, so
// arrivals leave commit order and EXT re-checks and flip-flops occur.
void BM_AionPerTxnDelayed(benchmark::State& state) {
  hist::CollectorParams cp;
  cp.delay_mean_ms = 20;
  cp.delay_stddev_ms = 10;
  const std::vector<hist::CollectedTxn> stream = hist::ScheduleDelivery(
      MakeHistory(static_cast<uint64_t>(state.range(0))), cp);
  for (auto _ : state) {
    CountingSink sink;
    Aion::Options opt;
    opt.ext_timeout_ms = 50;
    Aion aion(opt, &sink);
    for (const hist::CollectedTxn& ct : stream) {
      aion.OnTransaction(ct.txn, ct.deliver_at_ms);
    }
    aion.Finish();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_AionPerTxnDelayed)->Arg(2000)->Arg(10000);

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

// User + system CPU of the whole process, exited threads included.
double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

// The key-partitioned checker at the 10k-txn size of BM_AionPerTxn.
// items/s vs BM_AionPerTxn/10000 is the sharding speedup (needs >= the
// shard count in cores to show; on a 1-core runner the series measures
// coordination overhead instead). Timed on the wall clock: the shard
// workers do most of the work, and the default CPU time would count
// only the calling thread. The counters split the CPU per txn between
// the calling thread (ingress, classification, ring staging) and the
// shard workers (the rest of the process).
void BM_ShardedAionPerTxn(benchmark::State& state) {
  History h = MakeHistory(10000);
  const size_t shards = static_cast<size_t>(state.range(0));
  double caller_cpu = 0;
  double process_cpu = 0;
  for (auto _ : state) {
    const double caller0 = ThreadCpuSeconds();
    const double process0 = ProcessCpuSeconds();
    {
      CountingSink sink;
      Aion::Options opt;
      opt.ext_timeout_ms = 50;
      online::ShardedAion aion(opt, shards, &sink);
      uint64_t now = 0;
      for (const Transaction& t : h.txns) aion.OnTransaction(t, ++now);
      aion.Finish();
    }  // joins the shard workers, so their CPU is counted
    caller_cpu += ThreadCpuSeconds() - caller0;
    process_cpu += ProcessCpuSeconds() - process0;
  }
  const int64_t txns =
      state.iterations() * static_cast<int64_t>(h.txns.size());
  state.SetItemsProcessed(txns);
  state.counters["caller_cpu_us_per_txn"] =
      caller_cpu * 1e6 / static_cast<double>(txns);
  state.counters["worker_cpu_us_per_txn"] =
      (process_cpu - caller_cpu) * 1e6 / static_cast<double>(txns);
}
BENCHMARK(BM_ShardedAionPerTxn)
    ->ArgName("shards")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

// BM_AionPerTxn's history through the crash-safe DurableRunner on one
// shard, with e2ebench durable-gc's cadence (GC every 500 arrivals down
// to 2000 live, a checkpoint every 12000, of 30k txns) scaled to the
// history size. items/s vs BM_ShardedAionPerTxn/shards:1 at 10000 is
// the cost of the durable path: WAL append, the fsync and state export
// at each cut, and the checkpoint write. Timed on the wall clock: the
// shard worker and the checkpoint writer run off the calling thread.
void BM_DurableRunnerPerTxn(benchmark::State& state) {
  History h = MakeHistory(static_cast<uint64_t>(state.range(0)));
  const uint64_t n = h.txns.size();
  auto scaled = [n](uint64_t v) {
    return std::max<uint64_t>(1, (v * n + 15000) / 30000);
  };
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("chronos_bm_durable_" + std::to_string(getpid())))
          .string();
  online::DurableRunner::Options dopts;
  dopts.dir = dir;
  dopts.checkpoint_every_events = scaled(12000);
  dopts.gc = GcPolicy::Every(scaled(500), scaled(2000));
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(dir);
    state.ResumeTiming();
    bool ok = true;
    {
      CountingSink sink;
      Aion::Options opt;
      opt.ext_timeout_ms = 50;
      opt.spill_dir = dir + "/spill";
      online::ShardedAion checker(opt, 1, &sink);
      online::DurableRunner runner(&checker, dopts);
      AssumeRole driver(runner.driver_role);  // single-threaded driver
      uint64_t now = 0;
      for (const Transaction& t : h.txns) ok = ok && runner.Feed(t, ++now);
      ok = runner.Finish() && ok;
    }  // joins the shard worker
    if (!ok) {
      state.SkipWithError("WAL/checkpoint write failed");
      break;
    }
  }
  std::filesystem::remove_all(dir);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_DurableRunnerPerTxn)->Arg(2000)->Arg(10000)->UseRealTime();

// The two durability layers of a DurableRunner step, apart from the
// checking. Both use e2ebench's history shape: the generator's defaults
// (50 sessions, 15 ops per txn, zipf over 1000 keys).
History MakeE2eHistory(uint64_t txns) {
  workload::WorkloadParams p;
  p.txns = txns;
  p.seed = 4;
  return workload::GenerateDefaultHistory(p);
}

std::string BenchPath(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (name + std::to_string(getpid())))
      .string();
}

// WAL append: one record per step for 30k steps (GC every 500, as in
// durable-gc), encoding and file writes included; the writer is closed
// at the end of each iteration, so every record reaches the file.
void BM_WalLogStep(benchmark::State& state) {
  const History h = MakeE2eHistory(30000);
  const std::string path = BenchPath("chronos_bm_wal_");
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove(path);
    state.ResumeTiming();
    bool ok = true;
    {
      online::WalWriter wal;
      ok = wal.Open(path);
      uint64_t seq = 0;
      for (const Transaction& t : h.txns) {
        ++seq;
        ok = wal.LogStep(seq, seq, seq % 500 == 0, 2000, false, t) && ok;
      }
    }
    if (!ok) {
      state.SkipWithError("WAL write failed");
      break;
    }
  }
  std::filesystem::remove(path);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(h.txns.size()));
}
BENCHMARK(BM_WalLogStep)->Unit(benchmark::kMillisecond);

// Checkpoint export: the state image of a 1-shard checker after 12k
// arrivals, durable-gc's first cut (12.5 arrivals per virtual ms, a
// 1000 ms EXT timeout, GC every 500 arrivals down to 2000 live).
// bytes/s is image bytes; timed on the wall clock, since the shard
// worker serializes its own section.
void BM_ExportState(benchmark::State& state) {
  const History h = MakeE2eHistory(12000);
  const std::string dir = BenchPath("chronos_bm_export_");
  CountingSink sink;
  Aion::Options opt;
  opt.ext_timeout_ms = 1000;
  opt.spill_dir = dir;
  online::ShardedAion checker(opt, 1, &sink);
  uint64_t fed = 0;
  for (const Transaction& t : h.txns) {
    checker.OnTransaction(t, fed * 2 / 25);
    if (++fed % 500 == 0) checker.GcToLiveTarget(2000);
  }
  int64_t bytes = 0;
  for (auto _ : state) {
    online::ShardedAion::StateImage img = checker.ExportState();
    bytes += static_cast<int64_t>(img.ingress.size() + img.coordinator.size());
    for (const std::string& s : img.shards) {
      bytes += static_cast<int64_t>(s.size());
    }
    benchmark::DoNotOptimize(img);
  }
  checker.Finish();
  std::filesystem::remove_all(dir);
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_ExportState)->Unit(benchmark::kMillisecond)->UseRealTime();

// One key's overlap query over uniformly random intervals, inserted in
// random order: each insert pays a tail move, so the untimed set-up is
// quadratic (seconds at 100k); only the queries are timed.
// The intervals are drawn in random order but inserted in the chain's
// own (end, tid) order, so the untimed set-up is a run of push_backs
// rather than a random-position insert each.
void BM_OngoingIndexOverlap(benchmark::State& state) {
  constexpr Key kKey = 0;
  OngoingIndex idx;
  std::mt19937_64 rng(1);
  std::vector<WriteInterval> ivs;
  for (int i = 0; i < state.range(0); ++i) {
    Timestamp s = rng() % 100000;
    ivs.push_back({s, s + rng() % 100, static_cast<TxnId>(i)});
  }
  std::sort(ivs.begin(), ivs.end(),
            [](const WriteInterval& a, const WriteInterval& b) {
              return a.end != b.end ? a.end < b.end : a.tid < b.tid;
            });
  for (const WriteInterval& iv : ivs) idx.Add(kKey, iv.start, iv.end, iv.tid);
  for (auto _ : state) {
    Timestamp lo = rng() % 100000;
    benchmark::DoNotOptimize(idx.Overlapping(kKey, lo, lo + 50));
  }
}
BENCHMARK(BM_OngoingIndexOverlap)->Arg(1000)->Arg(100000);

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

// The online access pattern: queries within each key's newest 64
// versions, where near-in-order traffic lands and the tail-anchored
// search pays O(log 64) whatever the chain length.
void BM_VersionedKvLookupRecent(benchmark::State& state) {
  VersionedKv kv;
  std::mt19937_64 rng(1);
  const int64_t n = state.range(0);
  for (int i = 0; i < n; ++i) {
    kv.Put(i % 100, static_cast<Timestamp>(i + 1), i, i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(kv.GetAtOrBefore(
        rng() % 100, static_cast<Timestamp>(n) - rng() % (64 * 100)));
  }
}
BENCHMARK(BM_VersionedKvLookupRecent)->Arg(10000)->Arg(1000000);

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

// Shared plumbing for the paper-figure bench harness. Every bench binary
// prints the series of one table/figure of the paper; CHRONOS_BENCH_SCALE
// (default 1) multiplies workload sizes towards paper scale.
#ifndef CHRONOS_BENCH_BENCH_UTIL_H_
#define CHRONOS_BENCH_BENCH_UTIL_H_

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/stats.h"
#include "hist/codec.h"
#include "online/metrics.h"
#include "workload/generator.h"

namespace chronos::bench {

inline uint64_t ScaleFactor() {
  const char* env = std::getenv("CHRONOS_BENCH_SCALE");
  if (!env) return 1;
  uint64_t s = std::strtoull(env, nullptr, 10);
  return s == 0 ? 1 : s;
}

inline void Header(const char* fig, const char* what) {
  std::printf("=== %s: %s (scale x%llu) ===\n", fig, what,
              static_cast<unsigned long long>(ScaleFactor()));
}

/// Samples peak RSS on a background thread while `fn` runs; returns
/// (seconds, peak_rss_delta_bytes). malloc_trim first so allocator
/// caching from earlier runs does not swallow the delta.
template <typename Fn>
std::pair<double, size_t> TimedWithPeakRss(Fn&& fn) {
  std::atomic<bool> done{false};
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  size_t base = online::ReadRssBytes();
  std::atomic<size_t> peak{base};
  std::thread sampler([&] {
    while (!done.load(std::memory_order_relaxed)) {
      size_t rss = online::ReadRssBytes();
      size_t cur = peak.load(std::memory_order_relaxed);
      while (rss > cur &&
             !peak.compare_exchange_weak(cur, rss, std::memory_order_relaxed)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  Stopwatch sw;
  fn();
  double secs = sw.Seconds();
  done.store(true);
  sampler.join();
  size_t p = peak.load();
  return {secs, p > base ? p - base : 0};
}

/// Default-workload history with the paper's Table I defaults, overriding
/// the transaction count.
inline History DefaultHistory(uint64_t txns, uint32_t ops_per_txn = 15,
                              uint64_t keys = 1000, uint32_t sessions = 50,
                              workload::WorkloadParams::KeyDist dist =
                                  workload::WorkloadParams::KeyDist::kZipf,
                              double read_ratio = 0.5, uint64_t seed = 1) {
  workload::WorkloadParams p;
  p.sessions = sessions;
  p.txns = txns;
  p.ops_per_txn = ops_per_txn;
  p.keys = keys;
  p.dist = dist;
  p.read_ratio = read_ratio;
  p.seed = seed;
  return workload::GenerateDefaultHistory(p);
}

/// Round-trips a history through the codec to measure the loading stage
/// (Figs. 8, 9, 24). Returns (load_seconds, history). The file is
/// per-process, so concurrent bench runs cannot clobber each other; a
/// codec failure exits rather than benchmarking an empty history.
inline std::pair<double, History> SaveAndLoad(const History& h,
                                              const std::string& name) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("chronos-bench-" + name + "-" + std::to_string(getpid()) + ".hist"))
          .string();
  auto check = [&path](const hist::CodecStatus& st, const char* what) {
    if (st.ok) return;
    std::fprintf(stderr, "%s %s failed: %s\n", what, path.c_str(),
                 st.message.c_str());
    std::remove(path.c_str());
    std::exit(1);
  };
  check(hist::SaveHistory(h, path), "save");
  Stopwatch sw;
  History loaded;
  hist::CodecStatus loaded_st = hist::LoadHistory(path, &loaded);
  double secs = sw.Seconds();
  check(loaded_st, "load");
  std::remove(path.c_str());
  return {secs, std::move(loaded)};
}

}  // namespace chronos::bench

#endif  // CHRONOS_BENCH_BENCH_UTIL_H_

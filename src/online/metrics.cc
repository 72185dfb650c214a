#include "online/metrics.h"

#include <cstdio>
#include <unistd.h>

namespace chronos::online {

size_t ReadRssBytes() {
  FILE* f = fopen("/proc/self/statm", "r");
  if (!f) return 0;
  long total = 0, resident = 0;
  int n = fscanf(f, "%ld %ld", &total, &resident);
  fclose(f);
  if (n != 2) return 0;
  long page = sysconf(_SC_PAGESIZE);
  return static_cast<size_t>(resident) * static_cast<size_t>(page);
}

namespace {

void PrintRing(const char* name, size_t i, const RingHealth& r,
               std::FILE* out) {
  std::fprintf(out,
               "  %s[%zu]: published=%llu depth_hwm=%llu "
               "producer_stalls=%llu consumer_stalls=%llu\n",
               name, i, static_cast<unsigned long long>(r.published),
               static_cast<unsigned long long>(r.depth_hwm),
               static_cast<unsigned long long>(r.producer_stalls),
               static_cast<unsigned long long>(r.consumer_stalls));
}

}  // namespace

void PrintPipelineHealth(const PipelineHealth& h, std::FILE* out) {
  std::fprintf(out, "pipeline: shards=%zu\n", h.shard_rings.size());
  for (size_t i = 0; i < h.shard_rings.size(); ++i) {
    PrintRing("shard_ring", i, h.shard_rings[i], out);
  }
  for (size_t i = 0; i < h.payload_rings.size(); ++i) {
    PrintRing("payload_ring", i, h.payload_rings[i], out);
  }
}

}  // namespace chronos::online

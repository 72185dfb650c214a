#include "core/spill.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

namespace chronos {
namespace {

constexpr size_t kEpochCacheCap = 4;

// The epoch file layout (`P` is const SpillPayload when writing).
template <typename IO, typename P>
void TransferEpoch(IO& io, P& p) {
  io.U64(p.max_ts);
  io.Seq(p.versions, /*key, ts, value, tid*/ 32, [&](auto& v) {
    io.U64(std::get<0>(v));
    io.U64(std::get<1>(v));
    io.I64(std::get<2>(v).value);
    io.U64(std::get<2>(v).tid);
  });
  io.Seq(p.intervals, /*key, start, end, tid*/ 32, [&](auto& e) {
    io.U64(e.first);
    io.U64(e.second.start);
    io.U64(e.second.end);
    io.U64(e.second.tid);
  });
  io.Seq(p.list_versions, /*key, ts, tid, size*/ 32, [&](auto& lv) {
    io.U64(lv.key);
    io.U64(lv.ts);
    io.U64(lv.tid);
    io.Seq(lv.delta, 8, [&](auto& e) { io.I64(e); });
  });
}

}  // namespace

SpillStore::SpillStore(std::string dir) : dir_(std::move(dir)) {
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) dir_.clear();  // fall back to discard mode
  }
}

std::string SpillStore::PathFor(uint64_t id) const {
  return dir_ + "/spill-" + std::to_string(id) + ".bin";
}

uint64_t SpillStore::Spill(const SpillPayload& payload) {
  if (payload.Empty()) return 0;
  if (!persistent()) return 0;
  uint64_t id = next_id_++;
  StateWriter w;
  TransferEpoch(w, payload);
  FILE* f = fopen(PathFor(id).c_str(), "wb");
  if (!f) return 0;
  bool ok = fwrite(w.data().data(), 1, w.data().size(), f) == w.data().size();
  ok = fclose(f) == 0 && ok;
  if (!ok) {
    std::error_code ec;
    std::filesystem::remove(PathFor(id), ec);
    return 0;
  }
  epochs_[id] = payload.max_ts;
  return id;
}

SpillStore::LoadStatus SpillStore::Load(uint64_t epoch_id,
                                        SpillPayload* out) const {
  if (!persistent() || epochs_.find(epoch_id) == epochs_.end()) {
    return LoadStatus::kMissing;
  }
  FILE* f = fopen(PathFor(epoch_id).c_str(), "rb");
  if (!f) return LoadStatus::kMissing;
  std::string data;
  char buf[1 << 16];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
  bool ok = !ferror(f);
  fclose(f);
  // A well-formed epoch is consumed exactly; trailing bytes mean the
  // file was overwritten or appended to — treat as corrupt too.
  StateReader r(data);
  TransferEpoch(r, *out);
  return ok && r.ok() && r.AtEnd() ? LoadStatus::kOk : LoadStatus::kCorrupt;
}

const SpillPayload* SpillStore::Cached(uint64_t id, CheckerStats* stats) {
  for (auto& [cid, cp] : cache_) {
    if (cid == id) return &cp;
  }
  SpillPayload payload;
  LoadStatus st = Load(id, &payload);
  if (st != LoadStatus::kOk) {
    if (st == LoadStatus::kCorrupt &&
        std::find(corrupt_.begin(), corrupt_.end(), id) == corrupt_.end()) {
      corrupt_.push_back(id);
      ++stats->corrupt_spill_epochs;
      std::fprintf(stderr,
                   "chronos: spill epoch %llu is corrupt; below-watermark "
                   "checking degrades to best effort\n",
                   static_cast<unsigned long long>(id));
    }
    return nullptr;
  }
  ++stats->spill_reloads;
  if (cache_.size() >= kEpochCacheCap) cache_.erase(cache_.begin());
  cache_.emplace_back(id, std::move(payload));
  return &cache_.back().second;
}

}  // namespace chronos

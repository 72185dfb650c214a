#include "core/spill.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

namespace chronos {
namespace {

constexpr size_t kEpochCacheCap = 4;

bool WriteU64(FILE* f, uint64_t v) { return fwrite(&v, 8, 1, f) == 1; }
bool ReadU64(FILE* f, uint64_t* v) { return fread(v, 8, 1, f) == 1; }

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
  FILE* f = fopen(PathFor(id).c_str(), "wb");
  if (!f) return 0;
  bool ok = WriteU64(f, payload.max_ts);
  ok = ok && WriteU64(f, payload.versions.size());
  for (const auto& [k, ts, e] : payload.versions) {
    ok = ok && WriteU64(f, k) && WriteU64(f, ts) &&
         WriteU64(f, static_cast<uint64_t>(e.value)) && WriteU64(f, e.tid);
  }
  ok = ok && WriteU64(f, payload.intervals.size());
  for (const auto& [k, iv] : payload.intervals) {
    ok = ok && WriteU64(f, k) && WriteU64(f, iv.start) &&
         WriteU64(f, iv.end) && WriteU64(f, iv.tid);
  }
  ok = ok && WriteU64(f, payload.list_versions.size());
  for (const ListSpillVersion& lv : payload.list_versions) {
    ok = ok && WriteU64(f, lv.key) && WriteU64(f, lv.ts) &&
         WriteU64(f, lv.tid) && WriteU64(f, lv.delta.size());
    for (Value e : lv.delta) {
      ok = ok && WriteU64(f, static_cast<uint64_t>(e));
    }
  }
  fclose(f);
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
  out->versions.clear();
  out->intervals.clear();
  uint64_t n = 0;
  bool ok = ReadU64(f, &out->max_ts) && ReadU64(f, &n);
  for (uint64_t i = 0; ok && i < n; ++i) {
    uint64_t k, ts, v, tid;
    ok = ReadU64(f, &k) && ReadU64(f, &ts) && ReadU64(f, &v) &&
         ReadU64(f, &tid);
    if (ok) {
      out->versions.emplace_back(
          k, ts, VersionEntry{static_cast<Value>(v), tid});
    }
  }
  uint64_t m = 0;
  ok = ok && ReadU64(f, &m);
  for (uint64_t i = 0; ok && i < m; ++i) {
    uint64_t k, s, e, tid;
    ok = ReadU64(f, &k) && ReadU64(f, &s) && ReadU64(f, &e) && ReadU64(f, &tid);
    if (ok) out->intervals.emplace_back(k, WriteInterval{s, e, tid});
  }
  out->list_versions.clear();
  uint64_t l = 0;
  ok = ok && ReadU64(f, &l);
  for (uint64_t i = 0; ok && i < l; ++i) {
    ListSpillVersion lv;
    uint64_t n_elems = 0;
    ok = ReadU64(f, &lv.key) && ReadU64(f, &lv.ts) && ReadU64(f, &lv.tid) &&
         ReadU64(f, &n_elems);
    for (uint64_t j = 0; ok && j < n_elems; ++j) {
      uint64_t e;
      ok = ReadU64(f, &e);
      if (ok) lv.delta.push_back(static_cast<Value>(e));
    }
    if (ok) out->list_versions.push_back(std::move(lv));
  }
  // A well-formed epoch is consumed exactly; trailing bytes mean the
  // file was overwritten or appended to — treat as corrupt too.
  if (ok) {
    uint64_t extra;
    if (ReadU64(f, &extra)) ok = false;
  }
  fclose(f);
  return ok ? LoadStatus::kOk : LoadStatus::kCorrupt;
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

void SpillStore::SerializeManifest(StateWriter* w) const {
  w->U64(next_id_);
  w->U64(epochs_.size());
  for (const auto& [id, max_ts] : epochs_) {
    w->U64(id);
    w->U64(max_ts);
  }
  w->U64(cache_.size());
  for (const auto& [id, payload] : cache_) w->U64(id);
  w->U64(corrupt_.size());
  for (uint64_t id : corrupt_) w->U64(id);
}

bool SpillStore::DeserializeManifest(StateReader* r) {
  next_id_ = r->U64();
  uint64_t n = r->U64();
  epochs_.clear();
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    uint64_t id = r->U64();
    Timestamp max_ts = r->U64();
    epochs_[id] = max_ts;
  }
  cache_.clear();
  uint64_t nc = r->U64();
  for (uint64_t i = 0; i < nc && r->ok(); ++i) {
    uint64_t id = r->U64();
    SpillPayload payload;
    if (Load(id, &payload) == LoadStatus::kOk) {
      cache_.emplace_back(id, std::move(payload));
    }
  }
  corrupt_.clear();
  uint64_t nx = r->U64();
  for (uint64_t i = 0; i < nx && r->ok(); ++i) corrupt_.push_back(r->U64());
  return r->ok();
}

}  // namespace chronos

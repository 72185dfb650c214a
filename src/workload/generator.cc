#include "workload/generator.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "workload/zipf.h"

namespace chronos::workload {
namespace {

// Unified key picker over the three Table I distributions.
class KeyPicker {
 public:
  KeyPicker(const WorkloadParams& p)
      : dist_(p.dist),
        n_(p.keys),
        zipf_(p.keys, p.zipf_theta),
        hotspot_(p.keys) {}

  template <typename Rng>
  Key Next(Rng& rng) {
    switch (dist_) {
      case WorkloadParams::KeyDist::kUniform:
        return std::uniform_int_distribution<uint64_t>(0, n_ - 1)(rng);
      case WorkloadParams::KeyDist::kZipf:
        return std::min<uint64_t>(zipf_.Next(rng), n_ - 1);
      case WorkloadParams::KeyDist::kHotspot:
        return hotspot_.Next(rng);
    }
    return 0;
  }

 private:
  WorkloadParams::KeyDist dist_;
  uint64_t n_;
  ZipfGenerator zipf_;
  HotspotGenerator hotspot_;
};

// One logical session's in-flight transaction.
struct OpenTxn {
  std::unique_ptr<db::Database::Txn> txn;
  uint32_t ops_done = 0;
};

}  // namespace

void AssignLevels(History* history, const LevelMix& mix, uint64_t seed) {
  if (mix.empty()) return;
  for (Transaction& t : history->txns) {
    // splitmix64 finalizer over (seed, tid): order-independent and
    // stable, so re-generating or re-tagging the same history with the
    // same seed always yields the same levels.
    uint64_t x = seed ^ (t.tid * 0x9E3779B97F4A7C15ULL);
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    x ^= x >> 31;
    uint32_t roll = static_cast<uint32_t>(x % 100);
    if (roll < mix.si) {
      t.iso = IsolationLevel::kSi;
    } else if (roll < mix.si + mix.ser) {
      t.iso = IsolationLevel::kSer;
    } else if (roll < mix.si + mix.ser + mix.rc) {
      t.iso = IsolationLevel::kRc;
    } else if (roll < mix.total()) {
      t.iso = IsolationLevel::kRa;
    } else {
      t.iso = IsolationLevel::kUnspecified;
    }
  }
}

void RunDefaultWorkload(db::Database* db, const WorkloadParams& params) {
  std::mt19937_64 rng(params.seed);
  KeyPicker picker(params);
  std::vector<OpenTxn> open(params.sessions);
  uint64_t committed = 0;
  // Written values only need to be unique within one history (the
  // black-box checkers' unique-value assumption); a run-local counter
  // keeps repeated in-process generations byte-identical per seed,
  // which the fuzzing harness and `chronos_gen --seed` rely on.
  Value next_value = 1;

  std::uniform_int_distribution<uint32_t> pick_session(0, params.sessions - 1);
  std::uniform_real_distribution<double> coin(0, 1);

  while (committed < params.txns) {
    uint32_t s = pick_session(rng);
    OpenTxn& slot = open[s];
    if (!slot.txn) {
      slot.txn = db->Begin(s);
      slot.ops_done = 0;
      continue;
    }
    if (slot.ops_done < params.ops_per_txn) {
      Key key = picker.Next(rng);
      bool is_read = coin(rng) < params.read_ratio;
      if (params.list_mode) {
        if (is_read) {
          db->ReadList(slot.txn.get(), key);
        } else {
          db->Append(slot.txn.get(), key, next_value++);
        }
      } else {
        if (is_read) {
          db->Read(slot.txn.get(), key);
        } else {
          db->Write(slot.txn.get(), key, next_value++);
        }
      }
      ++slot.ops_done;
      continue;
    }
    if (db->Commit(std::move(slot.txn)) ==
        db::Database::CommitResult::kCommitted) {
      ++committed;
    }
    slot = OpenTxn{};
  }
}

History GenerateDefaultHistory(const WorkloadParams& params,
                               const db::DbConfig& config) {
  db::Database db(config);
  RunDefaultWorkload(&db, params);
  History h = db.ExportHistory();
  AssignLevels(&h, params.mix, params.seed);
  return h;
}

double RunConcurrentWorkload(db::Database* db, const WorkloadParams& params,
                             uint32_t threads) {
  threads = std::max(1u, std::min(threads, params.sessions));
  std::atomic<uint64_t> committed{0};
  // Run-local unique-value source (see RunDefaultWorkload); shared by
  // the workers, so values stay unique within the run.
  std::atomic<Value> next_value{1};
  auto start = std::chrono::steady_clock::now();

  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (uint32_t w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      std::mt19937_64 rng(params.seed + w * 7919);
      KeyPicker picker(params);
      std::uniform_real_distribution<double> coin(0, 1);
      // Sessions are striped across workers so each session stays
      // single-threaded (the Database requires per-session serial use).
      std::vector<SessionId> my_sessions;
      for (uint32_t s = w; s < params.sessions; s += threads) {
        my_sessions.push_back(s);
      }
      size_t rr = 0;
      while (committed.load(std::memory_order_relaxed) < params.txns) {
        SessionId sid = my_sessions[rr++ % my_sessions.size()];
        auto txn = db->Begin(sid);
        for (uint32_t i = 0; i < params.ops_per_txn; ++i) {
          Key key = picker.Next(rng);
          if (coin(rng) < params.read_ratio) {
            db->Read(txn.get(), key);
          } else {
            db->Write(txn.get(), key,
                      next_value.fetch_add(1, std::memory_order_relaxed));
          }
        }
        if (db->Commit(std::move(txn)) ==
            db::Database::CommitResult::kCommitted) {
          committed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return static_cast<double>(committed.load()) / std::max(secs, 1e-9);
}

}  // namespace chronos::workload

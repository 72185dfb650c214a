#include "fuzz/scenario.h"

#include <random>

namespace chronos::fuzz {
namespace {

template <typename T, size_t N>
T Pick(std::mt19937_64& rng, const T (&menu)[N]) {
  return menu[rng() % N];
}

bool Chance(std::mt19937_64& rng, double p) {
  return std::uniform_real_distribution<double>(0, 1)(rng) < p;
}

// Enables one randomly-chosen fault class. List histories only record
// appends and list reads, so the register-read faults (stale read, value
// corruption) are no-ops there and are excluded from the list menu.
void PickFault(std::mt19937_64& rng, bool list_mode, db::FaultConfig* f) {
  const double prob_menu[] = {0.02, 0.05, 0.15};
  double p = Pick(rng, prob_menu);
  int n = list_mode ? 5 : 7;
  switch (rng() % n) {
    case 0: f->lost_update_prob = p; break;
    case 1: f->early_commit_prob = p; break;
    case 2: f->late_start_prob = p; break;
    case 3: f->ts_swap_prob = p; break;
    case 4: f->session_reorder_prob = p; break;
    case 5: f->stale_read_prob = p; break;
    case 6: f->value_corruption_prob = p; break;
  }
}

}  // namespace

FuzzScenario ScenarioFromSeed(uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0xC4A0A0FuLL);
  FuzzScenario sc;
  sc.seed = seed;

  // --- workload shape (small on purpose: hundreds of scenarios/minute,
  // and disagreements shrink faster from small starting points) ---
  const uint32_t session_menu[] = {2u, 4u, 8u, 16u};
  const uint64_t txn_menu[] = {40ull, 80ull, 150ull, 300ull};
  const uint32_t ops_menu[] = {2u, 4u, 8u, 12u};
  const uint64_t key_menu[] = {2ull, 8ull, 32ull, 128ull};
  const double read_menu[] = {0.2, 0.5, 0.8};
  sc.wl.sessions = Pick(rng, session_menu);
  sc.wl.txns = Pick(rng, txn_menu);
  sc.wl.ops_per_txn = Pick(rng, ops_menu);
  sc.wl.keys = Pick(rng, key_menu);
  sc.wl.read_ratio = Pick(rng, read_menu);
  sc.wl.dist = static_cast<workload::WorkloadParams::KeyDist>(rng() % 3);
  sc.wl.seed = seed * 0x9E3779B97F4A7C15ULL + 1;
  sc.wl.list_mode = Chance(rng, 0.10);

  // --- database configuration ---
  if (!sc.wl.list_mode && Chance(rng, 0.20)) {
    sc.db.isolation = IsolationLevel::kSer;
  }
  if (Chance(rng, 0.25)) {
    sc.db.timestamping = db::DbConfig::Timestamping::kHlc;
    sc.db.hlc_nodes = 3;
    // Skew is added to the pre-shift physical tick, so +-3 already
    // produces cross-node inversions (divergence entry D3); 0 keeps the
    // decentralized oracle but stays anomaly-free.
    const int64_t skew_menu[] = {0, 0, 3, 50};
    sc.db.hlc_max_skew = Pick(rng, skew_menu);
  }
  sc.db.fault_seed = seed * 31 + 7;
  if (Chance(rng, 0.55)) {
    PickFault(rng, sc.wl.list_mode, &sc.db.faults);
    if (Chance(rng, 0.20)) PickFault(rng, sc.wl.list_mode, &sc.db.faults);
  }

  // --- checker knobs. Strictness rule (see fuzz/differ.h): online
  // counts equal offline counts iff arrival is commit order (no delays,
  // no shuffle) or the EXT timeout is effectively infinite; GC
  // additionally needs the spill store so stragglers stay checkable. ---
  switch (rng() % 20) {
    case 0: case 1: case 2: case 3: case 4: case 5: case 6: case 7:
      // A: plain strict; half of these shuffle the arrival order.
      if (Chance(rng, 0.5)) sc.shuffle_seed = seed * 131 + 17;
      break;
    case 8: case 9: case 10: case 11: {
      // B: GC + spill, prompt timeouts, commit order — still strict.
      sc.ext_timeout_ms = 1;
      const size_t every_menu[] = {size_t{16}, size_t{64}};
      const size_t target_menu[] = {size_t{8}, size_t{32}};
      sc.gc_every = Pick(rng, every_menu);
      sc.gc_target = Pick(rng, target_menu);
      sc.spill = true;
      break;
    }
    case 12: case 13: case 14:
      // C: collector delays with an infinite timeout — strict.
      sc.delay_mean_ms = Chance(rng, 0.5) ? 2 : 10;
      sc.delay_stddev_ms = Chance(rng, 0.5) ? 1 : 5;
      break;
    case 15: case 16: case 17: {
      // D: finite timeout with reordered arrival — weak (entry D5).
      const uint64_t timeout_menu[] = {1ull, 8ull};
      sc.ext_timeout_ms = Pick(rng, timeout_menu);
      if (Chance(rng, 0.5)) {
        sc.shuffle_seed = seed * 131 + 17;
      } else {
        sc.delay_mean_ms = 5;
        sc.delay_stddev_ms = 3;
      }
      sc.strict = false;
      break;
    }
    default:
      // E: GC without spill — weak (entry D7).
      sc.ext_timeout_ms = 1;
      sc.gc_every = 16;
      sc.gc_target = 8;
      sc.spill = false;
      if (Chance(rng, 0.5)) sc.shuffle_seed = seed * 131 + 17;
      sc.strict = false;
      break;
  }
  // Drawn from an independent hash of the seed (not the rng stream) so
  // enabling this knob did not reshuffle every existing seed's scenario.
  sc.ckpt_restore = ((seed * 0x2545F4914F6CDD1DULL) >> 62) == 0;  // ~25%

  // Mixed isolation-level tags, also from an independent seed hash.
  // Only SI-database register scenarios mix, and only over {si, rc, ra}:
  // those tags keep a clean SI execution clean (an SI read is always a
  // committed-membership read, and RC/RA waive Eq. (1)/NOCONFLICT), so
  // the clean-accept rule stays meaningful. SER tags would false-fire on
  // correct SI histories, and list workloads are SI-only end to end.
  if (!sc.wl.list_mode &&
      sc.db.isolation == IsolationLevel::kSi) {
    uint64_t mh = (seed + 0x9E3779B97F4A7C15ULL) * 0xD1B54A32D192ED03ULL;
    if ((mh >> 62) == 0) {  // ~25% of eligible scenarios
      switch ((mh >> 8) % 3) {
        case 0: sc.wl.mix = {70, 0, 20, 10}; break;  // si-heavy
        case 1: sc.wl.mix = {40, 0, 30, 20}; break;  // 10% untagged
        default: sc.wl.mix = {0, 0, 50, 50}; break;  // membership-only
      }
    }
  }
  return sc;
}

std::string FuzzScenario::Describe() const {
  const char* dist_names[] = {"uniform", "zipf", "hotspot"};
  std::string s = "seed=" + std::to_string(seed);
  s += " txns=" + std::to_string(wl.txns);
  s += " sess=" + std::to_string(wl.sessions);
  s += " ops=" + std::to_string(wl.ops_per_txn);
  s += " keys=" + std::to_string(wl.keys);
  s += std::string(" dist=") + dist_names[static_cast<int>(wl.dist)];
  if (wl.list_mode) s += " list";
  if (db.isolation == IsolationLevel::kSer) s += " ser";
  if (db.timestamping == db::DbConfig::Timestamping::kHlc) {
    s += " hlc(skew=" + std::to_string(db.hlc_max_skew) + ")";
  }
  const db::FaultConfig& f = db.faults;
  auto fault = [&](const char* name, double p) {
    if (p > 0) s += std::string(" ") + name + "=" + std::to_string(p);
  };
  fault("lost_update", f.lost_update_prob);
  fault("stale_read", f.stale_read_prob);
  fault("early_commit", f.early_commit_prob);
  fault("late_start", f.late_start_prob);
  fault("value_corruption", f.value_corruption_prob);
  fault("session_reorder", f.session_reorder_prob);
  fault("ts_swap", f.ts_swap_prob);
  if (ext_timeout_ms != 1ull << 30) {
    s += " timeout=" + std::to_string(ext_timeout_ms);
  }
  if (gc_every > 0) {
    s += " gc=" + std::to_string(gc_every) + "/" + std::to_string(gc_target);
    s += spill ? "+spill" : "-spill";
  }
  if (delay_mean_ms > 0) {
    s += " delay=" + std::to_string(delay_mean_ms) + "/" +
         std::to_string(delay_stddev_ms);
  }
  if (!wl.mix.empty()) {
    s += " mix=";
    bool first = true;
    auto part = [&](const char* name, uint32_t pct) {
      if (pct == 0) return;
      if (!first) s += ",";
      first = false;
      s += std::string(name) + ":" + std::to_string(pct);
    };
    part("si", wl.mix.si);
    part("ser", wl.mix.ser);
    part("rc", wl.mix.rc);
    part("ra", wl.mix.ra);
  }
  if (shuffle_seed != 0) s += " shuffled";
  if (ckpt_restore) s += " ckpt";
  s += strict ? " [strict]" : " [weak]";
  return s;
}

}  // namespace chronos::fuzz

#include "explore/oracle.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "core/aion.h"
#include "explore/enumerator.h"
#include "fuzz/shrink.h"
#include "online/sharded_aion.h"

namespace chronos::explore {
namespace {

// One checker's observable outcome for a schedule.
struct Run {
  std::vector<Violation> emissions;
  CheckerStats stats;
  Timestamp watermark = kTsMin;
  std::string fail;  ///< ckpt chain only: rejected restore image
};

std::string TidList(const std::vector<TxnId>& tids) {
  std::ostringstream os;
  for (size_t i = 0; i < tids.size(); ++i) {
    if (i > 0) os << ",";
    os << tids[i];
  }
  return os.str();
}

std::string OneLine(std::string s) {
  std::replace(s.begin(), s.end(), '\n', ';');
  return s;
}

std::vector<Violation> ContentSorted(std::vector<Violation> v) {
  std::sort(v.begin(), v.end(), [](const Violation& a, const Violation& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    return ViolationLess(a, b);
  });
  return v;
}

// Cross-schedule normal form: SESSION and TS-DUP drop out (compared as
// booleans per D4/D6), NOCONFLICT keeps only its unordered transaction
// pair and key — which of the two overlapping writers gets the report
// attributed to it depends on which arrived second.
std::vector<Violation> NormalizeForSchedule(const std::vector<Violation>& in) {
  std::vector<Violation> out;
  for (Violation v : in) {
    if (v.type == ViolationType::kSession ||
        v.type == ViolationType::kTsDuplicate) {
      continue;
    }
    if (v.type == ViolationType::kNoConflict) {
      if (v.other_tid != kTxnNone && v.other_tid < v.tid) {
        std::swap(v.tid, v.other_tid);
      }
      v.expected = kValueBottom;
      v.got = kValueBottom;
      v.divergence = -1;
    }
    out.push_back(v);
  }
  std::sort(out.begin(), out.end(), ViolationLess);
  return out;
}

// The planted verdict-order bug (OracleConfig::plant_frontier_bug): a
// scratch EXT evaluator that validates each external register read at
// *arrival* time against only the versions already-arrived writers have
// installed, with the frontier bound flipped — it picks the first
// version strictly after the read view (shrink_test's BuggyFrontierExt
// bound) instead of the newest one at or below it. Both halves are
// wrong on purpose: the arrival-time half makes the count depend on the
// schedule, which is exactly the class of bug the enumerator exists to
// catch.
uint64_t PlantedFrontierExtCount(const std::vector<Arrival>& arrivals,
                                 const std::vector<size_t>& perm,
                                 CheckMode mode) {
  std::map<Key, std::vector<std::pair<Timestamp, Value>>> versions;
  uint64_t mismatches = 0;
  for (size_t idx : perm) {
    const Transaction& t = *arrivals[idx].txn;
    const Timestamp view = mode == CheckMode::kSer ? t.commit_ts : t.start_ts;
    std::set<Key> own;
    for (const Op& op : t.ops) {
      if (op.type == OpType::kWrite) {
        own.insert(op.key);
        auto& vv = versions[op.key];
        vv.insert(std::lower_bound(vv.begin(), vv.end(),
                                   std::make_pair(t.commit_ts, op.value)),
                  {t.commit_ts, op.value});
      } else if (op.type == OpType::kRead) {
        if (!own.insert(op.key).second) continue;  // internal, INT's job
        Value expect = kValueInit;
        auto found = versions.find(op.key);
        if (found != versions.end()) {
          const auto& vv = found->second;
          auto it = std::upper_bound(
              vv.begin(), vv.end(), view,
              [](Timestamp v, const std::pair<Timestamp, Value>& p) {
                return v < p.first;
              });
          if (it != vv.end()) expect = it->second;
        }
        if (expect != op.value) ++mismatches;
      }
      // Appends/list reads are out of scope for the scratch oracle.
    }
  }
  return mismatches;
}

}  // namespace

ScheduleVerdict RunSchedule(const std::vector<Arrival>& arrivals,
                            const std::vector<size_t>& perm,
                            const OracleConfig& cfg) {
  ScheduleVerdict out;

  CheckerOptions base;
  base.mode = cfg.mode;
  base.ext_timeout_ms = cfg.ext_timeout_ms;
  std::atomic<uint32_t> pulse{0};
  if (cfg.adversarial_timing) {
    // Forced stalls: every 4th hook call (across all shard workers of
    // all instances of this run) parks its worker long enough for the
    // caller to hit the tiny rings' full/empty edges.
    base.stall_hook = [&pulse](size_t) {
      if (pulse.fetch_add(1, std::memory_order_relaxed) % 4 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    };
  }
  const size_t cmd_batch = cfg.adversarial_timing ? 1 : 256;
  const size_t queue_capacity = cfg.adversarial_timing ? 2 : 8192;

  auto drive = [&](OnlineChecker* c) {
    uint64_t now = 1;
    size_t since_gc = 0;
    for (size_t idx : perm) {
      c->OnTransaction(*arrivals[idx].txn, now++);
      if (cfg.gc_every > 0 && ++since_gc >= cfg.gc_every) {
        since_gc = 0;
        c->GcToLiveTarget(cfg.gc_target);
      }
    }
    c->Finish();
  };

  Run aion;
  {
    VectorSink sink;
    Aion a(base, &sink);
    drive(&a);
    aion.stats = a.stats();
    aion.watermark = a.watermark();
    aion.emissions = sink.TakeAll();
  }

  auto run_sharded = [&](size_t shards) {
    Run r;
    VectorSink sink;
    {
      online::ShardedAion sh(base, shards, &sink, cmd_batch, queue_capacity);
      drive(&sh);
      r.stats = sh.stats();
      r.watermark = sh.watermark();
    }  // join workers before reading the sink
    r.emissions = sink.TakeAll();
    return r;
  };
  Run sh1 = run_sharded(1);
  Run sh2 = run_sharded(2);
  Run sh8 = run_sharded(8);

  // Checkpoint/restore at every arrival boundary: a chain of 2-shard
  // instances, each fed exactly one arrival and then exported into a
  // fresh successor. Every instance's sink must stay alive until that
  // instance is destroyed; only the final one is read (the image carries
  // the buffered violations forward).
  Run ckpt;
  {
    std::deque<VectorSink> sinks;
    sinks.emplace_back();
    auto cur = std::make_unique<online::ShardedAion>(
        base, 2, &sinks.back(), cmd_batch, queue_capacity);
    uint64_t now = 1;
    size_t since_gc = 0;
    size_t step = 0;
    bool ok = true;
    for (size_t idx : perm) {
      cur->OnTransaction(*arrivals[idx].txn, now++);
      if (cfg.gc_every > 0 && ++since_gc >= cfg.gc_every) {
        since_gc = 0;
        cur->GcToLiveTarget(cfg.gc_target);
      }
      online::ShardedAion::StateImage img = cur->ExportState();
      sinks.emplace_back();
      ++step;
      auto next = std::make_unique<online::ShardedAion>(
          base, 2, &sinks.back(), cmd_batch, queue_capacity);
      if (!next->ImportState(img)) {
        ckpt.fail = "ImportState rejected a freshly exported image at arrival " +
                    std::to_string(step);
        ok = false;
        break;
      }
      cur = std::move(next);
    }
    if (ok) {
      cur->Finish();
      ckpt.stats = cur->stats();
      ckpt.watermark = cur->watermark();
      cur.reset();  // join workers before reading the sink
      ckpt.emissions = sinks.back().TakeAll();
    }
  }

  // ---- within-schedule identity: the implementations must agree
  // byte-for-byte on this one arrival order, whatever the pipeline
  // timing did.
  auto diverge = [&](std::string msg) {
    if (out.impl_divergence.empty()) out.impl_divergence = std::move(msg);
  };
  if (!ckpt.fail.empty()) diverge(ckpt.fail);
  auto check_seq = [&](const Run& a, const Run& b, const char* an,
                       const char* bn) {
    if (a.emissions == b.emissions) return;
    diverge(std::string(an) + " and " + bn +
            " emission sequences differ (sizes " +
            std::to_string(a.emissions.size()) + " vs " +
            std::to_string(b.emissions.size()) + ")");
  };
  check_seq(sh1, sh2, "sharded1", "sharded2");
  check_seq(sh1, sh8, "sharded1", "sharded8");
  if (ckpt.fail.empty()) check_seq(sh2, ckpt, "sharded2", "sharded2ckpt");
  if (ContentSorted(aion.emissions) != ContentSorted(sh1.emissions)) {
    diverge("aion and sharded1 violation multisets differ (sizes " +
            std::to_string(aion.emissions.size()) + " vs " +
            std::to_string(sh1.emissions.size()) + ")");
  }
  if (!(sh1.stats == sh2.stats) || !(sh1.stats == sh8.stats)) {
    diverge("checker stats differ across shard counts");
  }
  if (ckpt.fail.empty() && !(sh2.stats == ckpt.stats)) {
    diverge("checker stats differ across the per-arrival restore chain");
  }
  for (const Run* r : {&aion, &sh2, &sh8, &ckpt}) {
    if (r->fail.empty() && r->watermark != sh1.watermark) {
      diverge("GC watermarks differ across implementations");
    }
  }

  // ---- the verdict itself (from the sharded reference stream).
  for (const Violation& v : sh1.emissions) {
    ++out.counts[static_cast<size_t>(v.type)];
  }
  out.normalized = NormalizeForSchedule(sh1.emissions);
  out.stats = sh1.stats;
  out.watermark = sh1.watermark;
  if (cfg.plant_frontier_bug) {
    out.planted_ext = PlantedFrontierExtCount(arrivals, perm, cfg.mode);
  }
  return out;
}

std::string CompareVerdicts(const ScheduleVerdict& ref,
                            const ScheduleVerdict& got,
                            const fuzz::ScheduleInvariance& inv) {
  auto count = [](const ScheduleVerdict& v, ViolationType t) {
    return v.counts[static_cast<size_t>(t)];
  };
  if (inv.dup_replay) {
    // D6: only TS-DUP detection is schedule-comparable.
    if ((count(ref, ViolationType::kTsDuplicate) > 0) !=
        (count(got, ViolationType::kTsDuplicate) > 0)) {
      return "TS-DUP detection flipped: reference=" +
             std::to_string(count(ref, ViolationType::kTsDuplicate)) +
             " got=" +
             std::to_string(count(got, ViolationType::kTsDuplicate));
    }
    return "";
  }

  std::vector<ViolationType> exact = {ViolationType::kInt,
                                      ViolationType::kTsOrder};
  if (inv.ext_exact) exact.push_back(ViolationType::kExt);
  if (inv.noconflict_exact) exact.push_back(ViolationType::kNoConflict);
  for (ViolationType t : exact) {
    if (count(ref, t) != count(got, t)) {
      return std::string(ViolationTypeName(t)) +
             " count flipped: reference=" + std::to_string(count(ref, t)) +
             " got=" + std::to_string(count(got, t));
    }
  }
  if ((count(ref, ViolationType::kSession) > 0) !=
      (count(got, ViolationType::kSession) > 0)) {
    return "SESSION detection flipped: reference=" +
           std::to_string(count(ref, ViolationType::kSession)) + " got=" +
           std::to_string(count(got, ViolationType::kSession));
  }

  // Content multiset, restricted to the classes that are exact.
  auto comparable = [&](const std::vector<Violation>& in) {
    std::vector<Violation> out;
    for (const Violation& v : in) {
      if (v.type == ViolationType::kExt && !inv.ext_exact) continue;
      if (v.type == ViolationType::kNoConflict && !inv.noconflict_exact) {
        continue;
      }
      out.push_back(v);
    }
    return out;
  };
  std::vector<Violation> a = comparable(ref.normalized);
  std::vector<Violation> b = comparable(got.normalized);
  if (a != b) {
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      if (!(a[i] == b[i])) {
        return "violation content flipped at multiset index " +
               std::to_string(i) + ": reference={" + a[i].ToString() +
               "} got={" + b[i].ToString() + "}";
      }
    }
    return "violation multiset sizes flipped: reference=" +
           std::to_string(a.size()) + " got=" + std::to_string(b.size());
  }

  // The watermark is schedule-invariant only while GC is off (it then
  // never moves); an active GC cadence makes the cut depend on arrival
  // positions, which is the same axis the D7 waiver covers.
  if (inv.noconflict_exact && ref.watermark != got.watermark) {
    return "GC watermark flipped: reference=" +
           std::to_string(ref.watermark) + " got=" +
           std::to_string(got.watermark);
  }
  return "";
}

ExploreResult ExploreHistory(const History& h, const ExploreOptions& opts) {
  ExploreResult res;
  if (h.txns.size() > kMaxExploreTxns) {
    res.error = "history has " + std::to_string(h.txns.size()) +
                " transactions; the exhaustive enumerator accepts at most " +
                std::to_string(kMaxExploreTxns);
    return res;
  }
  const OracleConfig& cfg = opts.oracle;
  std::vector<Arrival> arrivals = CanonicalArrivals(h, cfg.mode);
  const bool position_sensitive = cfg.finite_timeout() || cfg.gc_active();
  Dependence dep(arrivals, position_sensitive);
  const fuzz::ScheduleInvariance inv = fuzz::ScheduleInvarianceFor(
      cfg.finite_timeout(), cfg.gc_active(),
      fuzz::HistoryHasDuplicateTs(h, cfg.mode));

  std::optional<ScheduleVerdict> ref;
  EnumerationCounts counts = EnumerateSchedules(
      arrivals, dep, opts.max_schedules,
      [&](const std::vector<size_t>& perm) {
        ScheduleVerdict v = RunSchedule(arrivals, perm, cfg);
        if (!v.impl_divergence.empty()) {
          res.flip_found = true;
          res.rule = "impl-divergence";
          res.detail = v.impl_divergence;
          res.flip_schedule = ScheduleTids(arrivals, perm);
          return false;
        }
        if (!ref) {
          ref = std::move(v);
          res.reference_schedule = ScheduleTids(arrivals, perm);
          res.reference_counts = ref->counts;
          return true;
        }
        if (cfg.plant_frontier_bug && v.planted_ext != ref->planted_ext) {
          res.flip_found = true;
          res.rule = "planted-frontier";
          res.detail = "planted EXT oracle flipped: reference=" +
                       std::to_string(ref->planted_ext) + " got=" +
                       std::to_string(v.planted_ext);
          res.flip_schedule = ScheduleTids(arrivals, perm);
          return false;
        }
        std::string diff = CompareVerdicts(*ref, v, inv);
        if (!diff.empty()) {
          res.flip_found = true;
          res.rule = "schedule-invariance";
          res.detail = std::move(diff);
          res.flip_schedule = ScheduleTids(arrivals, perm);
          return false;
        }
        return true;
      });
  res.explored = counts.explored;
  res.pruned = counts.pruned;
  res.truncated = counts.truncated;
  return res;
}

ShrunkFlip ShrinkFlip(const History& h, const ExploreOptions& opts) {
  ShrunkFlip out;
  ExploreResult orig = ExploreHistory(h, opts);
  if (!orig.flip_found) {
    out.history = h;
    out.result = std::move(orig);
    return out;
  }
  const std::string rule = orig.rule;
  fuzz::ShrinkOptions shrink_opts;
  shrink_opts.max_predicate_calls = opts.shrink_predicate_calls;
  fuzz::ShrinkResult sr = fuzz::ShrinkHistory(
      h,
      [&](const History& cand) {
        if (cand.txns.size() > kMaxExploreTxns) return false;
        ExploreResult r = ExploreHistory(cand, opts);
        return r.flip_found && r.rule == rule;
      },
      shrink_opts);
  out.history = std::move(sr.minimized);
  out.predicate_calls = sr.predicate_calls;
  out.result = ExploreHistory(out.history, opts);
  return out;
}

std::string FormatScheduleSidecar(const ExploreResult& r) {
  std::ostringstream os;
  os << "chronos-explore-schedule v1\n";
  os << "rule=" << r.rule << "\n";
  os << "detail=" << OneLine(r.detail) << "\n";
  os << "reference=" << TidList(r.reference_schedule) << "\n";
  os << "flip=" << TidList(r.flip_schedule) << "\n";
  os << "explored=" << r.explored << "\n";
  os << "pruned=" << r.pruned << "\n";
  os << "truncated=" << (r.truncated ? 1 : 0) << "\n";
  return os.str();
}

}  // namespace chronos::explore

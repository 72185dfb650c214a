#include "fuzz/differ.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <random>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "baselines/elle.h"
#include "baselines/emme.h"
#include "baselines/polysi.h"
#include "core/aion.h"
#include "core/chronos.h"
#include "hist/collector.h"
#include "online/sharded_aion.h"

namespace chronos::fuzz {
namespace {

// PolySI's CEGAR loop is exponential in the worst case (that is the
// point of Fig. 4); cap its input so one unlucky scenario cannot stall
// the whole fuzz run. kUnknown verdicts count as "no opinion".
constexpr size_t kPolysiMaxTxns = 120;

constexpr ViolationType kAllTypes[] = {
    ViolationType::kSession,    ViolationType::kInt,
    ViolationType::kExt,        ViolationType::kNoConflict,
    ViolationType::kTsOrder,    ViolationType::kTsDuplicate,
};

// Arrival schedule for the online checkers: either the collector's
// commit-order schedule (optionally delayed) or a session-preserving
// shuffle (sno order within each session, random interleaving across).
std::vector<hist::CollectedTxn> BuildArrivals(const History& h,
                                              const FuzzScenario& sc) {
  if (sc.shuffle_seed == 0) {
    hist::CollectorParams cp;
    cp.delay_mean_ms = sc.delay_mean_ms;
    cp.delay_stddev_ms = sc.delay_stddev_ms;
    cp.seed = sc.seed * 977 + 5;
    return hist::ScheduleDelivery(h, cp);
  }
  std::vector<std::vector<const Transaction*>> sessions;
  for (const Transaction& t : h.txns) {
    if (t.sid >= sessions.size()) sessions.resize(t.sid + 1);
    sessions[t.sid].push_back(&t);
  }
  for (auto& s : sessions) {
    std::sort(s.begin(), s.end(),
              [](const Transaction* a, const Transaction* b) {
                return a->sno < b->sno;
              });
  }
  std::mt19937_64 rng(sc.shuffle_seed);
  std::vector<hist::CollectedTxn> out;
  out.reserve(h.txns.size());
  std::vector<size_t> cursor(sessions.size(), 0);
  size_t remaining = h.txns.size();
  while (remaining > 0) {
    size_t s = rng() % sessions.size();
    if (cursor[s] >= sessions[s].size()) continue;
    out.push_back({*sessions[s][cursor[s]++], out.size()});
    --remaining;
  }
  return out;
}

void CountEmissions(CheckerReport* r) {
  for (const Violation& v : r->emissions) {
    ++r->counts[static_cast<size_t>(v.type)];
  }
  r->total = r->emissions.size();
  r->detected = r->total > 0;
}

CheckerReport FromCountingSink(std::string name, const CountingSink& sink) {
  CheckerReport r;
  r.name = std::move(name);
  r.ran = true;
  r.total = sink.total();
  r.detected = r.total > 0;
  for (ViolationType t : kAllTypes) {
    r.counts[static_cast<size_t>(t)] = sink.count(t);
  }
  return r;
}

// Runs one online checker over the arrival schedule with the scenario's
// GC cadence and returns its full emission sequence.
template <typename Checker, typename StatsFn>
CheckerReport DriveOnline(std::string name, Checker* checker,
                          const std::vector<hist::CollectedTxn>& arrivals,
                          const FuzzScenario& sc, StatsFn stats_fn) {
  const GcPolicy gc = GcPolicy::Every(sc.gc_every, sc.gc_target);
  uint64_t fed = 0;
  for (const hist::CollectedTxn& ct : arrivals) {
    checker->OnTransaction(ct.txn, ct.deliver_at_ms);
    if (gc.Due(++fed, *checker)) checker->GcToLiveTarget(gc.target_live);
  }
  checker->Finish();
  CheckerReport r;
  r.name = std::move(name);
  r.ran = true;
  r.stats = stats_fn();
  return r;
}

std::string CountsToString(const CheckerReport& r) {
  std::ostringstream os;
  for (ViolationType t : kAllTypes) {
    if (r.Count(t) > 0) {
      os << " " << ViolationTypeName(t) << "=" << r.Count(t);
    }
  }
  return os.str();
}

}  // namespace

ScheduleInvariance ScheduleInvarianceFor(bool finite_ext_timeout,
                                         bool gc_active, bool has_dup_ts) {
  ScheduleInvariance inv;
  inv.dup_replay = has_dup_ts;                       // D6
  inv.ext_exact = !finite_ext_timeout && !gc_active; // D5 / D7
  inv.noconflict_exact = !gc_active;                 // D7
  return inv;
}

bool HistoryHasDuplicateTs(const History& h, IsolationLevel run_level) {
  std::unordered_map<Timestamp, TxnId> owner;  // registered timestamps
  auto clashes = [&](Timestamp ts, TxnId tid) {
    auto [it, fresh] = owner.emplace(ts, tid);
    return !fresh && it->second != tid;
  };
  // Commit timestamps seen so far, with whether any holder so far was a
  // membership-level (RC/RA) transaction.
  struct CtsInfo {
    TxnId tid;
    bool member;
  };
  std::unordered_map<Timestamp, CtsInfo> committers;
  for (const Transaction& t : h.txns) {
    const IsolationLevel lv = EffectiveLevel(t, run_level);
    const bool member = MembershipLevel(lv);
    auto [cit, fresh] =
        committers.try_emplace(t.commit_ts, CtsInfo{t.tid, member});
    if (!fresh && cit->second.tid != t.tid) {
      if (member || cit->second.member) return true;  // D9
    } else if (!fresh) {
      cit->second.member = cit->second.member || member;
    }
    if (lv == IsolationLevel::kSer) {
      if (clashes(t.commit_ts, t.tid)) return true;
    } else if (lv == IsolationLevel::kSi && t.TimestampsOrdered()) {
      if (clashes(t.start_ts, t.tid) || clashes(t.commit_ts, t.tid)) {
        return true;
      }
    }
  }
  return false;
}

FaultCounts FaultCounts::FromLog(const db::FaultLog& log) {
  FaultCounts c;
  c.lost_updates = log.lost_updates.load();
  c.stale_reads = log.stale_reads.load();
  c.early_commits = log.early_commits.load();
  c.late_starts = log.late_starts.load();
  c.value_corruptions = log.value_corruptions.load();
  c.session_reorders = log.session_reorders.load();
  c.ts_swaps = log.ts_swaps.load();
  return c;
}

bool DiffReport::HasRule(const std::string& rule) const {
  for (const Disagreement& d : disagreements) {
    if (d.rule == rule) return true;
  }
  return false;
}

const CheckerReport* DiffReport::Find(const std::string& name) const {
  for (const CheckerReport& r : checkers) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

std::string DiffReport::Summary() const {
  std::ostringstream os;
  for (const CheckerReport& r : checkers) {
    if (!r.ran) continue;
    os << "  " << r.name << ": "
       << (r.detected ? "DETECT total=" + std::to_string(r.total) : "accept")
       << CountsToString(r) << "\n";
  }
  for (const Disagreement& d : disagreements) {
    os << "  !! " << d.rule << ": " << d.detail << "\n";
  }
  return os.str();
}

DiffReport DiffHistory(const History& h, const FuzzScenario& sc,
                       CleanExpectation expect, const std::string& work_dir,
                       const OverBudgetFn& over_budget) {
  namespace fs = std::filesystem;
  DiffReport report;
  report.expectation = expect;

  // List histories are checked at SI: the scenario generator never pairs
  // them with SER, and neither list baseline (Elle-list) nor the corpus
  // has an SER list verdict, though Chronos and AION check lists at
  // either level. Forcing SI keeps a stray `--level=ser` replay of a list
  // repro on the SI matrix it was found with.
  const bool list = sc.wl.list_mode || HistoryHasListOps(h);
  const IsolationLevel level = list ? IsolationLevel::kSi : sc.db.isolation;
  // Mixed-level histories (entry D8): per-transaction iso tags route the
  // offline side to ChronosMixed and gate out every single-level checker
  // (Chronos, Emme, ElleKV, PolySI have no notion of per-transaction
  // levels). The online matrix below is level-aware end-to-end and runs
  // unchanged.
  const bool mixed = NeedsMixedLevelCheck(h);

  // Polled between checkers: once the caller's budget is spent, the
  // remaining (more expensive) checkers are skipped and the report is
  // marked timed_out, which suppresses every cross-check rule — a
  // partial matrix must not fabricate disagreements.
  auto budget_spent = [&]() {
    if (report.timed_out) return true;
    if (over_budget && over_budget()) report.timed_out = true;
    return report.timed_out;
  };

  // ---------------------------------------------------- offline checkers
  if (mixed) {
    CountingSink cs;
    ChronosMixed::CheckHistory(h, level, &cs);
    report.checkers.push_back(FromCountingSink("chronos-mixed", cs));
  } else {
    CountingSink cs;
    Chronos::CheckHistory(h, &cs, level);
    report.checkers.push_back(FromCountingSink("chronos", cs));

    if (!budget_spent()) {
      ChronosOptions copt;
      copt.mode = level;
      copt.gc_every_n_txns = 50;
      CountingSink gs;
      Chronos gc_checker(copt, &gs);
      History copy = h;
      gc_checker.Check(std::move(copy));
      report.checkers.push_back(FromCountingSink("chronos-gc", gs));
    }

    if (list) {
      if (!budget_spent()) {
        CountingSink el;
        baselines::BaselineResult elle =
            baselines::CheckElleList(h, IsolationLevel::kSi, &el);
        CheckerReport er = FromCountingSink("elle-list", el);
        er.detected = !elle.Accepted() || er.total > 0;
        report.checkers.push_back(std::move(er));
      }
    } else {
      if (!budget_spent()) {
        CountingSink es;
        baselines::BaselineResult emme =
            level == IsolationLevel::kSer ? baselines::CheckEmmeSer(h, &es)
                                          : baselines::CheckEmmeSi(h, &es);
        CheckerReport er = FromCountingSink("emme", es);
        er.detected = !emme.Accepted() || er.total > 0;
        report.checkers.push_back(std::move(er));
      }

      if (!budget_spent()) {
        CountingSink ks;
        baselines::BaselineResult elle =
            baselines::CheckElleKv(h, level, &ks);
        CheckerReport kr = FromCountingSink("ellekv", ks);
        kr.detected = !elle.Accepted() || kr.total > 0;
        report.checkers.push_back(std::move(kr));
      }
    }
    if (!list && level == IsolationLevel::kSi) {  // PolySI checks SI only
      CheckerReport pr;
      pr.name = "polysi";
      if (h.txns.size() <= kPolysiMaxTxns && !budget_spent()) {
        CountingSink ps;
        baselines::PolygraphResult poly = baselines::CheckPolySi(h, &ps);
        pr.ran = true;
        pr.detected =
            poly.verdict == baselines::PolygraphResult::Verdict::kViolation ||
            poly.anomalies > 0;
        pr.total = pr.detected ? std::max<size_t>(poly.anomalies, 1) : 0;
      }
      report.checkers.push_back(std::move(pr));
    }
  }

  // ----------------------------------------------------- online checkers
  // Registers and lists alike: Aion and ShardedAion understand
  // kAppend/kReadList natively (materialized-prefix frontier), so list
  // histories run the full online matrix too.
  if (!budget_spent()) {
    std::vector<hist::CollectedTxn> arrivals = BuildArrivals(h, sc);
    const std::string spill_root =
        (sc.spill && !work_dir.empty()) ? work_dir + "/spill" : "";
    if (!spill_root.empty()) fs::remove_all(spill_root);

    CheckerOptions opt;
    opt.mode = level;
    opt.ext_timeout_ms = sc.ext_timeout_ms;

    {
      CheckerOptions o = opt;
      if (!spill_root.empty()) o.spill_dir = spill_root + "/aion";
      VectorSink vs;
      Aion aion(o, &vs);
      CheckerReport r = DriveOnline("aion", &aion, arrivals, sc,
                                    [&] { return aion.stats(); });
      r.emissions = vs.TakeAll();
      CountEmissions(&r);
      report.checkers.push_back(std::move(r));
    }
    for (size_t shards : {size_t{1}, size_t{2}, size_t{8}}) {
      if (budget_spent()) break;
      CheckerOptions o = opt;
      if (!spill_root.empty()) {
        o.spill_dir = spill_root + "/sh" + std::to_string(shards);
      }
      VectorSink vs;
      std::string name = "sharded" + std::to_string(shards);
      auto sharded =
          std::make_unique<online::ShardedAion>(o, shards, &vs);
      CheckerReport r = DriveOnline(name, sharded.get(), arrivals, sc,
                                    [&] { return sharded->stats(); });
      sharded.reset();  // join workers before reading the sink
      r.emissions = vs.TakeAll();
      CountEmissions(&r);
      report.checkers.push_back(std::move(r));
    }
    // Checkpoint/restore identity: run a 2-shard checker to the midpoint,
    // export its state, import into a fresh instance (same options, same
    // spill dir — the restored manifests reference the epoch files the
    // first instance wrote), and finish the stream there. Must be
    // emission- and stats-identical to the uninterrupted sharded2 run.
    if (sc.ckpt_restore && !budget_spent()) {
      CheckerOptions o = opt;
      if (!spill_root.empty()) o.spill_dir = spill_root + "/sh2ckpt";
      const size_t cut = arrivals.size() / 2;
      // The GC cadence runs on across the cut: arrival i + 1 of the
      // stream is due where the uninterrupted run's is.
      const GcPolicy gc = GcPolicy::Every(sc.gc_every, sc.gc_target);
      online::ShardedAion::StateImage img;
      {
        // The pre-restore instance's destructor re-emits its buffered
        // violations; give it a throwaway sink — the image carries them
        // into the restored instance, which reports them at Finish().
        VectorSink discard;
        online::ShardedAion first(o, 2, &discard);
        for (size_t i = 0; i < cut; ++i) {
          first.OnTransaction(arrivals[i].txn, arrivals[i].deliver_at_ms);
          if (gc.Due(i + 1, first)) first.GcToLiveTarget(gc.target_live);
        }
        img = first.ExportState();
      }
      VectorSink vs;
      CheckerReport r;
      r.name = "sharded2ckpt";
      auto second = std::make_unique<online::ShardedAion>(o, 2, &vs);
      if (second->ImportState(img)) {
        r.ran = true;
        for (size_t i = cut; i < arrivals.size(); ++i) {
          second->OnTransaction(arrivals[i].txn, arrivals[i].deliver_at_ms);
          if (gc.Due(i + 1, *second)) second->GcToLiveTarget(gc.target_live);
        }
        second->Finish();
        r.stats = second->stats();
      }
      second.reset();  // join workers before reading the sink
      r.emissions = vs.TakeAll();
      CountEmissions(&r);
      report.checkers.push_back(std::move(r));
    }
    if (!spill_root.empty()) fs::remove_all(spill_root);
  }

  // A partial matrix (budget expired) must not run the cross-check
  // rules: missing checkers would read as disagreements.
  if (report.timed_out) return report;

  // ------------------------------------------------- cross-check rules
  auto disagree = [&](const char* rule, std::string detail,
                      std::string checker = "") {
    report.disagreements.push_back(
        {rule, std::move(detail), std::move(checker)});
  };
  const CheckerReport* ref = report.Find(mixed ? "chronos-mixed" : "chronos");

  // Rule: clean histories are accepted by everything. Online checkers
  // are exempt in weak scenarios (entries D5/D7); HLC-skew runs never
  // reach here with kClean (entry D3).
  if (expect == CleanExpectation::kClean) {
    for (const CheckerReport& r : report.checkers) {
      if (!r.ran || !r.detected) continue;
      bool online = r.name == "aion" || r.name.rfind("sharded", 0) == 0;
      if (online && !sc.strict) continue;
      disagree("clean-accept",
               r.name + " reports total=" + std::to_string(r.total) +
                   CountsToString(r) + " on a fault-free history",
               r.name);
    }
  }

  {
    const CheckerReport* aion = report.Find("aion");

    // Rule: AION's final counts equal the white-box offline reference's
    // (Chronos or ChronosMixed), class by class, in
    // strict scenarios. SESSION is boolean (entry D4); duplicate
    // timestamps suspend the class comparison (entry D6).
    if (sc.strict && ref && aion) {
      bool dup = ref->Count(ViolationType::kTsDuplicate) > 0 ||
                 aion->Count(ViolationType::kTsDuplicate) > 0;
      // Strict scenarios run with an infinite timeout and no GC, so of
      // the shared invariance table only the D6 axis can fire here.
      const ScheduleInvariance inv = ScheduleInvarianceFor(
          /*finite_ext_timeout=*/false, /*gc_active=*/false, dup);
      if (inv.dup_replay) {
        if ((ref->Count(ViolationType::kTsDuplicate) > 0) !=
            (aion->Count(ViolationType::kTsDuplicate) > 0)) {
          disagree("aion-vs-chronos",
                   "TS-DUP detection mismatch: " + ref->name + "=" +
                       std::to_string(
                           ref->Count(ViolationType::kTsDuplicate)) +
                       " aion=" +
                       std::to_string(
                           aion->Count(ViolationType::kTsDuplicate)),
                   "aion");
        }
      } else {
        std::vector<ViolationType> exact = {ViolationType::kInt,
                                            ViolationType::kTsOrder};
        if (inv.ext_exact) exact.push_back(ViolationType::kExt);
        if (inv.noconflict_exact) exact.push_back(ViolationType::kNoConflict);
        for (ViolationType t : exact) {
          if (ref->Count(t) != aion->Count(t)) {
            disagree("aion-vs-chronos",
                     std::string(ViolationTypeName(t)) + ": " + ref->name +
                         "=" + std::to_string(ref->Count(t)) + " aion=" +
                         std::to_string(aion->Count(t)),
                     "aion");
          }
        }
        if ((ref->Count(ViolationType::kSession) > 0) !=
            (aion->Count(ViolationType::kSession) > 0)) {
          disagree("aion-vs-chronos",
                   "SESSION detection mismatch: " + ref->name + "=" +
                       std::to_string(ref->Count(ViolationType::kSession)) +
                       " aion=" +
                       std::to_string(aion->Count(ViolationType::kSession)),
                   "aion");
        }
      }
    }

    // Rule: the sharded checker is deterministic across shard counts
    // (identical emission sequences) and verdict-identical to the
    // monolith (violation multisets). Holds in every scenario: all four
    // instances consumed the same schedule.
    const CheckerReport* sh1 = report.Find("sharded1");
    const CheckerReport* sh2 = report.Find("sharded2");
    const CheckerReport* sh8 = report.Find("sharded8");
    if (sh1 && sh2 && sh8) {
      if (!(sh1->emissions == sh2->emissions) ||
          !(sh1->emissions == sh8->emissions)) {
        disagree("sharded-identity",
                 "emission sequences differ across shard counts: sh1=" +
                     std::to_string(sh1->emissions.size()) + " sh2=" +
                     std::to_string(sh2->emissions.size()) + " sh8=" +
                     std::to_string(sh8->emissions.size()));
      }
      if (aion) {
        auto content_sorted = [](std::vector<Violation> v) {
          std::sort(v.begin(), v.end(), [](const Violation& a,
                                           const Violation& b) {
            if (a.tid != b.tid) return a.tid < b.tid;
            return ViolationLess(a, b);
          });
          return v;
        };
        if (content_sorted(aion->emissions) !=
            content_sorted(sh1->emissions)) {
          disagree("sharded-vs-aion",
                   "violation multisets differ: aion=" +
                       std::to_string(aion->emissions.size()) + " sharded1=" +
                       std::to_string(sh1->emissions.size()));
        }
      }
    }

    // Rule: a mid-stream checkpoint + restore is invisible — the
    // restored checker's emission sequence and stats equal the
    // uninterrupted sharded2 run's. Holds in every scenario (the restore
    // consumed the exact same schedule). A failed ImportState of a
    // just-exported image is itself a bug.
    const CheckerReport* shc = report.Find("sharded2ckpt");
    if (shc && !shc->ran) {
      disagree("ckpt-restore-identity",
               "ImportState rejected a freshly exported state image",
               "sharded2ckpt");
    } else if (shc && sh2) {
      if (!(shc->emissions == sh2->emissions)) {
        disagree("ckpt-restore-identity",
                 "emissions differ after mid-stream restore: sharded2=" +
                     std::to_string(sh2->emissions.size()) +
                     " sharded2ckpt=" + std::to_string(shc->emissions.size()),
                 "sharded2ckpt");
      }
      if (!(shc->stats == sh2->stats)) {
        disagree("ckpt-restore-identity",
                 "checker stats differ after mid-stream restore",
                 "sharded2ckpt");
      }
    }

    // Rule: the two white-box offline checkers agree on the verdict
    // (register histories only; Emme has no list mode).
    const CheckerReport* emme = report.Find("emme");
    if (ref && emme && emme->ran && ref->detected != emme->detected) {
      disagree("emme-vs-chronos",
               "verdict mismatch: chronos=" +
                   std::string(ref->detected ? "DETECT" : "accept") +
                   " emme=" +
                   std::string(emme->detected ? "DETECT" : "accept"),
               "emme");
    }

    // Rule: periodic GC never changes Chronos's verdict.
    const CheckerReport* gc = report.Find("chronos-gc");
    if (ref && gc && gc->counts != ref->counts) {
      disagree("chronos-gc-invariance",
               "per-class counts changed under gc_every=50");
    }
  }

  // Rule: black-box detection implies white-box detection (white-box
  // checkers dominate black-box ones, Fig. 11; the converse is the
  // expected divergence D1).
  for (const char* bb : {"ellekv", "elle-list", "polysi"}) {
    const CheckerReport* r = report.Find(bb);
    if (r && r->ran && r->detected && ref && !ref->detected) {
      disagree("blackbox-implies-whitebox",
               std::string(bb) + " detects a violation but " + ref->name +
                   " accepts",
               bb);
    }
  }

  return report;
}

DiffReport RunDiffer(const FuzzScenario& sc, const std::string& work_dir,
                     History* out_history, FaultCounts* out_injected,
                     const OverBudgetFn& over_budget) {
  db::Database database(sc.db);
  workload::RunDefaultWorkload(&database, sc.wl);
  History h = database.ExportHistory();
  workload::AssignLevels(&h, sc.wl.mix, sc.wl.seed);
  FaultCounts injected = FaultCounts::FromLog(database.fault_log());

  const bool skewed = sc.db.timestamping == db::DbConfig::Timestamping::kHlc &&
                      sc.db.hlc_max_skew != 0;
  CleanExpectation expect = (injected.Total() == 0 && !skewed)
                                ? CleanExpectation::kClean
                                : CleanExpectation::kFaulty;
  DiffReport report = DiffHistory(h, sc, expect, work_dir, over_budget);
  report.injected = injected;
  if (out_history) *out_history = std::move(h);
  if (out_injected) *out_injected = injected;
  return report;
}

}  // namespace chronos::fuzz

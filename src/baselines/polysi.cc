#include "baselines/polysi.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "baselines/depgraph.h"
#include "baselines/sat/solver.h"
#include "core/small_map.h"

namespace chronos::baselines {
namespace {

uint64_t PairKey(uint32_t a, uint32_t b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

// A directed edge annotated with the SAT literal that produced it
// (0 for fixed edges: so / wr / pruned ww).
struct AnnEdge {
  uint32_t to = 0;
  sat::Lit lit = 0;
  bool is_rw = false;
};

// Finds a cycle in the annotated graph under the SER (plain) or SI
// (phase expansion) criterion. Returns the literals of the edges on one
// cycle, or nullopt if acyclic. `hard_cycle` is set when a cycle exists
// whose edges are all fixed (no literals to block).
std::optional<std::vector<sat::Lit>> FindCycle(
    const std::vector<std::vector<AnnEdge>>& adj, bool si_expansion,
    bool* hard_cycle) {
  size_t n = adj.size();
  size_t total = si_expansion ? 2 * n : n;
  // Expansion node e = 2x+phase (SI) or x (SER).
  auto expand = [&](uint32_t x, bool phase) {
    return si_expansion ? 2 * x + (phase ? 1 : 0) : x;
  };
  std::vector<uint8_t> color(total, 0);
  std::vector<int64_t> on_path(total, -1);
  struct Frame {
    uint32_t node;   // original node
    bool phase;      // entered via rw?
    size_t next = 0;
  };
  std::vector<Frame> stack;
  std::vector<sat::Lit> path_lits;

  for (size_t root = 0; root < total; ++root) {
    if (color[root] != 0) continue;
    uint32_t rnode = static_cast<uint32_t>(si_expansion ? root / 2 : root);
    bool rphase = si_expansion && root % 2 == 1;
    stack.push_back({rnode, rphase, 0});
    color[root] = 1;
    on_path[root] = 0;
    path_lits.clear();
    while (!stack.empty()) {
      Frame& f = stack.back();
      size_t self = expand(f.node, f.phase);
      bool advanced = false;
      while (f.next < adj[f.node].size()) {
        const AnnEdge& e = adj[f.node][f.next++];
        if (e.is_rw && f.phase) continue;        // two adjacent rw: allowed
        bool child_phase = si_expansion && e.is_rw;
        size_t child = expand(e.to, child_phase);
        if (color[child] == 1) {
          // Cycle: collect literals from the path suffix plus this edge.
          std::vector<sat::Lit> lits;
          size_t from = static_cast<size_t>(on_path[child]);
          for (size_t i = from; i < path_lits.size(); ++i) {
            if (path_lits[i] != 0) lits.push_back(path_lits[i]);
          }
          if (e.lit != 0) lits.push_back(e.lit);
          *hard_cycle = lits.empty();
          return lits;
        }
        if (color[child] == 0) {
          color[child] = 1;
          on_path[child] = static_cast<int64_t>(path_lits.size() + 1);
          path_lits.push_back(e.lit);
          stack.push_back({e.to, child_phase, 0});
          advanced = true;
          break;
        }
      }
      if (!advanced) {
        color[self] = 2;
        on_path[self] = -1;
        stack.pop_back();
        if (!path_lits.empty()) path_lits.pop_back();
      }
    }
  }
  *hard_cycle = false;
  return std::nullopt;
}

}  // namespace

PolygraphResult CheckPolygraph(const History& h,
                               const PolygraphParams& params,
                               ViolationSink* sink) {
  PolygraphResult result;
  Stopwatch sw;
  const size_t n = h.txns.size();

  // Fixed edges (so + wr) and pre-checks (INT, G1a) via the shared
  // builder with no recovered version order.
  DepGraph base;
  result.anomalies = BuildDepGraph(h, VersionOrders{},
                                   GraphBuildOptions{true, false}, &base, sink);

  // Per-key writers (stream order) and external reads mapped to writers.
  std::unordered_map<Key, std::vector<uint32_t>> writers;
  std::unordered_map<Key, std::unordered_map<Value, uint32_t>> writer_of;
  for (uint32_t i = 0; i < n; ++i) {
    SmallMap<Key, bool> seen;
    for (const Op& op : h.txns[i].ops) {
      if (op.type != OpType::kWrite) continue;
      writer_of[op.key].emplace(op.value, i);
      if (!seen.Find(op.key)) {
        seen.Put(op.key, true);
        writers[op.key].push_back(i);
      }
    }
  }
  struct ExtRead {
    Key key;
    uint32_t reader;
    uint32_t writer;  // UINT32_MAX: read of the initial version
  };
  std::vector<ExtRead> ext_reads;
  for (uint32_t i = 0; i < n; ++i) {
    SmallMap<Key, bool> accessed;
    for (const Op& op : h.txns[i].ops) {
      if (op.type == OpType::kWrite) {
        accessed.Put(op.key, true);
      } else if (op.type == OpType::kRead) {
        if (accessed.Find(op.key)) continue;
        accessed.Put(op.key, true);
        uint32_t w = UINT32_MAX;
        if (op.value != kValueInit) {
          auto kit = writer_of.find(op.key);
          if (kit != writer_of.end()) {
            auto vit = kit->second.find(op.value);
            if (vit != kit->second.end()) w = vit->second;
          }
          if (w == UINT32_MAX) continue;  // G1a already reported
          if (w == i) continue;
        }
        ext_reads.push_back({op.key, i, w});
      }
    }
  }

  // Order variables for unordered writer pairs; Viper-style pruning fixes
  // pairs that session order or RMW chains determine.
  sat::Solver solver;
  std::unordered_map<Key, std::unordered_map<uint64_t, sat::Lit>> pair_lit;
  std::unordered_map<Key, std::unordered_map<uint64_t, bool>> pair_fixed;
  for (const auto& [key, ws] : writers) {
    auto& lits = pair_lit[key];
    auto& fixed = pair_fixed[key];
    for (size_t a = 0; a < ws.size(); ++a) {
      for (size_t b = a + 1; b < ws.size(); ++b) {
        uint32_t i = ws[a], j = ws[b];
        if (params.prune_known_orders &&
            h.txns[i].sid == h.txns[j].sid) {
          fixed[PairKey(i, j)] = h.txns[i].sno < h.txns[j].sno;
          continue;
        }
        if (params.epoch_of) {
          uint64_t ei = params.epoch_of(i), ej = params.epoch_of(j);
          if (ei + 2 <= ej || ej + 2 <= ei) {
            fixed[PairKey(i, j)] = ei < ej;
            continue;
          }
        }
        int v = solver.NewVar();
        solver.SetPhase(v, true);  // seed: stream order (i before j)
        lits[PairKey(i, j)] = v;
      }
    }
  }
  result.sat_vars = static_cast<size_t>(solver.NumVars());

  // Literal asserting "i's version precedes j's" (0 when fixed true;
  // callers must consult ordered() for the direction of fixed pairs).
  auto lit_before = [&](Key key, uint32_t i, uint32_t j) -> sat::Lit {
    auto& lits = pair_lit[key];
    auto it = lits.find(PairKey(std::min(i, j), std::max(i, j)));
    if (it == lits.end()) return 0;
    return i < j ? it->second : -it->second;
  };
  auto is_before = [&](Key key, uint32_t i, uint32_t j) -> bool {
    sat::Lit l = lit_before(key, i, j);
    if (l != 0) {
      bool v = solver.Value(l > 0 ? l : -l);
      return l > 0 ? v : !v;
    }
    auto& fixed = pair_fixed[key];
    auto it = fixed.find(PairKey(std::min(i, j), std::max(i, j)));
    if (it != fixed.end()) return i < j ? it->second : !it->second;
    return i < j;  // defensive: deterministic default
  };

  // ---- CEGAR loop ----
  const bool si = params.level == IsolationLevel::kSi;
  while (result.cegar_rounds < params.max_cegar_rounds) {
    ++result.cegar_rounds;
    sat::Solver::Result sres = solver.Solve(params.max_conflicts);
    if (sres == sat::Solver::Result::kUnsat) {
      result.verdict = PolygraphResult::Verdict::kViolation;
      if (!h.txns.empty()) {
        sink->Report({ViolationType::kExt, h.txns[0].tid, kTxnNone, 0});
      }
      break;
    }
    if (sres == sat::Solver::Result::kUnknown) {
      result.verdict = PolygraphResult::Verdict::kUnknown;
      break;
    }

    // Induced annotated graph under the current model.
    std::vector<std::vector<AnnEdge>> adj(n);
    for (uint32_t x = 0; x < n; ++x) {
      for (uint32_t y : base.dep[x]) adj[x].push_back({y, 0, false});
    }
    for (const auto& [key, ws] : writers) {
      for (size_t a = 0; a < ws.size(); ++a) {
        for (size_t b = a + 1; b < ws.size(); ++b) {
          uint32_t i = ws[a], j = ws[b];
          bool before = is_before(key, i, j);
          sat::Lit l = lit_before(key, before ? i : j, before ? j : i);
          if (before) {
            adj[i].push_back({j, l, false});
          } else {
            adj[j].push_back({i, l, false});
          }
        }
      }
    }
    for (const ExtRead& er : ext_reads) {
      const auto& ws = writers[er.key];
      for (uint32_t x : ws) {
        if (x == er.writer || x == er.reader) continue;
        if (er.writer == UINT32_MAX || is_before(er.key, er.writer, x)) {
          sat::Lit l = er.writer == UINT32_MAX
                           ? 0
                           : lit_before(er.key, er.writer, x);
          adj[er.reader].push_back({x, l, true});
        }
      }
    }

    bool hard = false;
    auto cycle_lits = FindCycle(adj, si, &hard);
    if (!cycle_lits) {
      result.verdict = PolygraphResult::Verdict::kAccepted;
      break;
    }
    if (hard) {
      result.verdict = PolygraphResult::Verdict::kViolation;
      if (!h.txns.empty()) {
        sink->Report({ViolationType::kExt, h.txns[0].tid, kTxnNone, 0});
      }
      break;
    }
    std::vector<sat::Lit> clause;
    clause.reserve(cycle_lits->size());
    for (sat::Lit l : *cycle_lits) clause.push_back(-l);
    solver.AddClause(std::move(clause));
  }

  if (result.cegar_rounds >= params.max_cegar_rounds &&
      result.verdict == PolygraphResult::Verdict::kUnknown) {
    result.verdict = PolygraphResult::Verdict::kUnknown;
  }
  result.seconds = sw.Seconds();
  return result;
}

PolygraphResult CheckPolySi(const History& h, ViolationSink* sink) {
  PolygraphParams p;
  p.level = IsolationLevel::kSi;
  p.prune_known_orders = false;
  return CheckPolygraph(h, p, sink);
}

PolygraphResult CheckViper(const History& h, ViolationSink* sink) {
  PolygraphParams p;
  p.level = IsolationLevel::kSi;
  p.prune_known_orders = true;
  return CheckPolygraph(h, p, sink);
}

}  // namespace chronos::baselines

#include "baselines/elle.h"

#include "core/small_map.h"

namespace chronos::baselines {

BaselineResult CheckElleKv(const History& h, IsolationLevel level,
                           ViolationSink* sink) {
  BaselineResult result;
  Stopwatch sw;

  // Registers give Elle no list prefixes to recover a version order from,
  // so the graph carries only the edges that are certain: so, wr, plus ww
  // edges from read-modify-write chains (a transaction that externally
  // reads k=u and then writes k places u's writer directly before itself).
  std::vector<std::pair<uint32_t, uint32_t>> rmw_ww;
  {
    std::unordered_map<Key, std::unordered_map<Value, uint32_t>> writer_of;
    for (uint32_t i = 0; i < h.txns.size(); ++i) {
      for (const Op& op : h.txns[i].ops) {
        if (op.type == OpType::kWrite) writer_of[op.key].emplace(op.value, i);
      }
    }
    for (uint32_t i = 0; i < h.txns.size(); ++i) {
      SmallMap<Key, Value> first_read;
      SmallMap<Key, bool> wrote;
      for (const Op& op : h.txns[i].ops) {
        if (op.type == OpType::kRead && !wrote.Find(op.key) &&
            !first_read.Find(op.key)) {
          first_read.Put(op.key, op.value);
        } else if (op.type == OpType::kWrite) {
          wrote.Put(op.key, true);
        }
      }
      for (const auto& [key, u] : first_read) {
        if (!wrote.Find(key) || u == kValueInit) continue;
        auto kit = writer_of.find(key);
        if (kit == writer_of.end()) continue;
        auto vit = kit->second.find(u);
        if (vit == kit->second.end() || vit->second == i) continue;
        rmw_ww.emplace_back(vit->second, i);
      }
    }
  }

  DepGraph g;
  result.anomalies = BuildDepGraph(h, VersionOrders{},
                                   GraphBuildOptions{true, false}, &g, sink);
  for (const auto& [a, b] : rmw_ww) g.AddDep(a, b);
  result.graph_edges = g.NumEdges();
  bool ok = level == IsolationLevel::kSer ? SatisfiesSerCriterion(g)
                                          : SatisfiesSiCriterion(g);
  result.cycle_found = !ok;
  if (!ok && !h.txns.empty()) {
    sink->Report({ViolationType::kExt, h.txns[0].tid, kTxnNone, 0});
  }
  result.seconds = sw.Seconds();
  return result;
}

BaselineResult CheckElleList(const History& h, IsolationLevel level,
                             ViolationSink* sink) {
  BaselineResult result;
  Stopwatch sw;
  size_t prefix_anomalies = 0;
  VersionOrders orders = RecoverFromListPrefixes(h, sink, &prefix_anomalies);
  DepGraph g;
  result.anomalies =
      prefix_anomalies +
      BuildDepGraph(h, orders, GraphBuildOptions{true, false}, &g, sink);
  result.graph_edges = g.NumEdges();
  bool ok = level == IsolationLevel::kSer ? SatisfiesSerCriterion(g)
                                          : SatisfiesSiCriterion(g);
  result.cycle_found = !ok;
  if (!ok && !h.txns.empty()) {
    sink->Report({ViolationType::kExt, h.txns[0].tid, kTxnNone, 0});
  }
  result.seconds = sw.Seconds();
  return result;
}

}  // namespace chronos::baselines

#include "baselines/cobra.h"

#include <unordered_map>

#include "baselines/depgraph.h"
#include "baselines/polysi.h"
#include "core/stats.h"

namespace chronos::baselines {

namespace {

// Reachability closure of the accumulated graph via bitset DP in reverse
// topological order. This models Cobra's frozen-graph verification (kept
// on a GPU in the original system): the dominant, history-length-
// dependent cost of each round. Returns false on a cycle.
bool RecomputeClosure(const std::vector<std::vector<uint32_t>>& adj) {
  size_t n = adj.size();
  std::vector<uint32_t> indeg(n, 0);
  for (const auto& out : adj) {
    for (uint32_t v : out) ++indeg[v];
  }
  std::vector<uint32_t> order;
  order.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (indeg[i] == 0) order.push_back(i);
  }
  for (size_t head = 0; head < order.size(); ++head) {
    for (uint32_t v : adj[order[head]]) {
      if (--indeg[v] == 0) order.push_back(v);
    }
  }
  if (order.size() != n) return false;  // cycle
  size_t words = (n + 63) / 64;
  std::vector<uint64_t> reach(n * words, 0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    uint32_t u = *it;
    uint64_t* row = &reach[static_cast<size_t>(u) * words];
    row[u / 64] |= uint64_t{1} << (u % 64);
    for (uint32_t v : adj[u]) {
      const uint64_t* vrow = &reach[static_cast<size_t>(v) * words];
      for (size_t w = 0; w < words; ++w) row[w] |= vrow[w];
    }
  }
  return true;
}

}  // namespace

CobraRun RunCobraSer(const std::vector<hist::CollectedTxn>& stream,
                     const CobraParams& params, ViolationSink* sink) {
  CobraRun run;
  Stopwatch sw;

  // Accumulated known graph (so + wr + frozen ww from solved rounds),
  // re-verified wholesale every round: this is the growing cost term.
  std::vector<std::vector<uint32_t>> acc_adj;
  std::unordered_map<TxnId, uint32_t> acc_index;
  std::unordered_map<Key, std::unordered_map<Value, uint32_t>> acc_writer;
  std::unordered_map<SessionId, uint32_t> acc_session_tail;

  const uint64_t fence_period =
      std::max<uint64_t>(1, static_cast<uint64_t>(params.fence_every) *
                                params.sessions);
  // Fence epochs follow commit order: fence transactions commit between
  // epochs, so the epoch of a transaction is its commit rank divided by
  // the fence period (delivery order is too scrambled to use directly).
  std::vector<uint64_t> epoch_of_pos(stream.size());
  {
    std::vector<uint32_t> by_cts(stream.size());
    for (uint32_t i = 0; i < by_cts.size(); ++i) by_cts[i] = i;
    std::sort(by_cts.begin(), by_cts.end(), [&](uint32_t a, uint32_t b) {
      return stream[a].txn.commit_ts < stream[b].txn.commit_ts;
    });
    for (uint32_t rank = 0; rank < by_cts.size(); ++rank) {
      epoch_of_pos[by_cts[rank]] = rank / fence_period;
    }
  }

  size_t pos = 0;
  while (pos < stream.size() && !run.violation_found) {
    size_t round_end = std::min(stream.size(), pos + params.round_size);

    // Build the round sub-history. Reads justified by earlier rounds are
    // dropped from the round-local polygraph (their wr edges live in the
    // accumulated graph below); reads of writers not yet seen stay out as
    // well (stragglers resolve in a later round's accumulated pass).
    std::unordered_map<Key, std::unordered_map<Value, bool>> in_round_writer;
    for (size_t i = pos; i < round_end; ++i) {
      for (const Op& op : stream[i].txn.ops) {
        if (op.type == OpType::kWrite) {
          in_round_writer[op.key][op.value] = true;
        }
      }
    }
    History round;
    round.txns.reserve(round_end - pos);
    for (size_t i = pos; i < round_end; ++i) {
      Transaction t = stream[i].txn;
      std::vector<Op> kept;
      kept.reserve(t.ops.size());
      for (const Op& op : t.ops) {
        if (op.type == OpType::kRead && op.value != kValueInit) {
          auto kit = in_round_writer.find(op.key);
          bool local = kit != in_round_writer.end() &&
                       kit->second.count(op.value) > 0;
          if (!local) continue;  // justified upstream (or straggler)
        }
        kept.push_back(op);
      }
      t.ops = std::move(kept);
      round.txns.push_back(std::move(t));
    }

    // Solve the round's SER polygraph with fence-epoch pruning.
    PolygraphParams pp;
    pp.level = IsolationLevel::kSer;
    pp.prune_known_orders = true;
    uint64_t base_index = pos;
    pp.epoch_of = [&epoch_of_pos, base_index](uint32_t local) {
      return epoch_of_pos[base_index + local];
    };
    CountingSink round_sink;
    PolygraphResult pr = CheckPolygraph(round, pp, &round_sink);
    if (pr.verdict == PolygraphResult::Verdict::kViolation ||
        round_sink.total() > 0) {
      for (const Violation& v : round_sink.first()) sink->Report(v);
      run.violation_found = true;  // Cobra terminates at first violation
    }

    // Freeze round edges into the accumulated graph and re-verify it.
    for (size_t i = pos; i < round_end; ++i) {
      const Transaction& t = stream[i].txn;
      uint32_t idx = static_cast<uint32_t>(acc_adj.size());
      acc_adj.emplace_back();
      acc_index[t.tid] = idx;
      auto sit = acc_session_tail.find(t.sid);
      if (sit != acc_session_tail.end()) acc_adj[sit->second].push_back(idx);
      acc_session_tail[t.sid] = idx;
      for (const Op& op : t.ops) {
        if (op.type == OpType::kWrite) {
          acc_writer[op.key][op.value] = idx;
        } else if (op.type == OpType::kRead && op.value != kValueInit) {
          auto kit = acc_writer.find(op.key);
          if (kit == acc_writer.end()) continue;
          auto vit = kit->second.find(op.value);
          if (vit != kit->second.end() && vit->second != idx) {
            acc_adj[vit->second].push_back(idx);
          }
        }
      }
    }
    if (!RecomputeClosure(acc_adj)) {
      if (!stream.empty()) {
        sink->Report({ViolationType::kExt, stream[pos].txn.tid});
      }
      run.violation_found = true;
    }

    pos = round_end;
    run.processed = pos;
    run.round_progress.emplace_back(sw.Seconds(), run.processed);
  }

  run.wall_seconds = sw.Seconds();
  return run;
}

}  // namespace chronos::baselines

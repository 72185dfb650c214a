// Shared per-transaction replay of list operations (paper Sec. III-B1:
// CHRONOS/AION "easily adaptable to support other data types such as
// lists"). Both the offline Chronos replay and the online ingress
// (TxnIngress::ClassifyOps) classify a transaction's list reads with
// this helper, so their INT/EXT taxonomy agrees by construction:
//
//   INT  — the read contradicts the transaction's *own* prior list state
//          (a previously observed list plus its own appends since), a
//          frontier-independent fact.
//   EXT  — the first consistent read of a key resolves an external base
//          prefix (the observed list minus the transaction's own append
//          suffix); that base must equal the key's committed cumulative
//          append sequence at the read view, which only a frontier check
//          (offline snapshot or online version chain) can decide.
//
// Mirroring the register classification in ClassifyOps: the last
// observed list becomes the expected state for later internal reads, so
// one bad read does not cascade into one violation per subsequent read.
#ifndef CHRONOS_CORE_LIST_REPLAY_H_
#define CHRONOS_CORE_LIST_REPLAY_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/types.h"

namespace chronos {

/// First index at which `expected` and `got` differ: the first unequal
/// element, or the shorter length when one is a proper prefix of the
/// other. -1 when the lists are equal.
inline int64_t FirstListDivergence(const Value* expected, size_t expected_len,
                                   const Value* got, size_t got_len) {
  size_t n = expected_len < got_len ? expected_len : got_len;
  for (size_t i = 0; i < n; ++i) {
    if (expected[i] != got[i]) return static_cast<int64_t>(i);
  }
  if (expected_len != got_len) return static_cast<int64_t>(n);
  return -1;
}

inline int64_t FirstListDivergence(const std::vector<Value>& expected,
                                   const std::vector<Value>& got) {
  return FirstListDivergence(expected.data(), expected.size(), got.data(),
                             got.size());
}

/// Per-(transaction, key) list replay state.
struct ListAccess {
  /// Expected cumulative list as of the last read (base resolved).
  bool base_known = false;
  std::vector<Value> base;
  /// Own appends since the last read (program order).
  std::vector<Value> own;
};

/// Outcome of classifying one list read.
struct ListReadOutcome {
  enum class Kind {
    kConsistent,    ///< matches the expected state; nothing to report
    kIntMismatch,   ///< contradicts the transaction's own prior list ops
    kResolvedBase,  ///< first consistent read: `resolved` needs an EXT check
  };
  Kind kind = Kind::kConsistent;
  /// kResolvedBase: the external base prefix (observed minus own suffix).
  std::vector<Value> resolved;
  /// kIntMismatch: report payload (lengths + first divergent index).
  int64_t expected_len = 0;
  int64_t got_len = 0;
  int64_t divergence = -1;
};

/// Classifies one list read observing `observed` against `st`, updating
/// `st` to adopt the observation (last read wins, like register int_val).
inline ListReadOutcome ClassifyListRead(ListAccess* st,
                                        const std::vector<Value>& observed) {
  ListReadOutcome out;
  if (st->base_known) {
    // Expected = base ++ own, compared in place (no concatenation: this
    // runs per internal read on both checkers' hot paths).
    const size_t base_len = st->base.size();
    const size_t exp_len = base_len + st->own.size();
    const size_t n = exp_len < observed.size() ? exp_len : observed.size();
    int64_t div = -1;
    for (size_t i = 0; i < n; ++i) {
      Value e = i < base_len ? st->base[i] : st->own[i - base_len];
      if (e != observed[i]) {
        div = static_cast<int64_t>(i);
        break;
      }
    }
    if (div < 0 && exp_len != observed.size()) div = static_cast<int64_t>(n);
    if (div >= 0) {
      out.kind = ListReadOutcome::Kind::kIntMismatch;
      out.expected_len = static_cast<int64_t>(exp_len);
      out.got_len = static_cast<int64_t>(observed.size());
      out.divergence = div;
    }
  } else if (observed.size() >= st->own.size() &&
             std::equal(st->own.begin(), st->own.end(),
                        observed.end() - static_cast<long>(st->own.size()))) {
    // First consistent read: everything before the own-append suffix is
    // the external base this transaction claims to have started from.
    out.kind = ListReadOutcome::Kind::kResolvedBase;
    out.resolved.assign(observed.begin(),
                        observed.end() - static_cast<long>(st->own.size()));
  } else {
    // The observation does not even end with the transaction's own
    // appends: internally inconsistent regardless of the frontier. The
    // divergence index is reported in observed-list coordinates, aligned
    // so the own suffix would occupy the tail.
    out.kind = ListReadOutcome::Kind::kIntMismatch;
    out.expected_len = static_cast<int64_t>(st->own.size());
    out.got_len = static_cast<int64_t>(observed.size());
    if (observed.size() < st->own.size()) {
      out.divergence = static_cast<int64_t>(observed.size());
    } else {
      size_t off = observed.size() - st->own.size();
      out.divergence = static_cast<int64_t>(off) +
                       FirstListDivergence(st->own.data(), st->own.size(),
                                           observed.data() + off,
                                           st->own.size());
    }
  }
  st->base_known = true;
  st->base = observed;
  st->own.clear();
  return out;
}

}  // namespace chronos

#endif  // CHRONOS_CORE_LIST_REPLAY_H_

#include "explore/schedule.h"

#include <algorithm>
#include <sstream>

namespace chronos::explore {

std::vector<Arrival> CanonicalArrivals(const History& h,
                                       IsolationLevel run_level) {
  std::vector<Arrival> out;
  out.reserve(h.txns.size());
  for (const Transaction& t : h.txns) {
    Arrival a;
    a.txn = &t;
    for (const Op& op : t.ops) a.keys.push_back(op.key);
    std::sort(a.keys.begin(), a.keys.end());
    a.keys.erase(std::unique(a.keys.begin(), a.keys.end()), a.keys.end());
    // Registration footprint follows the transaction's effective level:
    // SER registers {commit}, Eq.(1)-valid SI registers {start, commit},
    // and RC/RA register nothing at all — which makes mixed-level
    // histories commute more widely under the DPOR dependence relation.
    switch (EffectiveLevel(t, run_level)) {
      case IsolationLevel::kSer:
        a.reg_ts = {t.commit_ts};
        break;
      case IsolationLevel::kSi:
        if (t.TimestampsOrdered()) {
          a.reg_ts = {t.start_ts, t.commit_ts};
          if (t.start_ts == t.commit_ts) a.reg_ts.pop_back();
        }
        break;
      default:  // kRc / kRa: membership levels, no timestamp registration
        break;
    }
    out.push_back(std::move(a));
  }
  std::sort(out.begin(), out.end(), [](const Arrival& a, const Arrival& b) {
    if (a.txn->commit_ts != b.txn->commit_ts) {
      return a.txn->commit_ts < b.txn->commit_ts;
    }
    return a.txn->tid < b.txn->tid;
  });
  return out;
}

namespace {

template <typename V>
bool SortedIntersect(const std::vector<V>& a, const std::vector<V>& b) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

}  // namespace

Dependence::Dependence(const std::vector<Arrival>& arrivals,
                       bool position_sensitive)
    : n_(arrivals.size()), m_(n_ * n_, 0) {
  for (size_t i = 0; i < n_; ++i) {
    for (size_t j = i + 1; j < n_; ++j) {
      const Arrival& a = arrivals[i];
      const Arrival& b = arrivals[j];
      bool dep = position_sensitive || a.txn->sid == b.txn->sid ||
                 SortedIntersect(a.keys, b.keys);
      if (!dep) {
        std::vector<Timestamp> ta = a.reg_ts, tb = b.reg_ts;
        std::sort(ta.begin(), ta.end());
        std::sort(tb.begin(), tb.end());
        dep = SortedIntersect(ta, tb);
      }
      m_[i * n_ + j] = m_[j * n_ + i] = dep ? 1 : 0;
    }
  }
}

std::string FormatSchedule(const std::vector<Arrival>& arrivals,
                           const std::vector<size_t>& perm) {
  std::ostringstream os;
  for (size_t k = 0; k < perm.size(); ++k) {
    if (k > 0) os << ",";
    os << arrivals[perm[k]].txn->tid;
  }
  return os.str();
}

std::vector<TxnId> ScheduleTids(const std::vector<Arrival>& arrivals,
                                const std::vector<size_t>& perm) {
  std::vector<TxnId> tids;
  tids.reserve(perm.size());
  for (size_t idx : perm) tids.push_back(arrivals[idx].txn->tid);
  return tids;
}

}  // namespace chronos::explore

#include "core/violation.h"

#include <sstream>
#include <tuple>

namespace chronos {

std::string ToString(const Op& op) {
  std::ostringstream os;
  switch (op.type) {
    case OpType::kRead: os << "R(" << op.key << "," << op.value << ")"; break;
    case OpType::kWrite: os << "W(" << op.key << "," << op.value << ")"; break;
    case OpType::kAppend: os << "A(" << op.key << "," << op.value << ")"; break;
    case OpType::kReadList: os << "L(" << op.key << ",#" << op.list_index << ")"; break;
  }
  return os.str();
}

const char* IsolationLevelName(IsolationLevel level) {
  switch (level) {
    case IsolationLevel::kUnspecified: return "default";
    case IsolationLevel::kSer: return "ser";
    case IsolationLevel::kSi: return "si";
    case IsolationLevel::kRc: return "rc";
    case IsolationLevel::kRa: return "ra";
  }
  return "?";
}

bool IsolationLevelFromName(const std::string& name, IsolationLevel* out) {
  if (name == "ser") *out = IsolationLevel::kSer;
  else if (name == "si") *out = IsolationLevel::kSi;
  else if (name == "rc") *out = IsolationLevel::kRc;
  else if (name == "ra") *out = IsolationLevel::kRa;
  else return false;
  return true;
}

bool HistoryHasLevelTags(const History& h) {
  for (const Transaction& t : h.txns) {
    if (t.iso != IsolationLevel::kUnspecified) return true;
  }
  return false;
}

bool HistoryHasListOps(const History& h) {
  for (const Transaction& t : h.txns) {
    for (const Op& op : t.ops) {
      if (op.type == OpType::kAppend || op.type == OpType::kReadList) {
        return true;
      }
    }
  }
  return false;
}

bool NeedsMixedLevelCheck(const History& h) {
  return HistoryHasLevelTags(h) && !HistoryHasListOps(h);
}

const char* ViolationTypeName(ViolationType t) {
  switch (t) {
    case ViolationType::kSession: return "SESSION";
    case ViolationType::kInt: return "INT";
    case ViolationType::kExt: return "EXT";
    case ViolationType::kNoConflict: return "NOCONFLICT";
    case ViolationType::kTsOrder: return "TS-ORDER";
    case ViolationType::kTsDuplicate: return "TS-DUP";
  }
  return "?";
}

std::string Violation::ToString() const {
  std::ostringstream os;
  os << ViolationTypeName(type) << " txn=" << tid;
  if (other_tid != kTxnNone) os << " other=" << other_tid;
  os << " key=" << key;
  if (expected != kValueBottom) os << " expected=" << expected;
  if (got != kValueBottom) os << " got=" << got;
  if (divergence >= 0) os << " divergence=" << divergence;
  return os.str();
}

bool operator==(const Violation& a, const Violation& b) {
  return a.type == b.type && a.tid == b.tid && a.other_tid == b.other_tid &&
         a.key == b.key && a.expected == b.expected && a.got == b.got &&
         a.divergence == b.divergence;
}

bool ViolationLess(const Violation& a, const Violation& b) {
  auto key = [](const Violation& v) {
    return std::make_tuple(static_cast<uint8_t>(v.type), v.tid, v.other_tid,
                           v.key, v.expected, v.got, v.divergence);
  };
  return key(a) < key(b);
}

void CountingSink::Report(const Violation& v) {
  std::lock_guard<std::mutex> lock(mu_);
  ++total_;
  ++by_type_[static_cast<uint8_t>(v.type)];
  if (first_.size() < keep_first_) first_.push_back(v);
}

size_t CountingSink::total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

size_t CountingSink::count(ViolationType t) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_type_.find(static_cast<uint8_t>(t));
  return it == by_type_.end() ? 0 : it->second;
}

std::vector<Violation> CountingSink::first() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_;
}

void CountingSink::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  total_ = 0;
  by_type_.clear();
  first_.clear();
}

}  // namespace chronos

// Shared helpers for the test suite: fluent history construction, Aion
// offline replay, and session-order-preserving arrival permutations.
#ifndef CHRONOS_TESTS_TESTUTIL_H_
#define CHRONOS_TESTS_TESTUTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "core/aion.h"
#include "core/types.h"
#include "core/violation.h"

namespace chronos::testing {

/// Fresh scratch directory for spill/checkpoint tests, unique per test
/// AND per process: <gtest TempDir>/chronos_<suite>_<test>_<tag>_<pid>.
/// Parallel `ctest -j` runs the suite as many processes, so a fixed
/// path (the old pattern) lets two tests stomp each other's spill
/// files; the pid suffix removes that race and the test-name prefix
/// keeps two tests in one binary apart. Creation is checked — an
/// unwritable TMPDIR surfaces as a test failure instead of downstream
/// spill errors.
inline std::string UniqueTempDir(const std::string& tag) {
  std::string name = tag;
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  if (info != nullptr) {
    name = std::string(info->test_suite_name()) + "_" + info->name() + "_" +
           tag;
  }
  for (char& c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
  }
  std::string dir = ::testing::TempDir() + "chronos_" + name + "_" +
                    std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);  // stale run with the same pid
  std::filesystem::create_directories(dir, ec);
  EXPECT_FALSE(ec) << "cannot create temp dir " << dir << ": "
                   << ec.message();
  return dir;
}

/// Fluent builder for hand-written histories.
class HistoryBuilder {
 public:
  HistoryBuilder& Txn(TxnId tid, SessionId sid, uint64_t sno, Timestamp sts,
                      Timestamp cts) {
    Transaction t;
    t.tid = tid;
    t.sid = sid;
    t.sno = sno;
    t.start_ts = sts;
    t.commit_ts = cts;
    h_.txns.push_back(std::move(t));
    if (sid + 1 > h_.num_sessions) h_.num_sessions = sid + 1;
    return *this;
  }
  /// Tags the current transaction with a per-transaction isolation level.
  HistoryBuilder& Iso(IsolationLevel level) {
    h_.txns.back().iso = level;
    return *this;
  }
  HistoryBuilder& R(Key k, Value v) {
    h_.txns.back().ops.push_back({OpType::kRead, k, v, 0});
    return *this;
  }
  HistoryBuilder& W(Key k, Value v) {
    h_.txns.back().ops.push_back({OpType::kWrite, k, v, 0});
    return *this;
  }
  HistoryBuilder& A(Key k, Value e) {
    h_.txns.back().ops.push_back({OpType::kAppend, k, e, 0});
    return *this;
  }
  HistoryBuilder& L(Key k, std::vector<Value> observed) {
    Op op;
    op.type = OpType::kReadList;
    op.key = k;
    op.list_index = static_cast<uint32_t>(h_.txns.back().list_args.size());
    h_.txns.back().ops.push_back(op);
    h_.txns.back().list_args.push_back(std::move(observed));
    return *this;
  }
  History Build() { return h_; }

 private:
  History h_;
};

/// A random arrival order that preserves each session's internal order
/// (AION's delivery assumption).
inline std::vector<Transaction> SessionPreservingShuffle(const History& h,
                                                         uint64_t seed) {
  std::vector<std::vector<const Transaction*>> sessions;
  for (const Transaction& t : h.txns) {
    if (t.sid >= sessions.size()) sessions.resize(t.sid + 1);
    sessions[t.sid].push_back(&t);
  }
  for (auto& s : sessions) {
    std::sort(s.begin(), s.end(), [](const Transaction* a,
                                     const Transaction* b) {
      return a->sno < b->sno;
    });
  }
  std::mt19937_64 rng(seed);
  std::vector<Transaction> out;
  out.reserve(h.txns.size());
  std::vector<size_t> cursor(sessions.size(), 0);
  size_t remaining = h.txns.size();
  while (remaining > 0) {
    size_t s = rng() % sessions.size();
    if (cursor[s] >= sessions[s].size()) continue;
    out.push_back(*sessions[s][cursor[s]++]);
    --remaining;
  }
  return out;
}

/// Drives any OnlineChecker (monolithic or sharded) over `arrivals`:
/// virtual time advances 1 ms per transaction and, when `gc_every` is
/// set, GcToLiveTarget(gc_target) runs on that cadence. Finalizes the
/// checker at the end. Identical schedules here are what make
/// Aion-vs-ShardedAion comparisons exact.
inline void DriveToEnd(OnlineChecker* checker,
                       const std::vector<Transaction>& arrivals,
                       size_t gc_every = 0, size_t gc_target = 0) {
  uint64_t now = 0;
  size_t since_gc = 0;
  for (const Transaction& t : arrivals) {
    checker->OnTransaction(t, now++);
    if (gc_every > 0 && ++since_gc >= gc_every) {
      since_gc = 0;
      checker->GcToLiveTarget(gc_target);
    }
  }
  checker->Finish();
}

/// Feeds a whole history to a fresh Aion instance (arrival order given,
/// virtual time advancing 1 ms per transaction), finalizes it, and
/// returns the violation counts.
inline void RunAionToEnd(const std::vector<Transaction>& arrivals,
                         IsolationLevel mode, CountingSink* sink,
                         const std::string& spill_dir = "",
                         size_t gc_every = 0, size_t gc_target = 0,
                         uint64_t ext_timeout = 1u << 30) {
  Aion::Options opt;
  opt.mode = mode;
  opt.ext_timeout_ms = ext_timeout;  // default: finalize only at Finish()
  opt.spill_dir = spill_dir;
  Aion aion(opt, sink);
  DriveToEnd(&aion, arrivals, gc_every, gc_target);
}

/// Sorts a violation list into the deterministic content order (for
/// multiset comparisons between checkers that emit in different orders).
inline std::vector<Violation> SortedViolations(std::vector<Violation> v) {
  std::sort(v.begin(), v.end(), [](const Violation& a, const Violation& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    return ViolationLess(a, b);
  });
  return v;
}

}  // namespace chronos::testing

#endif  // CHRONOS_TESTS_TESTUTIL_H_

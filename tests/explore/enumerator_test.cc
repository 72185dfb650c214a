// The DPOR enumerator: exactly one representative per Mazurkiewicz
// trace class of session-preserving arrival orders. The ground truth is
// a brute-force closure: generate every session-preserving linear
// extension, then union-find classes under adjacent independent swaps.
#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "explore/enumerator.h"
#include "explore/schedule.h"

#include "../testutil.h"

namespace chronos::explore {
namespace {

using chronos::testing::HistoryBuilder;

std::vector<std::vector<size_t>> Explore(const std::vector<Arrival>& a,
                                         const Dependence& dep,
                                         uint64_t max_schedules = 0,
                                         EnumerationCounts* counts = nullptr) {
  std::vector<std::vector<size_t>> out;
  EnumerationCounts c = EnumerateSchedules(
      a, dep, max_schedules, [&](const std::vector<size_t>& perm) {
        out.push_back(perm);
        return true;
      });
  if (counts) *counts = c;
  return out;
}

// All session-preserving linear extensions, by brute-force DFS.
void AllExtensions(const std::vector<Arrival>& a, std::vector<bool>& used,
                   std::vector<size_t>& cur,
                   std::vector<std::vector<size_t>>* out) {
  if (cur.size() == a.size()) {
    out->push_back(cur);
    return;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (used[i]) continue;
    bool enabled = true;
    for (size_t j = 0; j < a.size(); ++j) {
      if (!used[j] && j != i && a[j].txn->sid == a[i].txn->sid &&
          a[j].txn->sno < a[i].txn->sno) {
        enabled = false;
      }
    }
    if (!enabled) continue;
    used[i] = true;
    cur.push_back(i);
    AllExtensions(a, used, cur, out);
    cur.pop_back();
    used[i] = false;
  }
}

// Trace classes: BFS closure of each extension under adjacent
// independent swaps; returns the number of classes.
size_t CountTraceClasses(const std::vector<std::vector<size_t>>& exts,
                         const Dependence& dep,
                         std::vector<std::set<std::vector<size_t>>>* classes) {
  std::set<std::vector<size_t>> seen;
  size_t n_classes = 0;
  for (const std::vector<size_t>& start : exts) {
    if (seen.count(start)) continue;
    ++n_classes;
    std::set<std::vector<size_t>> cls;
    std::vector<std::vector<size_t>> frontier = {start};
    cls.insert(start);
    while (!frontier.empty()) {
      std::vector<size_t> s = frontier.back();
      frontier.pop_back();
      for (size_t k = 0; k + 1 < s.size(); ++k) {
        if (dep.Depends(s[k], s[k + 1])) continue;
        std::vector<size_t> t = s;
        std::swap(t[k], t[k + 1]);
        if (cls.insert(t).second) frontier.push_back(t);
      }
    }
    for (const auto& s : cls) seen.insert(s);
    if (classes) classes->push_back(std::move(cls));
  }
  return n_classes;
}

// Cross-check the enumerator against the brute-force class count:
// exactly one explored schedule per class, and explored + pruned
// branches account for the search without double-visits.
void CheckAgainstBruteForce(const History& h, bool position_sensitive) {
  std::vector<Arrival> a = CanonicalArrivals(h, IsolationLevel::kSi);
  Dependence dep(a, position_sensitive);

  std::vector<std::vector<size_t>> exts;
  std::vector<bool> used(a.size(), false);
  std::vector<size_t> cur;
  AllExtensions(a, used, cur, &exts);

  std::vector<std::set<std::vector<size_t>>> classes;
  size_t n_classes = CountTraceClasses(exts, dep, &classes);

  EnumerationCounts counts;
  std::vector<std::vector<size_t>> explored = Explore(a, dep, 0, &counts);
  EXPECT_EQ(explored.size(), n_classes);
  EXPECT_EQ(counts.explored, n_classes);
  EXPECT_FALSE(counts.truncated);
  EXPECT_FALSE(counts.aborted);

  // Every explored schedule is a valid extension, in a distinct class.
  std::set<std::vector<size_t>> ext_set(exts.begin(), exts.end());
  std::set<size_t> hit;
  for (const std::vector<size_t>& s : explored) {
    EXPECT_TRUE(ext_set.count(s)) << "not session-preserving";
    for (size_t c = 0; c < classes.size(); ++c) {
      if (classes[c].count(s)) {
        EXPECT_TRUE(hit.insert(c).second) << "class visited twice";
      }
    }
  }
  EXPECT_EQ(hit.size(), n_classes) << "some class never visited";
}

TEST(EnumeratorTest, FullyDependentVisitsEveryPermutation) {
  // Three writers of one key: no two arrivals commute.
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).W(0, 1)
                  .Txn(2, 1, 0, 3, 4).W(0, 2)
                  .Txn(3, 2, 0, 5, 6).W(0, 3)
                  .Build();
  std::vector<Arrival> a = CanonicalArrivals(h, IsolationLevel::kSi);
  Dependence dep(a, false);
  EnumerationCounts counts;
  std::vector<std::vector<size_t>> explored = Explore(a, dep, 0, &counts);
  EXPECT_EQ(explored.size(), 6u);
  EXPECT_EQ(counts.pruned, 0u);
  // First visit is the canonical (identity) order.
  EXPECT_EQ(explored[0], (std::vector<size_t>{0, 1, 2}));
}

TEST(EnumeratorTest, DisjointGroupsCollapseToOrderingsWithinGroups) {
  // Two key-disjoint fully-dependent pairs: 4! = 24 extensions but only
  // 2 x 2 = 4 trace classes.
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).W(0, 1)
                  .Txn(2, 1, 0, 3, 4).W(0, 2)
                  .Txn(3, 2, 0, 5, 6).W(1, 1)
                  .Txn(4, 3, 0, 7, 8).W(1, 2)
                  .Build();
  std::vector<Arrival> a = CanonicalArrivals(h, IsolationLevel::kSi);
  Dependence dep(a, false);
  EnumerationCounts counts;
  EXPECT_EQ(Explore(a, dep, 0, &counts).size(), 4u);
  EXPECT_GT(counts.pruned, 0u);
}

TEST(EnumeratorTest, SessionOrderIsNeverViolated) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).W(0, 1)
                  .Txn(2, 0, 1, 3, 4).W(1, 1)  // same session, after tid 1
                  .Txn(3, 1, 0, 5, 6).W(2, 1)
                  .Build();
  std::vector<Arrival> a = CanonicalArrivals(h, IsolationLevel::kSi);
  Dependence dep(a, false);
  for (const std::vector<size_t>& s : Explore(a, dep)) {
    size_t p1 = 0, p2 = 0;
    for (size_t k = 0; k < s.size(); ++k) {
      if (a[s[k]].txn->tid == 1) p1 = k;
      if (a[s[k]].txn->tid == 2) p2 = k;
    }
    EXPECT_LT(p1, p2);
  }
}

TEST(EnumeratorTest, MatchesBruteForceClosure) {
  // Mixed dependence: shared keys inside groups, a cross-group session,
  // and one loner.
  CheckAgainstBruteForce(HistoryBuilder()
                             .Txn(1, 0, 0, 1, 2).W(0, 1)
                             .Txn(2, 1, 0, 3, 4).W(0, 2).W(1, 1)
                             .Txn(3, 0, 1, 5, 6).W(2, 1)
                             .Txn(4, 2, 0, 7, 8).W(1, 2)
                             .Txn(5, 3, 0, 9, 10).W(9, 1)
                             .Build(),
                         false);
  // Fully independent: one class.
  CheckAgainstBruteForce(HistoryBuilder()
                             .Txn(1, 0, 0, 1, 2).W(0, 1)
                             .Txn(2, 1, 0, 3, 4).W(1, 1)
                             .Txn(3, 2, 0, 5, 6).W(2, 1)
                             .Txn(4, 3, 0, 7, 8).W(3, 1)
                             .Build(),
                         false);
  // Position-sensitive: every extension is its own class.
  CheckAgainstBruteForce(HistoryBuilder()
                             .Txn(1, 0, 0, 1, 2).W(0, 1)
                             .Txn(2, 1, 0, 3, 4).W(1, 1)
                             .Txn(3, 1, 1, 5, 6).W(2, 1)
                             .Txn(4, 2, 0, 7, 8).W(3, 1)
                             .Build(),
                         true);
}

TEST(EnumeratorTest, MaxSchedulesTruncates) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).W(0, 1)
                  .Txn(2, 1, 0, 3, 4).W(0, 2)
                  .Txn(3, 2, 0, 5, 6).W(0, 3)
                  .Build();
  std::vector<Arrival> a = CanonicalArrivals(h, IsolationLevel::kSi);
  Dependence dep(a, false);
  EnumerationCounts counts;
  EXPECT_EQ(Explore(a, dep, 2, &counts).size(), 2u);
  EXPECT_TRUE(counts.truncated);
  EXPECT_FALSE(counts.aborted);
}

TEST(EnumeratorTest, VisitorAborts) {
  History h = HistoryBuilder()
                  .Txn(1, 0, 0, 1, 2).W(0, 1)
                  .Txn(2, 1, 0, 3, 4).W(0, 2)
                  .Build();
  std::vector<Arrival> a = CanonicalArrivals(h, IsolationLevel::kSi);
  Dependence dep(a, false);
  EnumerationCounts c = EnumerateSchedules(
      a, dep, 0, [](const std::vector<size_t>&) { return false; });
  EXPECT_EQ(c.explored, 1u);
  EXPECT_TRUE(c.aborted);
}

TEST(EnumeratorTest, EmptyHistoryExploresTheEmptySchedule) {
  std::vector<Arrival> a;
  Dependence dep(a, false);
  EnumerationCounts counts;
  std::vector<std::vector<size_t>> explored = Explore(a, dep, 0, &counts);
  ASSERT_EQ(explored.size(), 1u);
  EXPECT_TRUE(explored[0].empty());
  EXPECT_EQ(counts.explored, 1u);
}

}  // namespace
}  // namespace chronos::explore

// Heap-allocation budgets of Step 1, the per-transaction replay both
// checkers run: CHRONOS's start/commit replay (in memory and streamed
// from a file) and AION's ingress admission and classification; and of
// the online collector's stream that feeds it. This binary replaces the
// global operator new with a counting one, so each test counts every
// allocation the measured calls make, library containers included.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "../testutil.h"
#include "core/aion.h"
#include "core/chronos.h"
#include "core/txn_ingress.h"
#include "core/types.h"
#include "core/violation.h"
#include "hist/codec.h"
#include "hist/collector.h"
#include "hist/event_stream.h"
#include "workload/generator.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t n) { return operator new(n); }
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](size_t n, const std::nothrow_t& tag) noexcept {
  return operator new(n, tag);
}
// The matching deletes: every pointer they get came from the malloc
// above, which the compiler cannot see once operator new is inlined.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace chronos {
namespace {

// Fewer than this many allocations per transaction. Once the replay
// reuses its per-transaction state, what is left is the first touch of
// each key (its frontier and NOCONFLICT entries) and amortized container
// growth: about 1.5 per transaction at 2k transactions over 1000 keys,
// 0.2 at 20k. Rebuilding that state per transaction cost about 14.
constexpr double kPerTxnBudget = 2.0;

uint64_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

History Generate(uint64_t txns, IsolationLevel level) {
  workload::WorkloadParams p;
  p.sessions = 24;
  p.txns = txns;
  p.ops_per_txn = 15;
  p.keys = 1000;
  p.seed = 7;
  db::DbConfig config;
  config.isolation = level;
  return workload::GenerateDefaultHistory(p, config);
}

struct Case {
  uint64_t txns;
  IsolationLevel level;
};

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  return std::to_string(info.param.txns) +
         (info.param.level == IsolationLevel::kSer ? "_ser" : "_si");
}

class ChronosAllocBudget : public ::testing::TestWithParam<Case> {};

TEST_P(ChronosAllocBudget, InMemoryCheckStaysUnderBudget) {
  const Case c = GetParam();
  History h = Generate(c.txns, c.level);
  ChronosOptions options;
  options.mode = c.level;
  CountingSink sink;
  Chronos checker(options, &sink);
  const uint64_t before = Allocations();
  CheckStats stats = checker.Check(std::move(h));
  const double per_txn =
      static_cast<double>(Allocations() - before) / static_cast<double>(c.txns);
  EXPECT_EQ(stats.txns, c.txns);
  EXPECT_EQ(stats.violations, 0u);
  EXPECT_LT(per_txn, kPerTxnBudget);
}

TEST_P(ChronosAllocBudget, StreamedCheckStaysUnderBudget) {
  const Case c = GetParam();
  const std::string path =
      chronos::testing::UniqueTempDir("alloc") + "/h.hist";
  ASSERT_TRUE(hist::SaveHistory(Generate(c.txns, c.level), path).ok);
  ChronosOptions options;
  options.mode = c.level;
  CountingSink sink;
  Chronos checker(options, &sink);
  const uint64_t before = Allocations();
  hist::EventStream stream(path);
  CheckStats stats = checker.Check(&stream);
  const double per_txn =
      static_cast<double>(Allocations() - before) / static_cast<double>(c.txns);
  ASSERT_TRUE(stream.status().ok) << stream.status().message;
  EXPECT_EQ(stats.txns, c.txns);
  EXPECT_EQ(stats.violations, 0u);
  EXPECT_LT(per_txn, kPerTxnBudget);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChronosAllocBudget,
                         ::testing::Values(Case{2000, IsolationLevel::kSi},
                                           Case{2000, IsolationLevel::kSer},
                                           Case{20000, IsolationLevel::kSi},
                                           Case{20000, IsolationLevel::kSer}),
                         CaseName);

// A dispatch that does no key-scoped work, so what OnTransaction
// allocates is the ingress's own: admission and classification.
class NullDispatch : public TxnIngress::Dispatch {
 public:
  void DispatchTxn(const KeyEngine::TxnCtx&, ClassifiedOps&&, bool,
                   uint64_t) override {}
  void DispatchFinalize(TxnId) override {}
  void DispatchGc(Timestamp) override {}
};

// `txns` with their operations removed: the same arrivals for every
// admission step, with nothing to classify.
std::vector<Transaction> WithoutOps(const std::vector<Transaction>& txns) {
  std::vector<Transaction> out = txns;
  for (Transaction& t : out) t.ops.clear();
  return out;
}

// Allocations per arrival of `feed` over txns[warm..], after feeding
// txns[0..warm) to warm it up.
template <typename Feed>
double AllocationsPerArrival(const std::vector<Transaction>& txns,
                             size_t warm, Feed feed) {
  uint64_t now = 0;
  for (size_t i = 0; i < warm; ++i) feed(txns[i], now++);
  const uint64_t before = Allocations();
  for (size_t i = warm; i < txns.size(); ++i) feed(txns[i], now++);
  return static_cast<double>(Allocations() - before) /
         static_cast<double>(txns.size() - warm);
}

// Admission allocates per arrival (the live record, its view's
// tombstone) whatever the operations; classification, once its scratch
// is warm, adds nothing. Scratch rebuilt per arrival added about 11
// here.
TEST(IngressAllocBudget, ClassificationStopsAllocatingAfterWarmUp) {
  const History h = Generate(4000, IsolationLevel::kSi);
  auto per_arrival = [](const std::vector<Transaction>& txns) {
    CheckerOptions options;
    options.ext_timeout_ms = 1;
    CheckerStats stats;
    NullDispatch dispatch;
    TxnIngress ingress(options, &stats, [](Timestamp, const Violation&) {},
                       &dispatch);
    const double n = AllocationsPerArrival(
        txns, 1000,
        [&](const Transaction& t, uint64_t now) {
          ingress.OnTransaction(t, now);
        });
    EXPECT_EQ(stats.txns_processed, txns.size());
    return n;
  };
  const double with_ops = per_arrival(h.txns);
  const double without_ops = per_arrival(WithoutOps(h.txns));
  EXPECT_LT(with_ops - without_ops, 0.01)
      << with_ops << " vs " << without_ops << " without ops";
}

// Admission itself: op-less arrivals whose EXT timeouts fire as they
// go. What is left is the live record's node, freed at GC (none runs
// here), and amortized growth; a finalize tombstone kept as a hash-set
// node made it about 2 per arrival.
TEST(IngressAllocBudget, AdmissionAllocatesAboutOncePerArrival) {
  const History h = Generate(4000, IsolationLevel::kSi);
  CheckerOptions options;
  options.ext_timeout_ms = 1;
  CheckerStats stats;
  NullDispatch dispatch;
  TxnIngress ingress(options, &stats, [](Timestamp, const Violation&) {},
                     &dispatch);
  const double n = AllocationsPerArrival(
      WithoutOps(h.txns), 1000, [&](const Transaction& t, uint64_t now) {
        ingress.OnTransaction(t, now);
      });
  EXPECT_EQ(stats.txns_processed, h.txns.size());
  EXPECT_LT(n, 1.1);
}

// The same through Aion::OnTransaction, on arrivals that break Eq. (1):
// they are replayed for INT only, so no key engine work follows and the
// difference is the classification's alone (about 9 per arrival with
// scratch rebuilt per call).
TEST(IngressAllocBudget, AionIntOnlyReplayStopsAllocatingAfterWarmUp) {
  History h = Generate(4000, IsolationLevel::kSi);
  for (Transaction& t : h.txns) t.start_ts = t.commit_ts + 1;
  auto per_arrival = [](const std::vector<Transaction>& txns) {
    CountingSink sink;
    Aion aion(CheckerOptions{}, &sink);
    const double n = AllocationsPerArrival(
        txns, 1000,
        [&](const Transaction& t, uint64_t now) { aion.OnTransaction(t, now); });
    EXPECT_EQ(sink.count(ViolationType::kTsOrder), txns.size());
    return n;
  };
  const double with_ops = per_arrival(h.txns);
  const double without_ops = per_arrival(WithoutOps(h.txns));
  EXPECT_LT(with_ops - without_ops, 0.01)
      << with_ops << " vs " << without_ops << " without ops";
}

// The online collector over a file, with delays, drained into one
// reused arrival: once its buffers and slots are warm, each transaction
// is read into an op vector the stream got back from the caller. Moving
// the transaction out instead left the slot empty, about one allocation
// per arrival.
TEST(DeliveryStreamAllocBudget, FileStreamStopsAllocatingAfterWarmUp) {
  const std::string path =
      chronos::testing::UniqueTempDir("alloc") + "/stream.hist";
  ASSERT_TRUE(
      hist::SaveHistory(Generate(6000, IsolationLevel::kSi), path).ok);
  hist::CollectorParams params;
  params.delay_mean_ms = 20;
  params.delay_stddev_ms = 10;
  hist::DeliveryStream stream(path, params);
  ASSERT_TRUE(stream.status().ok) << stream.status().message;
  hist::CollectedTxn arrival;
  constexpr size_t kWarm = 1000;
  for (size_t i = 0; i < kWarm; ++i) ASSERT_TRUE(stream.Next(&arrival));
  const uint64_t before = Allocations();
  size_t arrivals = 0;
  while (stream.Next(&arrival)) ++arrivals;
  const double per_arrival = static_cast<double>(Allocations() - before) /
                             static_cast<double>(arrivals);
  ASSERT_TRUE(stream.status().ok) << stream.status().message;
  EXPECT_EQ(arrivals, 6000 - kWarm);
  EXPECT_LT(per_arrival, 0.05);
}

}  // namespace
}  // namespace chronos

// The SPSC ring that carries the sharded pipeline's hand-offs: cursor
// wrap-around, full/empty boundary behavior, batched publish visibility,
// and close/drain semantics — single-threaded where the contract is
// about cursors, two-threaded where it is about synchronization (these
// run under TSan via tools/ci.sh).
#include <atomic>
#include <cstdint>
#include <numeric>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "online/spsc_ring.h"

namespace chronos::online {
namespace {

// Thread-safety-analysis discipline (core/thread_annotations.h): each
// test assumes the ring roles for the threads it plays. A test that
// drives both sides from one thread assumes both roles; a test that
// spawns a side assumes that role inside the thread's lambda. Where the
// main thread also touches a side before spawning its owner, the
// thread-creation happens-before edge hands the role over.

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(1000).capacity(), 1024u);
  EXPECT_EQ(SpscRing<int>(1024).capacity(), 1024u);
}

TEST(SpscRingTest, PushPopRoundTrip) {
  SpscRing<int> ring(8);
  AssumeRole prod(ring.producer_role), cons(ring.consumer_role);
  ring.Push(1);
  ring.Push(2);
  std::optional<int> a = ring.Pop();
  std::optional<int> b = ring.Pop();
  ASSERT_TRUE(a && b);
  EXPECT_EQ(*a, 1);
  EXPECT_EQ(*b, 2);
  EXPECT_EQ(ring.SizeApprox(), 0u);
}

// The cursors are free-running; fill and drain the ring many times its
// capacity so the slot indices wrap repeatedly.
TEST(SpscRingTest, WrapAroundPreservesFifoOrder) {
  SpscRing<uint64_t> ring(4);  // capacity 4
  AssumeRole prod(ring.producer_role), cons(ring.consumer_role);
  std::vector<uint64_t> got;
  for (uint64_t i = 0; i < 1000; ++i) {
    ring.Push(uint64_t(i));
    // Vary occupancy across wraps — but never skip a pop at full
    // occupancy, since a single-threaded Push into a full ring blocks.
    if (i % 3 == 0 && ring.SizeApprox() < ring.capacity()) continue;
    std::optional<uint64_t> v = ring.Pop();
    ASSERT_TRUE(v.has_value());
    got.push_back(*v);
  }
  std::vector<uint64_t> tail;
  while (ring.SizeApprox() > 0) {
    std::optional<uint64_t> v = ring.Pop();
    ASSERT_TRUE(v.has_value());
    got.push_back(*v);
  }
  ASSERT_EQ(got.size(), 1000u);
  for (uint64_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], i);
}

// Staged items are invisible until Publish; one publication makes the
// whole batch visible at once.
TEST(SpscRingTest, StagedItemsInvisibleUntilPublish) {
  SpscRing<int> ring(16);
  AssumeRole prod(ring.producer_role), cons(ring.consumer_role);
  ring.Stage(1);
  ring.Stage(2);
  ring.Stage(3);
  EXPECT_EQ(ring.SizeApprox(), 0u);  // nothing published yet
  ring.Publish();
  EXPECT_EQ(ring.SizeApprox(), 3u);
  std::vector<int> out;
  ASSERT_TRUE(ring.PopBatch(&out, 16));
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
}

// A full ring blocks the producer until the consumer frees a slot; the
// producer's staged-but-unpublished items are published before it
// parks, so the consumer can always drain.
TEST(SpscRingTest, FullRingBlocksProducerUntilConsumerDrains) {
  SpscRing<int> ring(2);  // capacity 2
  AssumeRole cons(ring.consumer_role);
  {
    // Producer side until the spawn below takes it over.
    AssumeRole prod(ring.producer_role);
    ring.Push(0);
    ring.Push(1);
  }
  EXPECT_EQ(ring.SizeApprox(), ring.capacity());

  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    AssumeRole prod(ring.producer_role);
    ring.Push(2);  // blocks: ring is full
    third_pushed.store(true);
  });
  // The producer can't complete until we pop.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(third_pushed.load());
  EXPECT_EQ(ring.Pop().value(), 0);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_EQ(ring.Pop().value(), 1);
  EXPECT_EQ(ring.Pop().value(), 2);
}

// PopBatch on an open empty ring blocks until the producer publishes.
TEST(SpscRingTest, EmptyRingBlocksConsumerUntilPublish) {
  SpscRing<int> ring(8);
  AssumeRole prod(ring.producer_role);
  std::vector<int> out;
  std::thread consumer([&] {
    AssumeRole cons(ring.consumer_role);
    ASSERT_TRUE(ring.PopBatch(&out, 8));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ring.Stage(7);
  ring.Publish();
  consumer.join();
  EXPECT_EQ(out, (std::vector<int>{7}));
}

// Close publishes staged items first: the consumer drains everything,
// then — and only then — sees end-of-stream.
TEST(SpscRingTest, CloseDrainsStagedItemsBeforeEndOfStream) {
  SpscRing<int> ring(8);
  AssumeRole prod(ring.producer_role), cons(ring.consumer_role);
  ring.Push(1);
  ring.Stage(2);
  ring.Stage(3);
  ring.Close();  // publishes 2 and 3
  std::vector<int> out;
  ASSERT_TRUE(ring.PopBatch(&out, 8));
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
  EXPECT_FALSE(ring.PopBatch(&out, 8));  // closed and empty
  EXPECT_FALSE(ring.Pop().has_value());
}

TEST(SpscRingTest, CloseWakesBlockedConsumer) {
  SpscRing<int> ring(8);
  AssumeRole prod(ring.producer_role);
  std::atomic<bool> returned_false{false};
  std::thread consumer([&] {
    AssumeRole cons(ring.consumer_role);
    std::vector<int> out;
    returned_false.store(!ring.PopBatch(&out, 8));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ring.Close();
  consumer.join();
  EXPECT_TRUE(returned_false.load());
}

// Two-threaded stress: every item arrives exactly once, in order, across
// many wrap-arounds, mixed batched/unbatched publication, and both
// full-ring and empty-ring waits (small capacity forces both). Run under
// TSan in CI to certify the acquire/release protocol.
TEST(SpscRingTest, ThreadedFifoStress) {
  constexpr uint64_t kItems = 200000;
  SpscRing<uint64_t> ring(64);
  std::thread producer([&] {
    AssumeRole prod(ring.producer_role);
    for (uint64_t i = 0; i < kItems; ++i) {
      ring.Stage(uint64_t(i));
      if (i % 17 == 0) ring.Publish();
    }
    ring.Close();
  });
  AssumeRole cons(ring.consumer_role);
  uint64_t expect = 0;
  std::vector<uint64_t> chunk;
  while (ring.PopBatch(&chunk, 32)) {
    for (uint64_t v : chunk) {
      ASSERT_EQ(v, expect);
      ++expect;
    }
  }
  producer.join();
  EXPECT_EQ(expect, kItems);
  // Depth never exceeds capacity, and the counters moved.
  RingHealth h = ring.health();
  EXPECT_LE(h.depth_hwm, ring.capacity());
  EXPECT_GT(h.depth_hwm, 0u);
}

// TryStage stages like Stage while there is room, and refuses — without
// blocking, publishing or counting a stall — when the ring is full.
TEST(SpscRingTest, TryStageRefusesWhenFull) {
  SpscRing<int> ring(2);
  AssumeRole prod(ring.producer_role), cons(ring.consumer_role);
  EXPECT_TRUE(ring.TryStage(1));
  EXPECT_TRUE(ring.TryStage(2));
  EXPECT_FALSE(ring.TryStage(3));
  EXPECT_EQ(ring.SizeApprox(), 0u);  // staged, not published
  ring.Publish();
  EXPECT_EQ(ring.Pop().value(), 1);
  EXPECT_TRUE(ring.TryStage(3));  // the pop made room
  ring.Publish();
  EXPECT_EQ(ring.Pop().value(), 2);
  EXPECT_EQ(ring.Pop().value(), 3);
  EXPECT_EQ(ring.health().producer_stalls, 0u);
}

// PopInto gathers exactly n items into a caller buffer, n far above the
// capacity: the consumer frees each published stretch as it copies it,
// so the producer's blocking Stage calls go through. Runs under TSan.
TEST(SpscRingTest, PopIntoGathersMoreThanCapacity) {
  constexpr uint64_t kItems = 5000;
  SpscRing<uint64_t> ring(4);
  std::thread producer([&] {
    AssumeRole prod(ring.producer_role);
    for (uint64_t i = 0; i < kItems; ++i) ring.Stage(uint64_t(i));
    ring.Publish();
  });
  AssumeRole cons(ring.consumer_role);
  std::vector<uint64_t> buf(kItems + 1, ~uint64_t{0});
  ASSERT_TRUE(ring.PopInto(buf.data(), kItems));
  producer.join();
  for (uint64_t i = 0; i < kItems; ++i) ASSERT_EQ(buf[i], i);
  EXPECT_EQ(buf[kItems], ~uint64_t{0});  // wrote exactly n
  EXPECT_TRUE(ring.PopInto(buf.data(), 0));
  EXPECT_EQ(ring.SizeApprox(), 0u);
}

// A ring closed before n items arrive ends the gather with false, after
// handing over what was published.
TEST(SpscRingTest, PopIntoReturnsFalseWhenClosedShort) {
  SpscRing<int> ring(4);
  AssumeRole prod(ring.producer_role), cons(ring.consumer_role);
  ring.Push(7);
  ring.Close();
  int buf[2] = {0, 0};
  EXPECT_FALSE(ring.PopInto(buf, 2));
  EXPECT_EQ(buf[0], 7);
}

// Move-only payloads: the ring must never copy.
TEST(SpscRingTest, MoveOnlyPayload) {
  SpscRing<std::unique_ptr<int>> ring(4);
  AssumeRole prod(ring.producer_role), cons(ring.consumer_role);
  ring.Push(std::make_unique<int>(42));
  std::optional<std::unique_ptr<int>> v = ring.Pop();
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(*v != nullptr);
  EXPECT_EQ(**v, 42);
}

// Single-threaded boundary pins: walking the ring exactly to its
// full and empty edges — without ever *waiting* at them — must not
// count a stall. Stalls are park events, not boundary touches.
TEST(SpscRingTest, ExactBoundariesWithoutWaitingCountNoStalls) {
  SpscRing<int> ring(2);
  AssumeRole prod(ring.producer_role), cons(ring.consumer_role);
  ring.Push(1);
  ring.Push(2);  // exactly full: succeeded without a wait
  EXPECT_EQ(ring.SizeApprox(), ring.capacity());
  EXPECT_EQ(ring.Pop().value(), 1);
  EXPECT_EQ(ring.Pop().value(), 2);  // exactly empty again
  EXPECT_EQ(ring.SizeApprox(), 0u);
  RingHealth h = ring.health();
  EXPECT_EQ(h.producer_stalls, 0u);
  EXPECT_EQ(h.consumer_stalls, 0u);
  EXPECT_EQ(h.depth_hwm, 2u);
}

// Draining a closed ring hits the empty boundary but returns
// end-of-stream from the spin fast-path: not a stall either.
TEST(SpscRingTest, ClosedAndEmptyDrainCountsNoConsumerStall) {
  SpscRing<int> ring(4);
  AssumeRole prod(ring.producer_role), cons(ring.consumer_role);
  ring.Push(1);
  ring.Close();
  EXPECT_EQ(ring.Pop().value(), 1);
  EXPECT_FALSE(ring.Pop().has_value());  // closed + empty
  std::vector<int> out;
  EXPECT_FALSE(ring.PopBatch(&out, 4));
  EXPECT_EQ(ring.health().consumer_stalls, 0u);
}

// Deterministic exactly-once increment at the full boundary: the
// blocked producer's counter is observed to reach 1 *before* the
// consumer frees a slot, and the retry after the wake finds room — so
// the final count is exactly 1, not ">= 1 under contention".
TEST(SpscRingTest, ProducerStallIncrementsExactlyOnceAtFullBoundary) {
  SpscRing<int> ring(2);
  AssumeRole cons(ring.consumer_role);
  {
    // Producer side until the spawn below takes it over.
    AssumeRole prod(ring.producer_role);
    ring.Push(1);
    ring.Push(2);  // full
  }
  std::thread producer([&] {
    AssumeRole prod(ring.producer_role);
    ring.Push(3);  // must park
  });
  while (ring.health().producer_stalls == 0) std::this_thread::yield();
  EXPECT_EQ(ring.health().producer_stalls, 1u);
  EXPECT_EQ(ring.Pop().value(), 1);  // frees the slot; push 3 completes
  producer.join();
  EXPECT_EQ(ring.health().producer_stalls, 1u);
  EXPECT_EQ(ring.Pop().value(), 2);
  EXPECT_EQ(ring.Pop().value(), 3);
  EXPECT_EQ(ring.health().consumer_stalls, 0u);  // never popped empty
}

// Mirror image at the empty boundary: exactly one consumer stall.
TEST(SpscRingTest, ConsumerStallIncrementsExactlyOnceAtEmptyBoundary) {
  SpscRing<int> ring(2);
  AssumeRole prod(ring.producer_role);
  std::vector<int> out;
  std::thread consumer([&] {
    AssumeRole cons(ring.consumer_role);
    ASSERT_TRUE(ring.PopBatch(&out, 2));
  });
  while (ring.health().consumer_stalls == 0) std::this_thread::yield();
  EXPECT_EQ(ring.health().consumer_stalls, 1u);
  ring.Push(7);  // wakes the consumer; the retry finds the item
  consumer.join();
  EXPECT_EQ(ring.health().consumer_stalls, 1u);
  EXPECT_EQ(out, (std::vector<int>{7}));
  EXPECT_EQ(ring.health().producer_stalls, 0u);  // never pushed full
}

TEST(SpscRingTest, HealthCountsStalls) {
  SpscRing<int> ring(2);
  {
    AssumeRole prod(ring.producer_role);
    ring.Push(1);
    ring.Push(2);
  }
  std::thread producer([&] {
    AssumeRole prod(ring.producer_role);
    ring.Push(3);  // parks: full
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    AssumeRole cons(ring.consumer_role);
    (void)ring.Pop();
  }
  producer.join();
  EXPECT_GE(ring.health().producer_stalls, 1u);

  std::thread consumer([&] {
    AssumeRole cons(ring.consumer_role);
    (void)ring.Pop();
    (void)ring.Pop();
    (void)ring.Pop();  // parks: empty
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  AssumeRole prod(ring.producer_role);  // handed back by producer.join()
  ring.Push(4);
  consumer.join();
  EXPECT_GE(ring.health().consumer_stalls, 1u);
}

}  // namespace
}  // namespace chronos::online

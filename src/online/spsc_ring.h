// Single-producer single-consumer ring buffer: the lock-free hand-off
// from the sharded checker's caller thread to each shard worker
// (online/sharded_aion.h), with no mutex on the per-transaction hot
// path.
//
// Memory-ordering contract:
//   - The producer writes a slot, then publishes it with a release store
//     of `tail_`; the consumer acquires `tail_` before reading the slot.
//     Symmetrically the consumer releases `head_` after moving items out
//     and the producer acquires it before reusing a slot. These two
//     edges are the only synchronization on the fast path — no locks,
//     no RMW operations.
//   - Publication is batched: `Stage()` appends to slots without
//     touching `tail_`; `Publish()` makes everything staged visible with
//     one release store. A producer that must block (ring full) first
//     publishes its staged items so the consumer can drain — staged work
//     is never held across a park. `TryStage()` refuses instead of
//     blocking, for a producer that must publish other rings first.
//   - `Close()` (producer side) publishes staged items before the
//     release store of `closed_`, so a consumer that observes the close
//     flag also observes the final tail: `PopBatch` drains every
//     published item and returns false only once closed AND empty.
//
// Blocking is spin-then-park: a bounded spin on the fast path, then a
// mutex/condvar wait. The waker probes the waiter flag (seq_cst) after
// its cursor store and notifies under the mutex; the parked side
// additionally re-checks its predicate on a short wait_for tick, so a
// theoretically lost wakeup costs one tick, never a hang. Park events
// are counted per side (RingHealth) — producer stalls are backpressure,
// consumer stalls are starvation.
//
// Cursors are free-running uint64 (never wrapped); the slot index is
// cursor & mask. Capacity is rounded up to a power of two. Producer-
// local, consumer-local, and shared cursor state live on separate cache
// lines so the two threads never false-share (chronos_lint's
// ring-alignas rule keeps it that way when fields are added).
//
// Ownership is annotated for Clang's thread-safety analysis
// (core/thread_annotations.h): the public `producer_role` and
// `consumer_role` capabilities split the API and the member state into
// the two sides of the single-producer/single-consumer contract. A
// thread acquires its side's role at its entry loop (AssumeRole); a new
// call site of Stage/TryStage/Push/Publish/Close that does not hold the
// producer role — a second producer — fails the -Wthread-safety build, and
// chronos_lint's ring-single-producer rule restricts who may legally
// assume it (ROADMAP "Static analysis").
#ifndef CHRONOS_ONLINE_SPSC_RING_H_
#define CHRONOS_ONLINE_SPSC_RING_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/thread_annotations.h"
#include "online/metrics.h"

namespace chronos::online {

template <typename T>
class SpscRing {
 public:
  /// Rounded up to the next power of two (minimum 2).
  explicit SpscRing(size_t min_capacity) {
    size_t cap = 2;
    while (cap < min_capacity) cap <<= 1;
    capacity_ = cap;
    mask_ = cap - 1;
    slots_.resize(cap);
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// The two sides of the SPSC contract: exactly one thread may hold
  /// each at any time (statically assumed via AssumeRole; see header).
  ThreadRole producer_role;
  ThreadRole consumer_role;

  // --- producer side (exactly one thread) -----------------------------

  /// Appends a copy of `item` without publishing it, unless the ring is
  /// full: then it returns false, so a producer feeding several rings
  /// can publish what a consumer needs before it blocks in Stage().
  /// Must not be called after Close().
  bool TryStage(const T& item) CHRONOS_REQUIRES(producer_role) {
    uint64_t t = staged_tail_;
    if (t - cached_head_ >= capacity_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (t - cached_head_ >= capacity_) return false;
    }
    slots_[t & mask_] = item;
    staged_tail_ = t + 1;
    return true;
  }

  /// Appends an item without publishing it. Blocks when the ring is full
  /// (publishing everything staged so far first, so the consumer can
  /// drain while we wait). Must not be called after Close().
  void Stage(T&& item) CHRONOS_REQUIRES(producer_role) {
    uint64_t t = staged_tail_;
    if (t - cached_head_ >= capacity_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (t - cached_head_ >= capacity_) {
        PublishAt(t);
        WaitForRoom(t);
      }
    }
    slots_[t & mask_] = std::move(item);
    staged_tail_ = t + 1;
  }

  /// Makes every staged item visible to the consumer (one release
  /// store). No-op when nothing is staged.
  void Publish() CHRONOS_REQUIRES(producer_role) {
    if (staged_tail_ != published_tail_) PublishAt(staged_tail_);
  }

  /// Stage + Publish: the unbatched convenience path.
  void Push(T&& item) CHRONOS_REQUIRES(producer_role) {
    Stage(std::move(item));
    Publish();
  }

  /// Publishes staged items, then marks the ring closed and wakes the
  /// consumer. Producer side; no Stage/Push may follow.
  void Close() CHRONOS_REQUIRES(producer_role) {
    Publish();
    closed_.store(true, std::memory_order_release);
    {
      MutexLock lock(mu_);
    }
    cv_.NotifyAll();
  }

  // --- consumer side (exactly one thread) -----------------------------

  /// Moves up to `max` published items into `*out` (cleared first).
  /// Blocks while the ring is open and empty; returns false only when
  /// the ring is closed and fully drained.
  bool PopBatch(std::vector<T>* out, size_t max)
      CHRONOS_REQUIRES(consumer_role) {
    out->clear();
    if (max == 0) max = 1;
    uint64_t h = head_cursor_;
    if (cached_tail_ == h) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (cached_tail_ == h) {
        if (!WaitNonEmpty(h)) return false;
        cached_tail_ = tail_.load(std::memory_order_acquire);
      }
    }
    size_t n = static_cast<size_t>(cached_tail_ - h);
    if (n > max) n = max;
    for (size_t i = 0; i < n; ++i) {
      out->push_back(std::move(slots_[(h + i) & mask_]));
    }
    Advance(h + n);
    return true;
  }

  /// Moves exactly `n` items, in FIFO order, into `out[0..n)`, blocking
  /// while fewer are published and releasing each published stretch as
  /// soon as it is copied, so `n` may exceed the capacity. Returns false
  /// when the ring is closed and drained before `n` items arrived.
  bool PopInto(T* out, size_t n) CHRONOS_REQUIRES(consumer_role) {
    uint64_t h = head_cursor_;
    while (n > 0) {
      if (cached_tail_ == h) {
        cached_tail_ = tail_.load(std::memory_order_acquire);
        if (cached_tail_ == h) {
          if (!WaitNonEmpty(h)) return false;
          cached_tail_ = tail_.load(std::memory_order_acquire);
        }
      }
      size_t k = static_cast<size_t>(cached_tail_ - h);
      if (k > n) k = n;
      for (size_t i = 0; i < k; ++i) {
        out[i] = std::move(slots_[(h + i) & mask_]);
      }
      out += k;
      h += k;
      n -= k;
      Advance(h);
    }
    return true;
  }

  /// Single-item pop with the same blocking/drain semantics.
  std::optional<T> Pop() CHRONOS_REQUIRES(consumer_role) {
    uint64_t h = head_cursor_;
    if (cached_tail_ == h) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (cached_tail_ == h) {
        if (!WaitNonEmpty(h)) return std::nullopt;
        cached_tail_ = tail_.load(std::memory_order_acquire);
      }
    }
    std::optional<T> item(std::move(slots_[h & mask_]));
    Advance(h + 1);
    return item;
  }

  // --- any thread -----------------------------------------------------

  size_t capacity() const { return capacity_; }

  /// Approximate occupancy (racy by design; exact when both sides are
  /// quiescent).
  size_t SizeApprox() const {
    uint64_t t = tail_.load(std::memory_order_relaxed);
    uint64_t h = head_.load(std::memory_order_relaxed);
    return static_cast<size_t>(t - h);
  }

  bool closed() const { return closed_.load(std::memory_order_acquire); }

  RingHealth health() const {
    RingHealth r;
    r.published = tail_.load(std::memory_order_relaxed);
    r.depth_hwm = depth_hwm_.load(std::memory_order_relaxed);
    r.producer_stalls = producer_stalls_.load(std::memory_order_relaxed);
    r.consumer_stalls = consumer_stalls_.load(std::memory_order_relaxed);
    return r;
  }

 private:
  static constexpr int kSpinIterations = 256;
  static constexpr std::chrono::microseconds kParkTick{200};

  void PublishAt(uint64_t t) CHRONOS_REQUIRES(producer_role) {
    published_tail_ = t;
    tail_.store(t, std::memory_order_release);
    uint64_t depth = t - head_.load(std::memory_order_relaxed);
    if (depth > depth_hwm_.load(std::memory_order_relaxed)) {
      depth_hwm_.store(depth, std::memory_order_relaxed);
    }
    if (consumer_waiting_.load(std::memory_order_seq_cst)) {
      {
        MutexLock lock(mu_);
      }
      cv_.NotifyAll();
    }
  }

  void Advance(uint64_t h) CHRONOS_REQUIRES(consumer_role) {
    head_cursor_ = h;
    head_.store(h, std::memory_order_release);
    if (producer_waiting_.load(std::memory_order_seq_cst)) {
      {
        MutexLock lock(mu_);
      }
      cv_.NotifyAll();
    }
  }

  void WaitForRoom(uint64_t t) CHRONOS_REQUIRES(producer_role) {
    for (int i = 0; i < kSpinIterations; ++i) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (t - cached_head_ < capacity_) return;
    }
    producer_stalls_.fetch_add(1, std::memory_order_relaxed);
    MutexLock lock(mu_);
    producer_waiting_.store(true, std::memory_order_seq_cst);
    for (;;) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (t - cached_head_ < capacity_) break;
      cv_.WaitFor(lock, kParkTick);
    }
    producer_waiting_.store(false, std::memory_order_relaxed);
  }

  // Returns true when an item is published past `h`; false when the ring
  // is closed and empty.
  bool WaitNonEmpty(uint64_t h) CHRONOS_REQUIRES(consumer_role) {
    for (int i = 0; i < kSpinIterations; ++i) {
      if (tail_.load(std::memory_order_acquire) != h) return true;
      if (closed_.load(std::memory_order_acquire)) {
        // Close published before setting the flag, so this re-read sees
        // the final tail.
        return tail_.load(std::memory_order_acquire) != h;
      }
    }
    consumer_stalls_.fetch_add(1, std::memory_order_relaxed);
    MutexLock lock(mu_);
    consumer_waiting_.store(true, std::memory_order_seq_cst);
    bool have = false;
    for (;;) {
      if (tail_.load(std::memory_order_acquire) != h) {
        have = true;
        break;
      }
      if (closed_.load(std::memory_order_acquire)) {
        have = tail_.load(std::memory_order_acquire) != h;
        break;
      }
      cv_.WaitFor(lock, kParkTick);
    }
    consumer_waiting_.store(false, std::memory_order_relaxed);
    return have;
  }

  // Shared cursors, one cache line each.
  alignas(64) std::atomic<uint64_t> tail_{0};  // next unpublished slot
  alignas(64) std::atomic<uint64_t> head_{0};  // next unconsumed slot
  alignas(64) std::atomic<bool> closed_{false};

  // Producer-local state.
  alignas(64) uint64_t staged_tail_ CHRONOS_GUARDED_BY(producer_role) = 0;
  uint64_t published_tail_ CHRONOS_GUARDED_BY(producer_role) = 0;
  uint64_t cached_head_ CHRONOS_GUARDED_BY(producer_role) = 0;

  // Consumer-local state.
  alignas(64) uint64_t head_cursor_ CHRONOS_GUARDED_BY(consumer_role) = 0;
  uint64_t cached_tail_ CHRONOS_GUARDED_BY(consumer_role) = 0;

  // Slot contents hand over between the sides through the cursor
  // release/acquire edges; neither role alone guards them.
  alignas(64) std::vector<T> slots_;
  size_t capacity_ = 0;
  size_t mask_ = 0;

  // Park/wake plumbing (slow path only). The waiting flags are the
  // seq_cst waiter-flag protocol from the header comment; they get their
  // own cache lines since the two sides write them independently.
  Mutex mu_;
  CondVar cv_;
  alignas(64) std::atomic<bool> producer_waiting_{false};
  alignas(64) std::atomic<bool> consumer_waiting_{false};

  // Health counters (RingHealth), split by writing side.
  alignas(64) std::atomic<uint64_t> depth_hwm_{0};
  alignas(8) std::atomic<uint64_t> producer_stalls_{0};  // producer-written,
  // shares depth_hwm_'s line deliberately (same writing side).
  alignas(64) std::atomic<uint64_t> consumer_stalls_{0};
};

}  // namespace chronos::online

#endif  // CHRONOS_ONLINE_SPSC_RING_H_

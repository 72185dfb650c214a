// Binary state transfer for checkpoints (online/checkpoint.h) and spill
// epochs (core/spill.h), plus the FNV-1a checksum every checkpoint
// section and WAL record carries. Lives in core/ so the per-structure
// layouts need no dependency on the online layer.
//
// Each component states its binary layout once, in one function
//   template <typename IO> void Transfer(IO& io);
// that lists its fields in order through the calls below. Driven by a
// StateWriter the calls append the fields; driven by a StateReader they
// assign them, so the writer and the reader cannot disagree. On the wire
// every field is a little-endian u64 (u8 fields and flags included);
// sequences and hash maps carry a u64 count, a raw Value vector its byte
// length, and hash maps are emitted in sorted key order so an image is
// byte-deterministic whatever the iteration order.
//
// Derived state (running totals, GC trigger heaps, reader indexes,
// caches) is never transferred: a component rebuilds it after a read,
// under `if constexpr (IO::kReading)`.
//
// Reading is bounded. Every count goes through Count(min_bytes_per_item),
// which latches !ok() when that many items cannot fit in the bytes left,
// before anything is allocated; Require() latches !ok() for a field that
// fails a component's own check (an enum out of range, an offset outside
// its buffer). Once !ok(), every read yields zero, so loops end and
// callers check ok() once at the end instead of after each field.
#ifndef CHRONOS_CORE_STATE_IO_H_
#define CHRONOS_CORE_STATE_IO_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "core/types.h"

namespace chronos {

inline constexpr uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
inline constexpr uint64_t kFnvPrime = 0x100000001B3ULL;

/// FNV-1a over `n` bytes, chainable through `seed`.
inline uint64_t Fnv1a(const void* data, size_t n, uint64_t seed = kFnvOffset) {
  uint64_t h = seed;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

/// Appends the fields a Transfer lists to a growable buffer. Fields are
/// staged in a fixed block and the buffer grows by whole blocks, so a
/// field costs a bounds check and an 8-byte store, not a string append.
class StateWriter {
 public:
  static constexpr bool kReading = false;
  /// Bytes staged before they are appended to the buffer.
  static constexpr size_t kStageBytes = 4096;

  /// `reserve` sizes the buffer up front; an exporter passes the size of
  /// its previous export so the buffer is not grown by doubling.
  explicit StateWriter(size_t reserve = 0) { buf_.reserve(reserve); }

  template <typename T>
  void U64(const T& v) {
    Put(static_cast<uint64_t>(v));
  }
  void I64(int64_t v) { Put(static_cast<uint64_t>(v)); }
  /// A flag or a byte-sized enum; the reader's `lo`/`hi` bound it.
  template <typename T>
  void U8(const T& v) {
    Put(static_cast<uint8_t>(v));
  }
  template <typename T>
  void U8(const T& v, T /*lo*/, T /*hi*/) {
    U8(v);
  }
  /// Length-prefixed raw bytes.
  void Bytes(const std::string& s) {
    Put(s.size());
    Raw(s.data(), s.size());
  }
  /// A Value vector as its raw bytes, prefixed with their length.
  void Values(const std::vector<Value>& v) {
    Put(v.size() * sizeof(Value));
    Raw(v.data(), v.size() * sizeof(Value));
  }
  /// A sequence container: its size, then `fn(item)` per item. The
  /// reader needs `min_item_bytes`, the least bytes one item occupies.
  template <typename C, typename Fn>
  void Seq(const C& c, size_t /*min_item_bytes*/, Fn&& fn) {
    Put(c.size());
    for (const auto& x : c) fn(x);
  }
  /// A map with integer keys: its size, then per key in ascending order
  /// the key and `fn(mapped)`. `min_item_bytes` counts the key.
  template <typename M, typename Fn>
  void Map(const M& m, size_t /*min_item_bytes*/, Fn&& fn) {
    std::vector<typename M::key_type> keys;
    keys.reserve(m.size());
    for (const auto& kv : m) keys.push_back(kv.first);
    std::sort(keys.begin(), keys.end());
    Put(keys.size());
    for (const auto& k : keys) {
      Put(static_cast<uint64_t>(k));
      fn(m.find(k)->second);
    }
  }

  /// Everything written so far.
  const std::string& data() {
    Drain();
    return buf_;
  }
  /// Hands the buffer over and starts an empty one.
  std::string Take() {
    Drain();
    std::string out;
    out.swap(buf_);
    return out;
  }

 private:
  void Put(uint64_t v) {
    if (staged_ + 8 > kStageBytes) Drain();
    char* b = stage_ + staged_;
    for (int i = 0; i < 8; ++i) b[i] = static_cast<char>(v >> (8 * i));
    staged_ += 8;
  }
  /// Stages `n` bytes, or appends them directly when they do not fit.
  void Raw(const void* p, size_t n) {
    if (n == 0) return;  // memcpy's pointers are declared nonnull
    if (staged_ + n > kStageBytes) {
      Drain();
      if (n > kStageBytes) {
        buf_.append(static_cast<const char*>(p), n);
        return;
      }
    }
    std::memcpy(stage_ + staged_, p, n);
    staged_ += n;
  }
  void Drain() {
    buf_.append(stage_, staged_);
    staged_ = 0;
  }

  std::string buf_;
  size_t staged_ = 0;
  char stage_[kStageBytes];
};

/// Assigns the fields a Transfer lists from one contiguous buffer;
/// latches !ok() on underrun, an oversized count, or a failed Require.
class StateReader {
 public:
  static constexpr bool kReading = true;

  StateReader(const char* data, size_t n) : p_(data), end_(data + n) {}
  explicit StateReader(const std::string& buf)
      : StateReader(buf.data(), buf.size()) {}

  template <typename T>
  void U64(T& v) {
    v = static_cast<T>(Get());
  }
  void I64(int64_t& v) { v = static_cast<int64_t>(Get()); }
  template <typename T>
  void U8(T& v) {
    const uint8_t b = static_cast<uint8_t>(Get());
    if constexpr (std::is_same_v<T, bool>) {
      v = b != 0;
    } else {
      v = static_cast<T>(b);
    }
  }
  template <typename T>
  void U8(T& v, T lo, T hi) {
    U8(v);
    Require(lo <= v && v <= hi);
  }
  void Bytes(std::string& s) {
    const uint64_t n = Get();
    if (!Require(n <= Left())) {
      s.clear();
      return;
    }
    s.assign(p_, n);
    p_ += n;
  }
  void Values(std::vector<Value>& v) {
    const uint64_t n = Get();
    v.clear();
    if (!Require(n % sizeof(Value) == 0 && n <= Left())) return;
    v.resize(n / sizeof(Value));
    // An empty vector's data() may be null; memcpy's are declared nonnull.
    if (n > 0) std::memcpy(v.data(), p_, n);
    p_ += n;
  }
  template <typename C, typename Fn>
  void Seq(C& c, size_t min_item_bytes, Fn&& fn) {
    c.clear();
    c.resize(Count(min_item_bytes));
    for (auto& x : c) {
      if (!ok_) break;
      fn(x);
    }
  }
  template <typename M, typename Fn>
  void Map(M& m, size_t min_item_bytes, Fn&& fn) {
    m.clear();
    for (uint64_t n = Count(min_item_bytes); n > 0 && ok_; --n) {
      fn(m[static_cast<typename M::key_type>(Get())]);
    }
  }

  /// Reads a count of items that each take at least `min_item_bytes`;
  /// 0 and !ok() when the bytes left cannot hold that many.
  uint64_t Count(size_t min_item_bytes) {
    const uint64_t n = Get();
    return Require(n <= Left() / min_item_bytes) ? n : 0;
  }
  /// Latches !ok() unless `cond`; returns ok().
  bool Require(bool cond) {
    if (!cond) ok_ = false;
    return ok_;
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return p_ == end_; }

 private:
  uint64_t Left() const { return ok_ ? static_cast<uint64_t>(end_ - p_) : 0; }
  uint64_t Get() {
    if (!Require(Left() >= 8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<unsigned char>(p_[i]))
           << (8 * i);
    }
    p_ += 8;
    return v;
  }

  const char* p_;
  const char* end_;
  bool ok_ = true;
};

}  // namespace chronos

#endif  // CHRONOS_CORE_STATE_IO_H_

// A tiny open-addressing-free flat map for per-transaction state
// (int_val / ext_val in Algorithms 2 and 3). Transactions have at most a
// few dozen distinct keys, so a linear-scanned vector beats a hash map on
// both time and allocation churn.
#ifndef CHRONOS_CORE_SMALL_MAP_H_
#define CHRONOS_CORE_SMALL_MAP_H_

#include <utility>
#include <vector>

namespace chronos {

/// Flat key->value map with linear lookup. Suitable for small cardinality
/// (ops per transaction). Keys compare with ==.
template <typename K, typename V>
class SmallMap {
 public:
  /// Pointer to the value for `key`, or nullptr.
  V* Find(const K& key) {
    for (auto& [k, v] : entries_) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  const V* Find(const K& key) const {
    return const_cast<SmallMap*>(this)->Find(key);
  }

  /// Inserts or overwrites.
  void Put(const K& key, V value) {
    if (V* v = Find(key)) {
      *v = std::move(value);
      return;
    }
    entries_.emplace_back(key, std::move(value));
  }

  /// The value for `key`, default-constructing it on first access (one
  /// scan, unlike a Find/Put/Find sequence).
  V* FindOrInsert(const K& key) {
    if (V* v = Find(key)) return v;
    entries_.emplace_back(key, V{});
    return &entries_.back().second;
  }

  /// Room for `n` entries, so a map reused across transactions (Clear
  /// keeps the capacity) inserts without a malloc.
  void Reserve(size_t n) { entries_.reserve(n); }

  void Clear() { entries_.clear(); }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  auto begin() { return entries_.begin(); }
  auto end() { return entries_.end(); }
  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }

 private:
  std::vector<std::pair<K, V>> entries_;
};

}  // namespace chronos

#endif  // CHRONOS_CORE_SMALL_MAP_H_

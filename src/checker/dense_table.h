// Map from a counter-like key to T, flat while the keys stay dense. The
// engines hand out global sequence numbers and per-origin app_msg counters
// from small numbers upward, so the checker keeps those tables as vectors
// indexed by key: a lookup is an index, and an insert in steady state is an
// amortized vector append. A key far beyond the dense range (a fabricated or
// corrupted counter) goes to a small ordered overflow map instead of
// resizing the vector to reach it; when the dense range later grows over an
// overflow key, the entry moves into the vector.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

namespace fsr {

template <class T>
class DenseTable {
 public:
  /// Keys up to this far past the dense range extend it; farther keys
  /// overflow. The dense range can at most double plus this per insert, so a
  /// single stray key costs one map node, not memory proportional to it.
  static constexpr std::uint64_t kSlack = 4096;

  T* find(std::uint64_t key) {
    if (key < dense_.size()) return dense_[key] ? &*dense_[key] : nullptr;
    auto it = overflow_.find(key);
    return it == overflow_.end() ? nullptr : &it->second;
  }
  const T* find(std::uint64_t key) const { return const_cast<DenseTable*>(this)->find(key); }

  /// The entry for `key`, value-initialized if absent; .second is true if
  /// it was inserted.
  std::pair<T&, bool> try_emplace(std::uint64_t key) {
    if (key >= dense_.size() && key - dense_.size() < dense_.size() + kSlack) grow(key + 1);
    if (key < dense_.size()) {
      auto& cell = dense_[key];
      const bool inserted = !cell.has_value();
      if (inserted) cell.emplace();
      return {*cell, inserted};
    }
    auto [it, inserted] = overflow_.try_emplace(key);
    return {it->second, inserted};
  }

  /// Visit every (key, entry) in ascending key order.
  template <class F>
  void for_each(F&& f) const {
    for (std::size_t k = 0; k < dense_.size(); ++k) {
      if (dense_[k]) f(static_cast<std::uint64_t>(k), *dense_[k]);
    }
    for (const auto& [k, v] : overflow_) f(k, v);
  }

  /// Slots the dense vector spans (occupied or not); tests use it to check
  /// that an outlier key did not stretch the table.
  std::size_t dense_span() const { return dense_.size(); }

 private:
  void grow(std::size_t size) {
    dense_.resize(size);
    while (!overflow_.empty() && overflow_.begin()->first < size) {
      auto node = overflow_.extract(overflow_.begin());
      dense_[node.key()] = std::move(node.mapped());
    }
  }

  std::vector<std::optional<T>> dense_;
  std::map<std::uint64_t, T> overflow_;  // keys >= dense_.size()
};

}  // namespace fsr

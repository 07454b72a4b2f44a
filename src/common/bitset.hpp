// Fixed-size bitset over a vector of 64-bit words, sized at construction.
// The step loop keeps its awake and pending sets in these: iterating one
// visits only the set bits, and the word vector holds any number of cores
// or slices.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace llamcat {

class DynBitset {
 public:
  static constexpr std::size_t npos = ~std::size_t{0};

  DynBitset() = default;
  explicit DynBitset(std::size_t n) : n_(n), words_((n + 63) / 64, 0) {}

  [[nodiscard]] bool test(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void set(std::size_t i) { words_[i >> 6] |= bit(i); }
  void reset(std::size_t i) { words_[i >> 6] &= ~bit(i); }

  /// Sets bits [0, n) of a set built with DynBitset(n).
  void set_all() {
    for (std::uint64_t& w : words_) w = ~std::uint64_t{0};
    if ((n_ & 63) != 0) words_.back() = (std::uint64_t{1} << (n_ & 63)) - 1;
  }
  void clear() {
    for (std::uint64_t& w : words_) w = 0;
  }
  DynBitset& operator|=(const DynBitset& o) {
    for (std::size_t w = 0; w < words_.size(); ++w) words_[w] |= o.words_[w];
    return *this;
  }

  /// First set bit at index >= i, or npos. Reads the live words, so a
  /// loop `for (i = next(0); i != npos; i = next(i + 1))` also visits bits
  /// set above i while it runs.
  [[nodiscard]] std::size_t next(std::size_t i) const {
    std::size_t w = i >> 6;
    if (w >= words_.size()) return npos;
    std::uint64_t bits = words_[w] & (~std::uint64_t{0} << (i & 63));
    while (bits == 0) {
      if (++w == words_.size()) return npos;
      bits = words_[w];
    }
    return (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
  }

 private:
  static std::uint64_t bit(std::size_t i) {
    return std::uint64_t{1} << (i & 63);
  }

  std::size_t n_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace llamcat

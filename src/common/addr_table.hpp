// Fixed-capacity open-addressed Addr -> uint32 map: the software form of a
// small CAM. Structures whose live entries are bounded by a configured
// depth (the L1 miss queue, the arbiter's hit_buffer) size one of these at
// construction and never allocate again. Linear probing with backward-shift
// deletion keeps every probe sequence free of tombstones, so lookups stay
// short for any insert/erase history.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace llamcat {

class AddrTable {
 public:
  /// Holds up to `max_entries` keys; capacity is the power of two at least
  /// twice that (load factor <= 1/2).
  explicit AddrTable(std::uint32_t max_entries)
      : keys_(std::bit_ceil(std::max<std::uint64_t>(
                  2, 2 * static_cast<std::uint64_t>(max_entries))),
              kNoAddr),
        vals_(keys_.size(), 0),
        mask_(keys_.size() - 1),
        shift_(64 - static_cast<std::uint32_t>(std::countr_zero(keys_.size()))),
        max_entries_(max_entries) {}

  /// Value slot for `key`, or nullptr when absent.
  [[nodiscard]] std::uint32_t* find(Addr key) {
    assert(key != kNoAddr);
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (keys_[i] == key) return &vals_[i];
      if (keys_[i] == kNoAddr) return nullptr;
    }
  }
  [[nodiscard]] const std::uint32_t* find(Addr key) const {
    return const_cast<AddrTable*>(this)->find(key);
  }
  [[nodiscard]] bool contains(Addr key) const { return find(key) != nullptr; }

  /// Precondition: `key` is absent and size() < max_entries().
  void insert(Addr key, std::uint32_t value) {
    assert(key != kNoAddr && size_ < max_entries_ && !contains(key));
    std::size_t i = home(key);
    while (keys_[i] != kNoAddr) i = (i + 1) & mask_;
    keys_[i] = key;
    vals_[i] = value;
    ++size_;
  }

  /// Removes `key`; returns false when it was absent.
  bool erase(Addr key) {
    assert(key != kNoAddr);
    std::size_t i = home(key);
    while (keys_[i] != key) {
      if (keys_[i] == kNoAddr) return false;
      i = (i + 1) & mask_;
    }
    // Backward shift: pull each later member of the cluster into the hole
    // unless that would move it before its home slot.
    for (std::size_t j = (i + 1) & mask_; keys_[j] != kNoAddr;
         j = (j + 1) & mask_) {
      if (((j - home(keys_[j])) & mask_) >= ((j - i) & mask_)) {
        keys_[i] = keys_[j];
        vals_[i] = vals_[j];
        i = j;
      }
    }
    keys_[i] = kNoAddr;
    --size_;
    return true;
  }

  [[nodiscard]] std::uint32_t size() const { return size_; }
  [[nodiscard]] std::uint32_t max_entries() const { return max_entries_; }
  [[nodiscard]] std::size_t capacity() const { return keys_.size(); }

  /// Slot where the probe for `key` starts (Fibonacci hashing: the top bits
  /// of key * 2^64/phi). Public so tests can build clusters on purpose.
  [[nodiscard]] std::size_t home(Addr key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

 private:

  std::vector<Addr> keys_;  // kNoAddr marks an empty slot
  std::vector<std::uint32_t> vals_;
  std::size_t mask_;
  std::uint32_t shift_;
  std::uint32_t max_entries_;
  std::uint32_t size_ = 0;
};

}  // namespace llamcat

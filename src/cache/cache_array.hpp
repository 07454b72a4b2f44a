// Tag-only set-associative cache storage with pluggable replacement and
// insertion policies. Data values are not simulated, only presence/dirtiness.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace llamcat {

/// Storage for `num_sets x assoc` lines. The caller supplies the set index
/// (so an LLC slice can use the global-set -> slice interleaving while the
/// L1 uses plain modulo indexing).
///
/// A line costs 9 bytes: an 8-byte tag and a one-byte replacement word.
/// LRU and FIFO add a one-byte stamp clock per set, and tree-PLRU adds 4
/// bytes of tree bits per set.
class CacheArray {
 public:
  /// Largest LRU/FIFO stamp. Before a set's clock would pass it, that set's
  /// stamps are renormalised to dense ranks (see next_stamp).
  static constexpr std::uint8_t kMaxStamp = 127;

  /// Throws std::invalid_argument if `cache_assoc_error` rejects `assoc`
  /// under `repl`.
  CacheArray(std::uint32_t num_sets, std::uint32_t assoc, ReplPolicy repl,
             InsertPolicy insert, std::uint64_t seed = 1);

  struct Evicted {
    Addr line_addr = 0;
    bool dirty = false;
  };

  /// True if the line is present (no LRU update).
  [[nodiscard]] bool probe(std::uint32_t set, Addr line_addr) const;

  /// Hit path: promotes the line per the replacement policy. Returns false
  /// on miss (no state change).
  bool touch(std::uint32_t set, Addr line_addr);

  /// Installs a line (used on fill). Returns the victim if a valid line was
  /// evicted. Precondition: the line is not already present.
  std::optional<Evicted> fill(std::uint32_t set, Addr line_addr, bool dirty);

  /// Marks an existing line dirty; returns false if absent.
  bool mark_dirty(std::uint32_t set, Addr line_addr);

  /// Removes a line if present (used by invalidation tests).
  bool invalidate(std::uint32_t set, Addr line_addr);

  [[nodiscard]] std::uint32_t num_sets() const { return num_sets_; }
  [[nodiscard]] std::uint32_t assoc() const { return assoc_; }
  /// Number of valid lines currently stored (O(capacity), for tests).
  [[nodiscard]] std::uint64_t valid_count() const;

  /// Lines of one set in no particular order (for tests).
  [[nodiscard]] std::vector<Addr> set_contents(std::uint32_t set) const;

  /// Re-reference prediction value of a resident line (kSrrip only; tests).
  [[nodiscard]] std::uint8_t rrpv_of(std::uint32_t set, Addr line_addr) const;

  /// The last LRU/FIFO stamp handed out in `set` (kLru/kFifo only; tests).
  [[nodiscard]] std::uint8_t stamp_clock(std::uint32_t set) const {
    return clocks_[set];
  }

  /// Heap bytes held by the tag, replacement, clock and PLRU arrays (tests).
  [[nodiscard]] std::size_t heap_bytes() const;

 private:
  // A line's replacement word: the dirty bit on top, and below it the
  // policy's per-line state - the 7-bit LRU/FIFO stamp or the SRRIP RRPV.
  // Tree-PLRU and random keep none.
  static constexpr std::uint8_t kDirty = 0x80;
  static constexpr std::uint8_t kState = kDirty - 1;

  /// The set's tags, contiguous: an 8-way probe reads one 64-byte line.
  Addr* tags(std::uint32_t set) {
    return tag_store_.data() + tag_off_ + static_cast<std::size_t>(set) * assoc_;
  }
  const Addr* tags(std::uint32_t set) const {
    return const_cast<CacheArray*>(this)->tags(set);
  }
  /// The set's replacement words, in way order.
  std::uint8_t* words(std::uint32_t set) {
    return words_.data() + static_cast<std::size_t>(set) * assoc_;
  }
  const std::uint8_t* words(std::uint32_t set) const {
    return words_.data() + static_cast<std::size_t>(set) * assoc_;
  }
  /// Way holding `line_addr`, or assoc_ when absent.
  std::uint32_t find(std::uint32_t set, Addr line_addr) const;
  std::uint32_t victim_way(std::uint32_t set);
  void promote(std::uint32_t set, std::uint32_t way);
  /// Advances the set's clock, renormalising the set first if the clock is
  /// at kMaxStamp.
  std::uint8_t next_stamp(std::uint32_t set);
  void renormalise(std::uint32_t set);
  void set_plru_bits(std::uint32_t set, std::uint32_t way);
  std::uint32_t plru_victim(std::uint32_t set) const;

  std::uint32_t num_sets_;
  std::uint32_t assoc_;
  ReplPolicy repl_;
  InsertPolicy insert_;
  // num_sets * assoc line tags (kNoAddr = invalid way), starting at the
  // first 64-byte boundary of the buffer; an offset rather than a pointer
  // keeps the array copyable.
  std::vector<Addr> tag_store_;
  std::size_t tag_off_ = 0;
  std::vector<std::uint8_t> words_;   // num_sets * assoc replacement words
  std::vector<std::uint8_t> clocks_;  // stamp clock per set (kLru, kFifo)
  std::vector<std::uint32_t> plru_;   // tree-PLRU bits per set (kTreePlru)
  Xoshiro256 rng_;
};

}  // namespace llamcat

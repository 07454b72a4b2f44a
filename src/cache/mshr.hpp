// Miss Status Holding Registers. Two dimensions (paper §2.4): numEntry
// (distinct outstanding line misses) and numTarget (requests merged into one
// entry). Exhaustion of either dimension stalls the owning cache pipeline.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/math_util.hpp"
#include "common/types.hpp"

namespace llamcat {

struct MshrTarget {
  CoreId core = 0;
  std::uint32_t req_id = 0;
  bool is_store = false;
};

class Mshr {
 public:
  Mshr(std::uint32_t num_entries, std::uint32_t num_targets);

  struct Entry {
    Addr line_addr = 0;
    std::vector<MshrTarget> targets;
    Cycle alloc_cycle = 0;
  };

  enum class AddResult : std::uint8_t {
    kNewEntry,     // allocated a fresh entry (caller must fetch from DRAM)
    kMerged,       // MSHR hit: appended to an existing entry
    kNoEntryFree,  // numEntry exhausted -> pipeline stall
    kNoTargetFree, // numTarget exhausted on the matching entry -> stall
  };

  /// Core operation: find-or-allocate for `line_addr` and attach `target`.
  AddResult add(Addr line_addr, const MshrTarget& target, Cycle now);

  [[nodiscard]] const Entry* find(Addr line_addr) const {
    const std::uint32_t i = index_of(line_addr);
    return i == n_ ? nullptr : &entries_[i];
  }
  Entry* find(Addr line_addr) {
    const std::uint32_t i = index_of(line_addr);
    return i == n_ ? nullptr : &entries_[i];
  }

  /// Fill return: removes the entry and swaps its merged targets, in merge
  /// order, into `targets` (cleared first). The entry keeps the caller's old
  /// buffer, so a fill allocates nothing once the buffers have grown.
  /// Precondition: the entry exists.
  void release(Addr line_addr, std::vector<MshrTarget>& targets);

  [[nodiscard]] bool entry_available() const { return n_ < num_entries_; }
  [[nodiscard]] std::size_t occupancy() const { return n_; }
  [[nodiscard]] std::uint32_t capacity() const { return num_entries_; }
  [[nodiscard]] std::uint32_t target_capacity() const { return num_targets_; }

  /// Live entries in allocation order: the arbiter's MSHR_snapshot (paper
  /// Fig 5: a direct wire).
  [[nodiscard]] std::span<const Entry> entries() const {
    return {entries_.data(), n_};
  }

  /// Per-cycle stats hook: accumulates numEntry occupancy.
  void sample_occupancy() {
    occ_.add(static_cast<double>(n_) / static_cast<double>(num_entries_));
  }

  /// Bulk form for skip-ahead: occupancy is constant across a frozen window,
  /// so `cycles` repeated samples collapse into one call (bit-identical to
  /// the per-cycle loop via add_repeated).
  void sample_occupancy(std::uint64_t cycles) {
    occ_.add_repeated(
        static_cast<double>(n_) / static_cast<double>(num_entries_), cycles);
  }
  [[nodiscard]] double avg_entry_utilization() const { return occ_.mean(); }

 private:
  /// Slot of `line_addr` among the live entries, or n_ when absent: one
  /// pass over a contiguous address array, like the CAM it models.
  [[nodiscard]] std::uint32_t index_of(Addr line_addr) const {
    std::uint32_t i = 0;
    while (i < n_ && addrs_[i] != line_addr) ++i;
    return i;
  }

  std::uint32_t num_entries_;
  std::uint32_t num_targets_;
  std::uint32_t n_ = 0;  // live entries: slots [0, n_) in allocation order
  std::vector<Addr> addrs_;     // num_entries_ slots, the search keys
  std::vector<Entry> entries_;  // num_entries_ slots; free ones keep buffers
  OccupancyAverage occ_;
};

}  // namespace llamcat

// Hardware structures the arbiter uses to *predict* request outcomes before
// the actual cache/MSHR lookup (paper §4.3.1, Fig 4/5 red items):
//   hit_buffer   - FIFO of recent cache-hit line addresses
//   sent_reqs    - FIFO of requests inside the lookup pipeline; entries
//                  expire after hit_latency + mshr_latency, exactly when the
//                  real MSHR has been updated. The spec_hit bit masks out
//                  requests speculated to be cache hits (MSHR uninvolved).
// MSHR_snapshot is a direct wire to the live MSHR and needs no structure.
// Both FIFOs are fixed-size rings, as in hardware: nothing allocates after
// construction.
#pragma once

#include <cstdint>
#include <vector>

#include "common/addr_table.hpp"
#include "common/types.hpp"

namespace llamcat {

/// Bounded FIFO of recent cache-hit lines with O(1) membership tests. A
/// line hit twice occupies two FIFO slots and stays a member until both
/// have been evicted.
class HitBuffer {
 public:
  explicit HitBuffer(std::uint32_t depth)
      : ring_(depth), counts_(depth) {}

  /// Appends a hit. Returns the line whose last copy the append evicted
  /// (it is no longer a member), or kNoAddr.
  Addr record_hit(Addr line_addr);
  [[nodiscard]] bool contains(Addr line_addr) const {
    return counts_.contains(line_addr);
  }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::uint32_t depth() const {
    return static_cast<std::uint32_t>(ring_.size());
  }

 private:
  std::vector<Addr> ring_;  // FIFO storage, oldest at head_
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
  AddrTable counts_;  // line -> copies in ring_
};

/// Requests chosen by the arbiter but not yet visible in the MSHR.
class SentReqs {
 public:
  /// `lifetime` = hit_latency + mshr_latency (paper §4.3.1). One request is
  /// selected per cycle, so at most `lifetime` entries are ever live: a
  /// depth in [1, lifetime) cannot hold them and throws
  /// std::invalid_argument. Depth 0 disables the FIFO.
  SentReqs(std::uint32_t depth, std::uint32_t lifetime);

  /// Records a selected request. `spec_hit` is its speculated-cache-hit bit.
  void push(Addr line_addr, bool spec_hit, Cycle now);

  /// Drops entries older than the lifetime (call once per cycle), handing
  /// the line of every dropped MSHR-bound entry to `on_expired`.
  template <typename OnExpired>
  void expire(Cycle now, OnExpired&& on_expired) {
    const auto depth = static_cast<std::uint32_t>(ring_.size());
    while (size_ != 0 && ring_[head_].pushed_at + lifetime_ <= now) {
      if (!ring_[head_].spec_hit) on_expired(ring_[head_].line_addr);
      head_ = head_ + 1 == depth ? 0 : head_ + 1;
      --size_;
    }
  }
  void expire(Cycle now) {
    expire(now, [](Addr) {});
  }

  /// True when the address is tracked by an entry whose spec_hit bit is 0,
  /// i.e. it is expected to appear in the MSHR shortly. A linear scan over
  /// the live entries, like the CAM match it models.
  [[nodiscard]] bool contains_mshr_bound(Addr line_addr) const;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool full() const { return size_ >= depth(); }
  [[nodiscard]] std::uint32_t depth() const {
    return static_cast<std::uint32_t>(ring_.size());
  }
  [[nodiscard]] std::uint32_t lifetime() const { return lifetime_; }

 private:
  struct Entry {
    Addr line_addr;
    bool spec_hit;
    Cycle pushed_at;
  };
  std::uint32_t lifetime_;
  std::vector<Entry> ring_;  // FIFO storage, oldest at head_
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
};

}  // namespace llamcat

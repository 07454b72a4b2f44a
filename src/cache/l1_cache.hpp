// Private per-core L1: streaming-insert, write-through, write-no-allocate,
// allocate-on-fill (Table 5). Misses are merged line-granular in a small
// miss queue whose capacity bounds each core's outstanding misses.
#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "cache/cache_array.hpp"
#include "common/addr_table.hpp"
#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace llamcat {

class L1Cache {
 public:
  L1Cache(const L1Config& cfg, CoreId core, std::uint64_t seed);

  enum class LoadResult : std::uint8_t {
    kHit,         // completes after cfg.latency cycles
    kMissMerged,  // joined an outstanding miss to the same line
    kMissNew,     // new miss; a request was placed in the outbox
    kBlocked,     // miss queue full: the load cannot issue this cycle
  };

  /// Opaque per-load tag carried with a miss and handed back by on_fill.
  /// The L1 never interprets it (the core passes a slot pointer so a fill
  /// wakes its waiters without any lookup).
  using LoadTag = std::uint64_t;

  /// Issues a line-granular load tagged `tag` (core-local).
  LoadResult access_load(Addr line_addr, LoadTag tag);

  /// Write-through / write-no-allocate store probe: updates the line when
  /// present; the caller always forwards the store toward the LLC.
  /// Returns true when the store hit in L1 (stats only).
  bool access_store(Addr line_addr);

  /// Fill from the LLC: installs the line (allocate-on-fill, streaming
  /// insert) and appends the tags of every load waiting on it to
  /// `waiters` (cleared first). Waiter storage is pooled, so the steady
  /// state allocates nothing (hot per the self-benchmark profile).
  void on_fill(Addr line_addr, std::vector<LoadTag>& waiters);
  /// Convenience wrapper (tests).
  std::vector<LoadTag> on_fill(Addr line_addr) {
    std::vector<LoadTag> waiters;
    on_fill(line_addr, waiters);
    return waiters;
  }

  /// Line requests that must be forwarded to the LLC, FIFO. Inlined: this
  /// is polled for every core every cycle (hot per the self-benchmark
  /// profile).
  [[nodiscard]] std::optional<Addr> peek_outbox() const {
    if (outbox_.empty()) return std::nullopt;
    return outbox_.front();
  }
  void pop_outbox() {
    assert(!outbox_.empty());
    outbox_.pop_front();
  }

  [[nodiscard]] std::size_t outstanding_misses() const {
    return misses_.size();
  }
  [[nodiscard]] bool miss_queue_full() const {
    return misses_.size() >= cfg_.miss_queue_entries;
  }

  // ---- skip-ahead probes (const; no LRU/stat side effects) ----------------
  /// Whether a load to `line_addr` would hit right now (same presence
  /// predicate as access_load's touch, which mutates nothing on a miss).
  [[nodiscard]] bool would_hit(Addr line_addr) const {
    return array_.probe(set_of(line_addr), line_addr);
  }
  /// Whether an outstanding miss to `line_addr` is already in flight (a new
  /// load would merge rather than allocate).
  [[nodiscard]] bool has_pending_miss(Addr line_addr) const {
    return miss_index_.contains(line_addr);
  }
  /// Bulk-accounts `n` blocked-load attempts elided by a skip window.
  void add_blocked_loads(std::uint64_t n) { counters_.load_blocked += n; }

  /// Hot-path counters (plain fields; converted to a StatSet on demand).
  struct Counters {
    std::uint64_t load_hits = 0;
    std::uint64_t load_merges = 0;
    std::uint64_t load_misses = 0;
    std::uint64_t load_blocked = 0;
    std::uint64_t store_hits = 0;
    std::uint64_t store_misses = 0;
    std::uint64_t fills = 0;
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] StatSet stats() const;
  [[nodiscard]] std::uint32_t latency() const { return cfg_.latency; }

 private:
  struct PendingMiss {
    Addr line_addr = 0;
    std::vector<LoadTag> waiters;
  };

  std::uint32_t set_of(Addr line_addr) const {
    return static_cast<std::uint32_t>(line_index(line_addr) &
                                      (num_sets_ - 1));
  }
  PendingMiss* find_miss(Addr line_addr);

  L1Config cfg_;
  CoreId core_;
  std::uint32_t num_sets_;
  CacheArray array_;
  std::vector<PendingMiss> misses_;
  // line addr -> index into misses_: the miss queue holds up to
  // miss_queue_entries lines, far too many for a linear scan.
  AddrTable miss_index_;
  std::vector<std::vector<LoadTag>> waiter_pool_;  // recycled waiters
  std::deque<Addr> outbox_;
  Counters counters_;
};

}  // namespace llamcat

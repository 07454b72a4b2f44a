// Multi-channel DRAM system living in its own clock domain. The LLC pushes
// line requests in core-cycle time; completions come back through a callback,
// also in core-cycle time.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/math_util.hpp"
#include "common/stats.hpp"
#include "dram/controller.hpp"

namespace llamcat {

class DramSystem {
 public:
  explicit DramSystem(const DramConfig& cfg, double core_hz);

  /// Channel that will serve `line_addr`.
  [[nodiscard]] std::uint32_t channel_of(Addr line_addr) const {
    return map_.decode(line_addr).channel;
  }

  [[nodiscard]] bool can_accept(const DramRequest& r) const {
    return channels_[channel_of(r.line_addr)]->can_accept(r);
  }

  /// Precondition: can_accept(r).
  void enqueue(const DramRequest& r);

  /// Advances the DRAM domain by `core_cycles` core cycles (49:40 divider
  /// for the Table 5 clocks), ticking each channel only at its
  /// next_event(), and invokes `on_read_complete` for finished reads. An
  /// advance of more than one cycle is a skip window: no read may complete
  /// inside it (see next_read_event).
  void advance(std::uint64_t core_cycles);

  std::function<void(const DramCompletion&)> on_read_complete;

  [[nodiscard]] bool idle() const;

  // ---- skip-ahead event hooks --------------------------------------------
  /// Any channel holds unfinished read work (reads produce completion
  /// events; writes do not).
  [[nodiscard]] bool has_read_work() const {
    for (const auto& ch : channels_) {
      if (ch->has_read_work()) return true;
    }
    return false;
  }
  /// Conservative earliest DRAM tick at which any channel could deliver a
  /// read completion (kNeverTick when no read work exists). The DRAM
  /// domain advances at most one tick per core cycle, so completions
  /// cannot fire before core cycle now + (next_read_event() - now()).
  [[nodiscard]] DramTick next_read_event() const {
    DramTick f = kNeverTick;
    for (const auto& ch : channels_) {
      f = std::min(f, ch->next_read_event(now_));
    }
    return f;
  }

  /// Aggregated stats across channels, plus derived bandwidth numbers.
  [[nodiscard]] StatSet stats() const;
  [[nodiscard]] DramTick now() const { return now_; }
  /// Total data moved so far (reads + writes), in bytes.
  [[nodiscard]] std::uint64_t bytes_transferred() const;
  /// Achievable peak bandwidth of the configuration in GB/s.
  [[nodiscard]] double peak_gbps() const;

 private:
  DramConfig cfg_;
  DramTiming timing_;
  AddressMap map_;
  ClockDivider divider_;
  DramTick now_ = 0;
  std::vector<std::unique_ptr<DramController>> channels_;
  std::vector<DramCompletion> done_buf_;
};

}  // namespace llamcat

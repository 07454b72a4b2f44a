// Per-bank / bank-group / rank / channel DDR5 state machines. Each level
// tracks earliest-allowed issue times for the commands it constrains.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "common/types.hpp"
#include "dram/timing.hpp"

namespace llamcat {

/// DRAM-clock timestamp.
using DramTick = std::uint64_t;
inline constexpr DramTick kNeverTick = ~DramTick{0};

/// One DRAM bank: open row + per-command earliest issue times.
class Bank {
 public:
  [[nodiscard]] bool row_open() const { return open_row_.has_value(); }
  [[nodiscard]] std::optional<std::uint32_t> open_row() const {
    return open_row_;
  }

  // Earliest issue tick of each command at bank level. ACT needs a closed
  // bank, PRE an open one, RD/WR the request's row open; the controller's
  // ready_at() combines these with the bank-group, rank and bus limits.
  [[nodiscard]] DramTick act_allowed() const { return act_allowed_; }
  [[nodiscard]] DramTick pre_allowed() const { return pre_allowed_; }
  [[nodiscard]] DramTick rd_allowed() const { return rd_allowed_; }
  [[nodiscard]] DramTick wr_allowed() const { return wr_allowed_; }

  void do_activate(DramTick now, std::uint32_t row, const DramTiming& t);
  void do_precharge(DramTick now, const DramTiming& t);
  void do_read(DramTick now, const DramTiming& t);
  void do_write(DramTick now, const DramTiming& t);
  /// Refresh closes the row and blocks the bank for tRFC.
  void do_refresh(DramTick now, const DramTiming& t);

 private:
  std::optional<std::uint32_t> open_row_;
  DramTick act_allowed_ = 0;
  DramTick pre_allowed_ = 0;
  DramTick rd_allowed_ = 0;
  DramTick wr_allowed_ = 0;
};

/// Bank-group level constraints (the _L timings).
struct BankGroupState {
  DramTick act_allowed = 0;  // tRRD_L
  DramTick rd_allowed = 0;   // tCCD_L
  DramTick wr_allowed = 0;   // tCCD_L

  void on_activate(DramTick now, const DramTiming& t);
  void on_read(DramTick now, const DramTiming& t);
  void on_write(DramTick now, const DramTiming& t);
};

/// Rank level constraints: tRRD_S, tFAW, write->read turnaround, refresh.
class RankState {
 public:
  /// Earliest tick an ACT may issue in this rank: after tRRD_S, after the
  /// refresh window, and once the oldest of the last four ACTs has left the
  /// tFAW window.
  [[nodiscard]] DramTick act_ready_at(const DramTiming& t) const;
  [[nodiscard]] DramTick refresh_until() const { return refresh_until_; }
  [[nodiscard]] DramTick rd_allowed() const { return rd_allowed_; }

  void on_activate(DramTick now, const DramTiming& t);
  void on_write(DramTick now, const DramTiming& t);
  void begin_refresh(DramTick now, DramTick until) { refresh_until_ = until; (void)now; }

 private:
  DramTick act_allowed_ = 0;  // tRRD_S
  DramTick rd_allowed_ = 0;   // after WR: tWTR
  DramTick refresh_until_ = 0;
  std::deque<DramTick> faw_window_;  // timestamps of the last <=4 ACTs
};

/// Channel-level data-bus constraints: tCCD_S between same-type bursts and
/// read<->write turnaround.
struct ChannelBusState {
  DramTick rd_allowed = 0;
  DramTick wr_allowed = 0;
  DramTick busy_until = 0;  // last data beat on the bus

  void on_read(DramTick now, const DramTiming& t);
  void on_write(DramTick now, const DramTiming& t);
};

}  // namespace llamcat

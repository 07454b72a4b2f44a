#include "dram/bank.hpp"

#include <algorithm>

namespace llamcat {

namespace {
void raise_to(DramTick& slot, DramTick v) { slot = std::max(slot, v); }
}  // namespace

void Bank::do_activate(DramTick now, std::uint32_t row, const DramTiming& t) {
  open_row_ = row;
  raise_to(rd_allowed_, now + t.tRCD);
  raise_to(wr_allowed_, now + t.tRCD);
  raise_to(pre_allowed_, now + t.tRAS);
  raise_to(act_allowed_, now + t.tRC);
}

void Bank::do_precharge(DramTick now, const DramTiming& t) {
  open_row_.reset();
  raise_to(act_allowed_, now + t.tRP);
}

void Bank::do_read(DramTick now, const DramTiming& t) {
  raise_to(pre_allowed_, now + t.tRTP);
  (void)now;
}

void Bank::do_write(DramTick now, const DramTiming& t) {
  // Write recovery: the row must stay open until tCWL + tBurst + tWR.
  raise_to(pre_allowed_, now + t.tCWL + t.tBurst + t.tWR);
}

void Bank::do_refresh(DramTick now, const DramTiming& t) {
  open_row_.reset();
  raise_to(act_allowed_, now + t.tRFC);
}

void BankGroupState::on_activate(DramTick now, const DramTiming& t) {
  raise_to(act_allowed, now + t.tRRD_L);
}
void BankGroupState::on_read(DramTick now, const DramTiming& t) {
  raise_to(rd_allowed, now + t.tCCD_L);
}
void BankGroupState::on_write(DramTick now, const DramTiming& t) {
  raise_to(wr_allowed, now + t.tCCD_L);
}

DramTick RankState::act_ready_at(const DramTiming& t) const {
  DramTick ready = std::max(refresh_until_, act_allowed_);
  // tFAW: at most 4 ACTs in any tFAW window. ACTs issue in tick order, so
  // with four on record the oldest one is the window's left edge.
  if (faw_window_.size() >= 4) {
    ready = std::max(ready, faw_window_.front() + t.tFAW);
  }
  return ready;
}

void RankState::on_activate(DramTick now, const DramTiming& t) {
  raise_to(act_allowed_, now + t.tRRD_S);
  faw_window_.push_back(now);
  while (faw_window_.size() > 4) faw_window_.pop_front();
}

void RankState::on_write(DramTick now, const DramTiming& t) {
  // Write-to-read turnaround within the rank.
  raise_to(rd_allowed_, now + t.tCWL + t.tBurst + t.tWTR_S);
}

void ChannelBusState::on_read(DramTick now, const DramTiming& t) {
  raise_to(rd_allowed, now + t.tCCD_S);
  // Read->write: write data may not collide with read data on the bus.
  raise_to(wr_allowed, now + t.tCL + t.tBurst + t.tRTW - t.tCWL);
  raise_to(busy_until, now + t.tCL + t.tBurst);
}

void ChannelBusState::on_write(DramTick now, const DramTiming& t) {
  raise_to(wr_allowed, now + t.tCCD_S);
  raise_to(rd_allowed, now + t.tCCD_S);
  raise_to(busy_until, now + t.tCWL + t.tBurst);
}

}  // namespace llamcat

#include "dram/dram_system.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace llamcat {

namespace {
// Integer ratio slow:fast for the clock divider. For the Table 5 clocks
// (1.6 GHz DRAM, 1.96 GHz core) this reduces to exactly 40:49.
std::pair<std::uint64_t, std::uint64_t> ratio_of(double slow_hz,
                                                 double fast_hz) {
  // Scale to integers at kHz resolution, then reduce.
  auto a = static_cast<std::uint64_t>(std::llround(slow_hz / 1e3));
  auto b = static_cast<std::uint64_t>(std::llround(fast_hz / 1e3));
  assert(a > 0 && b > 0 && a <= b);
  std::uint64_t x = a, y = b;
  while (y != 0) {
    std::uint64_t t = x % y;
    x = y;
    y = t;
  }
  return {a / x, b / x};
}
}  // namespace

DramSystem::DramSystem(const DramConfig& cfg, double core_hz)
    : cfg_(cfg),
      timing_(cfg),
      map_(cfg),
      divider_(ratio_of(cfg.dram_hz, core_hz).first,
               ratio_of(cfg.dram_hz, core_hz).second) {
  channels_.reserve(cfg_.num_channels);
  for (std::uint32_t c = 0; c < cfg_.num_channels; ++c) {
    channels_.push_back(
        std::make_unique<DramController>(cfg_, timing_, map_, c));
  }
  done_buf_.reserve(64);
}

void DramSystem::enqueue(const DramRequest& r) {
  channels_[channel_of(r.line_addr)]->enqueue(r, now_);
}

void DramSystem::advance(std::uint64_t core_cycles) {
  const DramTick end = now_ + divider_.advance(core_cycles);
  if (end == now_) return;
  done_buf_.clear();
  for (auto& ch : channels_) {
    for (DramTick t = std::max(now_ + 1, ch->next_event()); t <= end;
         t = std::max(t + 1, ch->next_event())) {
      ch->tick(t, done_buf_);
    }
  }
  now_ = end;
  assert((core_cycles == 1 || done_buf_.empty()) &&
         "a read completed inside a skip window");
  if (on_read_complete) {
    for (const auto& d : done_buf_) on_read_complete(d);
  }
}

bool DramSystem::idle() const {
  for (const auto& ch : channels_) {
    if (!ch->idle()) return false;
  }
  return true;
}

StatSet DramSystem::stats() const {
  StatSet s;
  for (const auto& ch : channels_) s.merge(ch->stats());
  s.set("dram.bytes", bytes_transferred());
  return s;
}

std::uint64_t DramSystem::bytes_transferred() const {
  std::uint64_t accesses = 0;
  for (const auto& ch : channels_) {
    accesses += ch->counters().reads + ch->counters().writes;
  }
  return accesses * kLineBytes;
}

double DramSystem::peak_gbps() const {
  // data_bytes per I/O clock edge x 2 (DDR) x channels.
  return cfg_.dram_hz * 2.0 * cfg_.channel_data_bytes * cfg_.num_channels /
         1e9;
}

}  // namespace llamcat

#include "dram/controller.hpp"

#include <algorithm>
#include <cassert>

namespace llamcat {

DramController::DramController(const DramConfig& cfg, const DramTiming& timing,
                               const AddressMap& map, std::uint32_t channel_id)
    : cfg_(cfg), timing_(timing), map_(map), channel_id_(channel_id) {
  const std::uint32_t nbanks = cfg_.ranks_per_channel *
                               cfg_.bankgroups_per_rank *
                               cfg_.banks_per_bankgroup;
  banks_.resize(nbanks);
  bankgroups_.resize(cfg_.ranks_per_channel * cfg_.bankgroups_per_rank);
  ranks_.resize(cfg_.ranks_per_channel);
  if (cfg_.enable_refresh) next_refresh_ = timing_.tREFI;
  read_q_.reserve(cfg_.read_q_size);
  write_q_.reserve(cfg_.write_q_size);
}

void DramController::enqueue(const DramRequest& r, DramTick now) {
  assert(can_accept(r));
  Entry e;
  e.req = r;
  e.coord = map_.decode(r.line_addr);
  assert(e.coord.channel == channel_id_);
  e.arrival = now;
  quiet_until_ = 0;
  if (r.is_write) {
    // No forwarding either way: a read of a line whose write-back is still
    // queued is scheduled like any other read, from DRAM.
    write_q_.push_back(e);
    ++counters_.writes_enq;
  } else {
    read_q_.push_back(e);
    ++counters_.reads_enq;
  }
}

bool DramController::maybe_refresh(DramTick now) {
  if (now < next_refresh_) return false;
  do_refresh_at(now);
  return true;
}

void DramController::do_refresh_at(DramTick now) {
  // All-bank refresh of one rank per tREFI, round-robin across ranks.
  const std::uint32_t rank = refresh_rank_rr_;
  refresh_rank_rr_ = (refresh_rank_rr_ + 1) % cfg_.ranks_per_channel;
  next_refresh_ += timing_.tREFI;
  for (std::uint32_t bg = 0; bg < cfg_.bankgroups_per_rank; ++bg) {
    for (std::uint32_t b = 0; b < cfg_.banks_per_bankgroup; ++b) {
      DramCoord c{channel_id_, rank, bg, b, 0, 0};
      bank_of(c).do_refresh(now, timing_);
    }
  }
  ranks_[rank].begin_refresh(now, now + timing_.tRFC);
  ++counters_.refreshes;
  quiet_until_ = 0;
}

DramTick DramController::ready_at(const Entry& e, bool is_write) const {
  const Bank& bank = bank_of(e.coord);
  const BankGroupState& bg = bg_of(e.coord);
  const RankState& rank = ranks_[e.coord.rank];
  if (bank.open_row() == e.coord.row) {
    if (is_write) {
      return std::max({rank.refresh_until(), bank.wr_allowed(),
                       bg.wr_allowed, bus_.wr_allowed});
    }
    return std::max({rank.refresh_until(), bank.rd_allowed(), bg.rd_allowed,
                     bus_.rd_allowed, rank.rd_allowed()});
  }
  if (bank.row_open()) {
    return std::max(rank.refresh_until(), bank.pre_allowed());
  }
  return std::max({bank.act_allowed(), bg.act_allowed,
                   rank.act_ready_at(timing_)});
}

void DramController::issue_data(Entry& e, bool is_write, DramTick now) {
  Bank& bank = bank_of(e.coord);
  BankGroupState& bg = bg_of(e.coord);
  if (is_write) {
    bank.do_write(now, timing_);
    bg.on_write(now, timing_);
    ranks_[e.coord.rank].on_write(now, timing_);
    bus_.on_write(now, timing_);
    ++counters_.writes;
    if (e.activated_for) {
      ++counters_.row_misses;
    } else {
      ++counters_.row_hits;
    }
  } else {
    bank.do_read(now, timing_);
    bg.on_read(now, timing_);
    bus_.on_read(now, timing_);
    ++counters_.reads;
    if (e.activated_for) {
      ++counters_.row_misses;
    } else {
      ++counters_.row_hits;
    }
    inflight_reads_.push_back(
        DramCompletion{e.req.line_addr, e.req.payload,
                       now + timing_.read_latency() + cfg_.ctrl_latency});
  }
}

bool DramController::schedule_from(std::vector<Entry>& q, bool is_write,
                                   DramTick now, DramTick& next_ready) {
  // Pass 1 (FR): oldest request whose row is open and data command ready.
  for (std::size_t i = 0; i < q.size(); ++i) {
    if (!row_hit(q[i])) continue;
    const DramTick ready = ready_at(q[i], is_write);
    if (now >= ready) {
      issue_data(q[i], is_write, now);
      q.erase(q.begin() + static_cast<std::ptrdiff_t>(i));
      return true;
    }
    next_ready = std::min(next_ready, ready);
  }

  // Pass 2 (FCFS): advance the oldest request's bank state - an ACT for a
  // closed bank, a PRE for a conflicting open row.
  for (std::size_t i = 0; i < q.size(); ++i) {
    Entry& e = q[i];
    if (row_hit(e)) continue;
    const DramTick ready = ready_at(e, is_write);
    if (now < ready) {
      next_ready = std::min(next_ready, ready);
      continue;
    }
    Bank& bank = bank_of(e.coord);
    if (!bank.row_open()) {
      bank.do_activate(now, e.coord.row, timing_);
      bg_of(e.coord).on_activate(now, timing_);
      ranks_[e.coord.rank].on_activate(now, timing_);
      e.activated_for = true;
      ++counters_.activates;
    } else {
      bank.do_precharge(now, timing_);
      ++counters_.precharges;
      ++counters_.row_conflicts;
    }
    return true;
  }
  return false;
}

StatSet DramController::stats() const {
  StatSet s;
  s.set("dram.reads_enq", counters_.reads_enq);
  s.set("dram.writes_enq", counters_.writes_enq);
  s.set("dram.reads", counters_.reads);
  s.set("dram.writes", counters_.writes);
  s.set("dram.activates", counters_.activates);
  s.set("dram.precharges", counters_.precharges);
  s.set("dram.row_hits", counters_.row_hits);
  s.set("dram.row_misses", counters_.row_misses);
  s.set("dram.row_conflicts", counters_.row_conflicts);
  s.set("dram.refreshes", counters_.refreshes);
  return s;
}

void DramController::tick(DramTick now, std::vector<DramCompletion>& done) {
  // Deliver finished reads (finish ticks are monotonic; see inflight_reads_).
  while (!inflight_reads_.empty() &&
         inflight_reads_.front().finish_tick <= now) {
    done.push_back(inflight_reads_.front());
    inflight_reads_.pop_front();
  }

  if (maybe_refresh(now)) return;
  // Due for a delivery only: nothing changed readiness since a tick at
  // which no queued entry could issue, and none can before quiet_until_.
  if (now < quiet_until_) return;

  if (read_q_.empty() && write_q_.empty()) {
    // Nothing to schedule; the hysteresis below would see occ == 0. Quiet
    // until an enqueue, so this tick runs once after the queues drain.
    draining_writes_ = false;
    quiet_until_ = kNeverTick;
    return;
  }

  // Write drain hysteresis.
  const double occ = static_cast<double>(write_q_.size()) /
                     static_cast<double>(cfg_.write_q_size);
  if (!draining_writes_ && occ >= cfg_.write_drain_high)
    draining_writes_ = true;
  if (draining_writes_ &&
      (occ <= cfg_.write_drain_low || write_q_.empty()))
    draining_writes_ = false;

  DramTick next_ready = kNeverTick;
  const bool prefer_writes = draining_writes_ || read_q_.empty();
  const bool issued =
      prefer_writes
          ? schedule_from(write_q_, /*is_write=*/true, now, next_ready) ||
                schedule_from(read_q_, /*is_write=*/false, now, next_ready)
          : schedule_from(read_q_, /*is_write=*/false, now, next_ready) ||
                schedule_from(write_q_, /*is_write=*/true, now, next_ready);
  // Both queues were scanned in full when nothing issued, so next_ready
  // covers every entry.
  quiet_until_ = issued ? 0 : next_ready;
}

}  // namespace llamcat

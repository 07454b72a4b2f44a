#include "vcore/vector_core.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>

namespace llamcat {

VectorCore::VectorCore(const CoreConfig& cfg, const L1Config& l1cfg,
                       CoreId id, std::uint64_t seed)
    : cfg_(cfg),
      id_(id),
      l1_(l1cfg, id, seed),
      windows_(cfg.num_inst_windows),
      max_tb_(cfg.num_inst_windows) {
  for (auto& w : windows_) w.slots.init(cfg_.inst_window_depth);
}

void VectorCore::on_load_fill(Addr line_addr) {
  assert(!asleep() && "a fill wakes the core first");
  l1_.on_fill(line_addr, fill_waiters_);
  for (const L1Cache::LoadTag tag : fill_waiters_) {
    // The tag is the waiting slot's address (see try_issue): the load
    // completes immediately and is retired at the next retire phase.
    reinterpret_cast<Slot*>(static_cast<std::uintptr_t>(tag))->ready = 0;
  }
  assert(pending_loads_ >= fill_waiters_.size());
  pending_loads_ -= fill_waiters_.size();
}

void VectorCore::set_max_tb(std::uint32_t n) {
  max_tb_ = std::clamp<std::uint32_t>(n, 1, cfg_.num_inst_windows);
}

void VectorCore::retire(Cycle now) {
  for (auto& w : windows_) {
    if (!w.has_tb) continue;
    std::uint32_t retired = 0;
    while (!w.slots.empty() && retired < cfg_.retire_width) {
      Slot& head = w.slots.front();
      if (head.ready > now) break;
      w.slots.pop_front();
      ++retired;
    }
    if (w.has_tb && w.next_instr == w.instr_count && w.slots.empty()) {
      // Thread block complete.
      scheduler_->mark_complete(w.tb_idx);
      ++tbs_completed_;
      if (first_tb_seen_ && !first_tb_report_ && w.tb_idx == first_tb_idx_) {
        const Cycle dur = std::max<Cycle>(1, now - first_tb_start_);
        first_tb_report_ = FirstTbReport{
            dur, static_cast<double>(c_mem_total_marker(now)) /
                     static_cast<double>(dur)};
      }
      w.has_tb = false;
      --active_count_;
    }
  }
}

// Helper: C_mem accumulated since the first TB started. Kept as a member-
// style helper to avoid an extra field read in the hot path.
Cycle VectorCore::c_mem_total_marker(Cycle /*now*/) const {
  // c_mem_ is reset by take_sample(); track an absolute count instead.
  return c_mem_abs_ - first_tb_cmem_at_start_;
}

void VectorCore::fetch_tb(Cycle now) {
  if (active_windows() >= max_tb_) return;
  for (auto& w : windows_) {
    if (w.has_tb) continue;
    auto tb = scheduler_->next_tb(id_);
    if (!tb) return;
    w.has_tb = true;
    ++active_count_;
    w.tb_idx = *tb;
    w.req_idx = scheduler_->request_index_of_tb(*tb);
    w.next_instr = 0;
    w.instr_count = scheduler_->source().instr_count(*tb);
    w.slots.clear();
    if (!first_tb_seen_) {
      first_tb_seen_ = true;
      first_tb_idx_ = *tb;
      first_tb_start_ = now;
      first_tb_cmem_at_start_ = c_mem_abs_;
    }
    return;  // one TB dispatch per cycle
  }
}

VectorCore::BlockReason VectorCore::try_issue(Window& w, Cycle now) {
  if (!w.has_tb) return BlockReason::kNoWork;
  if (w.next_instr >= w.instr_count) {
    // Stream exhausted; the window is draining.
    if (w.slots.empty()) return BlockReason::kNoWork;
    return w.slots.front().ready == kNeverCycle ? BlockReason::kMemory
                                                : BlockReason::kCompute;
  }
  if (w.slots.size() >= cfg_.inst_window_depth) {
    // Window full: blocked on the oldest unfinished slot.
    const Slot& head = w.slots.front();
    return (head.kind == Instr::Kind::kLoad && head.ready == kNeverCycle)
               ? BlockReason::kMemory
               : BlockReason::kCompute;
  }
  const Instr ins =
      scheduler_->source().instr_at(w.tb_idx, w.next_instr);
  switch (ins.kind) {
    case Instr::Kind::kCompute: {
      w.slots.push_back(Slot{ins.kind, now + ins.cycles});
      ++w.next_instr;
      return BlockReason::kNone;
    }
    case Instr::Kind::kLoad: {
      // Push the slot first so its (stable) address can serve as the L1
      // load tag; a kBlocked result pops it right back.
      Slot& slot = w.slots.push_back(Slot{ins.kind, kNeverCycle});
      const auto tag = static_cast<L1Cache::LoadTag>(
          reinterpret_cast<std::uintptr_t>(&slot));
      switch (l1_.access_load(ins.line_addr, tag)) {
        case L1Cache::LoadResult::kHit:
          slot.ready = now + l1_.latency();
          ++w.next_instr;
          return BlockReason::kNone;
        case L1Cache::LoadResult::kMissMerged:
        case L1Cache::LoadResult::kMissNew:
          ++pending_loads_;
          ++w.next_instr;
          return BlockReason::kNone;
        case L1Cache::LoadResult::kBlocked:
          w.slots.pop_back();
          return BlockReason::kMemory;
      }
      w.slots.pop_back();
      return BlockReason::kMemory;
    }
    case Instr::Kind::kStore: {
      if (store_buffer_.size() >= cfg_.store_buffer_size)
        return BlockReason::kMemory;
      l1_.access_store(ins.line_addr);  // write-through probe
      store_buffer_.push_back(ins.line_addr);
      // Posted store: retires immediately, no slot occupied.
      ++w.next_instr;
      return BlockReason::kNone;
    }
  }
  return BlockReason::kNone;
}

bool VectorCore::tick(Cycle now) {
  assert(!asleep());
  if (active_count_ != 0) retire(now);  // nothing to retire on an idle core
  fetch_tb(now);

  if (active_count_ == 0) {
    ++c_idle_;
    return true;
  }

  bool any_mem_block = false;
  bool issued_any = false;
  std::uint32_t issued_count = 0;
  const std::uint32_t n = cfg_.num_inst_windows;
  for (std::uint32_t attempt = 0;
       attempt < n && issued_count < cfg_.issue_width; ++attempt) {
    Window& w = windows_[active_ptr_];
    const BlockReason r = try_issue(w, now);
    if (r == BlockReason::kNone) {
      ++issued_;
      ++issued_by_req_[w.req_idx];
      ++issued_count;
      issued_any = true;
      // Stay on this window (switch only on blockage).
    } else {
      if (r == BlockReason::kMemory) any_mem_block = true;
      active_ptr_ = (active_ptr_ + 1) % n;
    }
  }
  if (!issued_any && any_mem_block) {
    ++c_mem_;
    ++c_mem_abs_;
  }
  return !issued_any;
}

CoreWaitProfile VectorCore::wait_profile(Cycle now) const {
  CoreWaitProfile p;
  // A fetch is possible next cycle: active < max_tb guarantees a free
  // window (max_tb <= num_windows), and the scheduler has eligible work.
  if (active_count_ < max_tb_ && scheduler_ != nullptr &&
      scheduler_->has_tb_for(id_)) {
    p.busy = true;
    return p;
  }
  if (active_count_ == 0) {
    // Idle core: only an external injection (wake-hinted) or nothing can
    // change it. Posted stores in the store buffer drain through the
    // System-level outgoing check, not through tick.
    p.idle = true;
    return p;
  }
  for (const auto& w : windows_) {
    if (!w.has_tb) continue;
    if (w.next_instr == w.instr_count && w.slots.empty()) {
      // Completion pending: mark_complete fires at the next retire.
      p.busy = true;
      return p;
    }
    if (!w.slots.empty()) {
      const Cycle head_ready = w.slots.front().ready;
      if (head_ready != kNeverCycle) {
        if (head_ready <= now + 1) {
          p.busy = true;  // retires next cycle
          return p;
        }
        p.next_event = std::min(p.next_event, head_ready);
      }
    }
    // Issue attempt mirror of try_issue (const; no side effects).
    const bool draining = w.next_instr >= w.instr_count;
    const bool full = w.slots.size() >= cfg_.inst_window_depth;
    if (draining || full) {
      // Blocked on the head slot: kMemory iff it is a pending load
      // (only loads carry ready == kNeverCycle); a finite head is a
      // kCompute block whose unblock cycle is already in next_event.
      if (!w.slots.empty() && w.slots.front().ready == kNeverCycle) {
        p.mem_block = true;
      }
      continue;
    }
    const Instr ins = scheduler_->source().instr_at(w.tb_idx, w.next_instr);
    switch (ins.kind) {
      case Instr::Kind::kCompute:
        p.busy = true;
        return p;
      case Instr::Kind::kLoad:
        // access_load issues (hit, merge, or new miss) unless the miss
        // queue is full and the line neither hits nor merges.
        if (l1_.would_hit(ins.line_addr) ||
            l1_.has_pending_miss(ins.line_addr) || !l1_.miss_queue_full()) {
          p.busy = true;
          return p;
        }
        p.mem_block = true;
        ++p.blocked_loads;  // one ++load_blocked attempt per frozen cycle
        break;
      case Instr::Kind::kStore:
        if (store_buffer_.size() < cfg_.store_buffer_size) {
          p.busy = true;
          return p;
        }
        p.mem_block = true;
        break;
    }
  }
  return p;
}

void VectorCore::apply_owed(const CoreWaitProfile& p, std::uint64_t cycles) {
  if (p.idle) {
    c_idle_ += cycles;
  } else if (p.mem_block) {
    c_mem_ += cycles;
    c_mem_abs_ += cycles;
  }
  if (p.blocked_loads != 0) {
    l1_.add_blocked_loads(static_cast<std::uint64_t>(p.blocked_loads) *
                          cycles);
  }
}

void VectorCore::pop_outgoing() {
  if (l1_.peek_outbox()) {
    l1_.pop_outbox();
    return;
  }
  assert(!store_buffer_.empty());
  store_buffer_.pop_front();
}

CoreSample VectorCore::take_sample() {
  CoreSample s{c_mem_, c_idle_};
  c_mem_ = 0;
  c_idle_ = 0;
  return s;
}

bool VectorCore::fully_idle() const {
  if (!store_buffer_.empty() || pending_loads_ != 0) return false;
  if (l1_.peek_outbox()) return false;
  for (const auto& w : windows_) {
    if (w.has_tb) return false;
  }
  return true;
}

}  // namespace llamcat

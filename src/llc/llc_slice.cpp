#include "llc/llc_slice.hpp"

#include <cassert>

#include "common/math_util.hpp"

namespace llamcat {

// ------------------------------------------------------------- SliceMap --

SliceMap::SliceMap(const LlcConfig& cfg)
    : num_slices_(cfg.num_slices),
      slice_bits_(log2_floor(cfg.num_slices)),
      set_bits_(log2_floor(cfg.size_bytes / (cfg.assoc * kLineBytes))),
      total_sets_(cfg.size_bytes / (cfg.assoc * kLineBytes)),
      shift_(3) {
  assert(is_pow2(total_sets_));
  if (set_bits_ < shift_ + slice_bits_) shift_ = 0;  // tiny test caches
}

// ------------------------------------------------------------- LlcSlice --

LlcSlice::LlcSlice(const LlcConfig& cfg, const ArbConfig& arb_cfg,
                   std::uint32_t slice_id, std::uint32_t num_cores,
                   std::uint64_t seed)
    : cfg_(cfg),
      slice_id_(slice_id),
      map_(cfg),
      array_(static_cast<std::uint32_t>(map_.sets_per_slice()), cfg.assoc,
             cfg.repl, cfg.insert, seed),
      mshr_(cfg.mshr_entries, cfg.mshr_targets),
      arbiter_(arb_cfg, num_cores, cfg.hit_latency + cfg.mshr_latency, seed),
      bypass_(cfg.bypass, seed ^ 0xB1FA55ull),
      oracle_(array_, map_) {
  req_q_.reserve(cfg_.req_q_size);
}

void LlcSlice::push_request(const MemRequest& req, Cycle now) {
  assert(can_accept_request());
  assert(map_.slice_of(req.line_addr) == slice_id_);
  assert(!asleep() && "ingress wakes the slice first");
  arbiter_.enqueue(req_q_, req, now, mshr_);
  ++counters_.requests_in;
}

void LlcSlice::on_dram_fill(Addr line_addr) {
  assert(!asleep() && "a fill wakes the slice first");
  pending_fills_.push_back(line_addr);
}

void LlcSlice::set_tagger(const IRequestTagger* tagger) {
  tagger_ = tagger;
  by_req_.assign(tagger_ ? tagger_->num_requests() : 0, ReqCounters{});
}

void LlcSlice::sync_tagger_requests() {
  if (tagger_ != nullptr && by_req_.size() < tagger_->num_requests()) {
    by_req_.resize(tagger_->num_requests());
  }
}

LlcSlice::ReqCounters* LlcSlice::req_counters_of(Addr line_addr) {
  if (tagger_ == nullptr) return nullptr;
  const std::uint32_t idx = tagger_->request_index_of(line_addr);
  return idx < by_req_.size() ? &by_req_[idx] : nullptr;
}

void LlcSlice::process_fills(Cycle now) {
  // Fill return (paper Fig 4 step 4/4'): free the MSHR entry, forward the
  // data directly to every merged requester (bypassing the response queue),
  // and push a copy into the response queue for cache installation.
  while (!pending_fills_.empty()) {
    if (resp_q_.size() >= cfg_.resp_q_size) {
      ++counters_.fill_respq_stall;
      stalled_this_cycle_ = true;
      break;
    }
    const Addr line = pending_fills_.front();
    pending_fills_.pop_front();
    bool dirty = false;
    mshr_.release(line, fill_targets_);
    arbiter_.on_mshr_changed(line);
    for (const MshrTarget& t : fill_targets_) {
      if (t.is_store) {
        dirty = true;
      } else {
        // Direct forward: one cycle to put the data on the return path.
        out_resp_.push(OutResp{now + 1, MemResponse{line, t.core, t.req_id}});
      }
    }
    resp_q_.push_back(RespEntry{line, dirty});
    ++counters_.fills;
  }
}

void LlcSlice::drain_writebacks(DramSystem& dram) {
  while (!wb_buffer_.empty()) {
    DramRequest wr{wb_buffer_.front(), /*is_write=*/true, slice_id_};
    if (!dram.can_accept(wr)) break;
    dram.enqueue(wr);
    if (ReqCounters* rc = req_counters_of(wb_buffer_.front())) {
      ++rc->dram_writes;
    }
    wb_buffer_.pop_front();
    ++counters_.writebacks;
  }
}

bool LlcSlice::serve_response(Cycle now, DramSystem& dram) {
  (void)now;
  (void)dram;
  if (resp_q_.empty()) return false;
  const RespEntry e = resp_q_.front();
  resp_q_.pop_front();
  const std::uint32_t set = map_.local_set_of(e.line_addr);
  if (!array_.probe(set, e.line_addr)) {
    if (bypass_.should_bypass(e.line_addr)) {
      // Fig 4 step 5: "If not, the data will not be written into cache
      // storage." A dirty bypassed line must still reach DRAM.
      if (e.dirty) wb_buffer_.push_back(e.line_addr);
      ++counters_.bypassed_fills;
    } else if (auto ev = array_.fill(set, e.line_addr, e.dirty)) {
      // Allocate-on-fill install; dirty victims go to the writeback buffer.
      if (ev->dirty) {
        wb_buffer_.push_back(ev->line_addr);
        ++counters_.dirty_evictions;
      } else {
        ++counters_.clean_evictions;
      }
    }
  } else if (e.dirty) {
    array_.mark_dirty(set, e.line_addr);
  }
  ++counters_.responses_served;
  return true;
}

void LlcSlice::serve_request(Cycle now) {
  if (req_q_.empty()) return;
  if (lookup_pipe_.size() >= cfg_.hit_latency) return;  // pipe backed up
  const auto choice = arbiter_.pick(req_q_, mshr_, &oracle_);
  if (!choice) return;
  const QueuedRequest qr = req_q_[choice->index];
  req_q_.erase(req_q_.begin() + static_cast<std::ptrdiff_t>(choice->index));
  arbiter_.on_selected(qr.req, choice->spec, now);
  lookup_pipe_.push_back(PipeEntry{qr.req, now + cfg_.hit_latency});
  ++counters_.requests_served;
}

void LlcSlice::advance_lookup(Cycle now) {
  if (lookup_pipe_.empty()) return;
  PipeEntry& head = lookup_pipe_.front();
  if (head.ready > now) return;
  const Addr line = head.req.line_addr;
  const std::uint32_t set = map_.local_set_of(line);
  if (array_.touch(set, line)) {
    // Cache hit.
    ++counters_.lookups;
    ++counters_.hits;
    if (ReqCounters* rc = req_counters_of(line)) {
      ++rc->lookups;
      ++rc->hits;
    }
    arbiter_.on_hit_determined(line);
    bypass_.on_cache_hit(line);
    if (head.req.type == AccessType::kLoad) {
      out_resp_.push(OutResp{now + cfg_.data_latency,
                             MemResponse{line, head.req.core,
                                         head.req.req_id}});
    } else {
      // Write hit: write-back L2 marks the line dirty.
      array_.mark_dirty(set, line);
      ++counters_.store_hits;
    }
    lookup_pipe_.pop_front();
    return;
  }
  // Miss: hand over to the MSHR probe stage if it has room. Lookups and
  // misses are counted when the request leaves this stage, not per retry.
  if (mshr_pipe_.size() < cfg_.mshr_latency) {
    ++counters_.lookups;
    ++counters_.misses;
    if (ReqCounters* rc = req_counters_of(line)) {
      ++rc->lookups;
      ++rc->misses;
    }
    bypass_.on_cache_miss(line);
    mshr_pipe_.push_back(PipeEntry{head.req, now + cfg_.mshr_latency});
    lookup_pipe_.pop_front();
  } else {
    stalled_this_cycle_ = true;  // backed up into the lookup pipe
    ++counters_.lookup_backpressure;
  }
}

void LlcSlice::advance_mshr_stage(Cycle now, DramSystem& dram) {
  if (mshr_pipe_.empty()) return;
  PipeEntry& head = mshr_pipe_.front();
  if (head.ready > now) return;
  const Addr line = head.req.line_addr;
  const MshrTarget target{head.req.core, head.req.req_id,
                          head.req.type == AccessType::kStore};
  if (Mshr::Entry* e = mshr_.find(line)) {
    if (e->targets.size() >= mshr_.target_capacity()) {
      // numTarget exhausted: the whole pipeline stalls (paper §2.4).
      stalled_this_cycle_ = true;
      mshr_resource_stall_ = true;
      ++counters_.stall_target;
      return;
    }
    e->targets.push_back(target);
    ++counters_.mshr_hits;
    if (ReqCounters* rc = req_counters_of(line)) ++rc->mshr_hits;
    mshr_pipe_.pop_front();
    return;
  }
  if (!mshr_.entry_available()) {
    // numEntry exhausted: whole-pipeline stall (paper: "preventing even
    // cache hits from being processed").
    stalled_this_cycle_ = true;
    mshr_resource_stall_ = true;
    ++counters_.stall_entry;
    return;
  }
  const DramRequest rd{line, /*is_write=*/false, slice_id_};
  if (!dram.can_accept(rd)) {
    stalled_this_cycle_ = true;
    mshr_resource_stall_ = true;
    ++counters_.stall_dram;
    return;
  }
  const auto res = mshr_.add(line, target, now);
  assert(res == Mshr::AddResult::kNewEntry);
  (void)res;
  dram.enqueue(rd);
  arbiter_.on_mshr_changed(line);
  ++counters_.mshr_allocs;
  if (ReqCounters* rc = req_counters_of(line)) ++rc->dram_reads;
  mshr_pipe_.pop_front();
}


void LlcSlice::tick(Cycle now, DramSystem& dram) {
  stalled_this_cycle_ = false;
  mshr_resource_stall_ = false;
  arbiter_.on_cycle(now);
  mshr_.sample_occupancy();

  process_fills(now);
  drain_writebacks(dram);

  // Advance the pipeline back-to-front so a request moves at most one stage
  // per cycle. An MSHR reservation failure freezes the earlier stages too:
  // the whole cache pipeline stalls, blocking even cache hits (paper §2.4).
  advance_mshr_stage(now, dram);
  if (!mshr_resource_stall_) advance_lookup(now);

  // Request-vs-response arbitration for the shared storage port (§3.3).
  bool response_turn = false;
  switch (cfg_.resp_arb) {
    case RespArbPolicy::kResponseFirst:
      response_turn = !resp_q_.empty();
      break;
    case RespArbPolicy::kRequestFirst: {
      const bool resp_urgent =
          static_cast<double>(resp_q_.size()) >=
          cfg_.resp_q_high_water * static_cast<double>(cfg_.resp_q_size);
      const bool req_available = !req_q_.empty() &&
                                 lookup_pipe_.size() < cfg_.hit_latency;
      response_turn = !resp_q_.empty() && (resp_urgent || !req_available);
      break;
    }
  }
  if (response_turn) {
    serve_response(now, dram);
  } else if (!mshr_resource_stall_) {
    serve_request(now);
  }

  if (stalled_this_cycle_) {
    ++stall_cycles_;
  }
}

SliceWaitProfile LlcSlice::wait_profile(Cycle now) const {
  SliceWaitProfile p;
  // Any of these makes progress unconditionally at the next tick: fills
  // are processed (or stall into a non-empty resp_q_, which both arbiter
  // policies then serve), responses install, writebacks retry against a
  // DRAM whose occupancy changes as it ticks.
  if (!pending_fills_.empty() || !resp_q_.empty() || !wb_buffer_.empty()) {
    p.busy = true;
    return p;
  }
  if (!out_resp_.empty()) {
    const Cycle r = out_resp_.top().ready;
    if (r <= now + 1) {
      p.busy = true;  // drains into the NoC next cycle
      return p;
    }
    p.next_event = std::min(p.next_event, r);
  }
  bool mshr_frozen = false;
  if (!mshr_pipe_.empty()) {
    const PipeEntry& head = mshr_pipe_.front();
    if (head.ready > now + 1) {
      p.next_event = std::min(p.next_event, head.ready);
    } else {
      // Head is mature every coming cycle: mirror advance_mshr_stage.
      const Addr line = head.req.line_addr;
      if (const Mshr::Entry* e = mshr_.find(line)) {
        if (e->targets.size() >= mshr_.target_capacity()) {
          mshr_frozen = true;  // releases only via a DRAM fill
          p.stall_target = true;
        } else {
          p.busy = true;  // merge succeeds
          return p;
        }
      } else if (!mshr_.entry_available()) {
        mshr_frozen = true;  // releases only via a DRAM fill
        p.stall_entry = true;
      } else {
        // Alloc path: either issues to DRAM now or stalls on DRAM
        // backpressure that can clear as DRAM drains mid-skip - treat
        // both as busy.
        p.busy = true;
        return p;
      }
    }
  }
  // An MSHR resource stall freezes the earlier stages too: the tick skips
  // both advance_lookup and serve_request, so neither produces events,
  // counters, or queue movement while frozen.
  if (!mshr_frozen) {
    if (!lookup_pipe_.empty()) {
      const PipeEntry& head = lookup_pipe_.front();
      if (head.ready > now + 1) {
        p.next_event = std::min(p.next_event, head.ready);
      } else {
        const std::uint32_t set = map_.local_set_of(head.req.line_addr);
        if (array_.probe(set, head.req.line_addr) ||
            mshr_pipe_.size() < cfg_.mshr_latency) {
          p.busy = true;  // hit completes, or miss hands over
          return p;
        }
        // Miss into a full probe stage; the probe head's maturity is
        // already in next_event (it cannot be mature, else it were busy
        // or an MSHR-frozen state above).
        p.lookup_backpressure = true;
      }
    }
    if (!req_q_.empty() && lookup_pipe_.size() < cfg_.hit_latency) {
      p.busy = true;  // the arbiter serves a queued request
      return p;
    }
  }
  return p;
}

void LlcSlice::apply_owed(const SliceWaitProfile& p, std::uint64_t cycles) {
  // Per-tick occupancy sampling, collapsed (occupancy is frozen).
  mshr_.sample_occupancy(cycles);
  if (p.stall_target) counters_.stall_target += cycles;
  if (p.stall_entry) counters_.stall_entry += cycles;
  if (p.lookup_backpressure) counters_.lookup_backpressure += cycles;
  if (p.stall_target || p.stall_entry || p.lookup_backpressure) {
    stall_cycles_ += cycles;
  }
}

void LlcSlice::drain_responses(Cycle now, std::vector<MemResponse>& out) {
  while (!out_resp_.empty() && out_resp_.top().ready <= now) {
    out.push_back(out_resp_.top().resp);
    out_resp_.pop();
  }
}

StatSet LlcSlice::stats() const {
  StatSet s;
  s.set("llc.requests_in", counters_.requests_in);
  s.set("llc.requests_served", counters_.requests_served);
  s.set("llc.lookups", counters_.lookups);
  s.set("llc.hits", counters_.hits);
  s.set("llc.misses", counters_.misses);
  s.set("llc.store_hits", counters_.store_hits);
  s.set("llc.mshr_hits", counters_.mshr_hits);
  s.set("llc.mshr_allocs", counters_.mshr_allocs);
  s.set("llc.fills", counters_.fills);
  s.set("llc.bypassed_fills", counters_.bypassed_fills);
  s.set("llc.responses_served", counters_.responses_served);
  s.set("llc.writebacks", counters_.writebacks);
  s.set("llc.dirty_evictions", counters_.dirty_evictions);
  s.set("llc.clean_evictions", counters_.clean_evictions);
  s.set("llc.stall_cycles", stall_cycles_);
  s.set("llc.stall_entry", counters_.stall_entry);
  s.set("llc.stall_target", counters_.stall_target);
  s.set("llc.stall_dram", counters_.stall_dram);
  s.set("llc.fill_respq_stall", counters_.fill_respq_stall);
  s.set("llc.lookup_backpressure", counters_.lookup_backpressure);
  return s;
}

bool LlcSlice::drained() const {
  return req_q_.empty() && lookup_pipe_.empty() && mshr_pipe_.empty() &&
         pending_fills_.empty() && resp_q_.empty() && wb_buffer_.empty() &&
         out_resp_.empty() && mshr_.occupancy() == 0;
}

}  // namespace llamcat

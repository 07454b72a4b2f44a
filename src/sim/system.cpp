#include "sim/system.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <unordered_map>

namespace llamcat {

System::System(const SimConfig& cfg, const ITbSource& source,
               const IRequestTagger* tagger)
    : cfg_(cfg),
      scheduler_(source, cfg.core.num_cores, cfg.core.tb_dispatch,
                 cfg.core.request_dispatch),
      slice_map_(cfg.llc),
      net_(cfg.noc, cfg.llc.num_slices),
      dram_(cfg.dram, cfg.core_hz),
      throttle_(make_throttle_controller(cfg.throttle, cfg.core)),
      tagger_(tagger) {
  cfg_.validate();
  if (tagger_ != nullptr) {
    const std::uint32_t n = scheduler_.num_requests();
    req_started_.assign(n, false);
    req_first_dispatch_.assign(n, 0);
    req_last_complete_.assign(n, 0);
    scheduler_.set_flight_observer(this);
  }
  cores_.reserve(cfg_.core.num_cores);
  for (std::uint32_t c = 0; c < cfg_.core.num_cores; ++c) {
    cores_.push_back(std::make_unique<VectorCore>(
        cfg_.core, cfg_.l1, static_cast<CoreId>(c), cfg_.seed + c));
    cores_.back()->bind(&scheduler_);
  }
  slices_.reserve(cfg_.llc.num_slices);
  for (std::uint32_t s = 0; s < cfg_.llc.num_slices; ++s) {
    slices_.push_back(std::make_unique<LlcSlice>(
        cfg_.llc, cfg_.arb, s, cfg_.core.num_cores, cfg_.seed + 1000 + s));
    slices_.back()->set_tagger(tagger_);
  }
  awake_ = DynBitset(cores_.size() + slices_.size());
  awake_.set_all();
  alarm_at_.assign(cores_.size() + slices_.size(), kNeverCycle);
  out_slice_.assign(cores_.size(), kNoSlice);
  waiting_.assign(slices_.size(), DynBitset(cores_.size()));
  n_waiting_.assign(slices_.size(), 0);
  waited_ = DynBitset(slices_.size());
  inject_scratch_ = DynBitset(cores_.size());
  dram_.on_read_complete = [this](const DramCompletion& d) {
    // Fills land after the slice sweep: a sleeper counts this cycle as
    // frozen and ticks again from the next one.
    wake(slice_unit(static_cast<std::uint32_t>(d.payload)), cycle_);
    slices_[d.payload]->on_dram_fill(d.line_addr);
  };
}

void System::deliver_responses() {
  while (const MemResponse* r = net_.peek_response(cycle_)) {
    const std::uint32_t c = r->core;
    wake(c, cycle_ - 1);
    cores_[c]->on_load_fill(r->line_addr);
    net_.pop_response();
  }
}

void System::tick_cores() {
  // Ascending index: the dispatch order of thread blocks depends on it.
  for (std::size_t i = awake_.next(0); i < cores_.size();
       i = awake_.next(i + 1)) {
    const auto c = static_cast<std::uint32_t>(i);
    VectorCore& core = *cores_[c];
    const bool quiet = core.tick(cycle_);
    if (!quiet) track_outgoing(c);  // only an issue queues a request
    if (quiet && cfg_.fast_path) try_sleep(c, core);
  }
}

void System::track_outgoing(std::uint32_t c) {
  const auto out = cores_[c]->peek_outgoing();
  const std::uint32_t s = out ? slice_map_.slice_of(out->line_addr) : kNoSlice;
  const std::uint32_t old = out_slice_[c];
  if (s == old) return;
  if (old != kNoSlice) {
    waiting_[old].reset(c);
    if (--n_waiting_[old] == 0) waited_.reset(old);
  }
  if (s != kNoSlice) {
    waiting_[s].set(c);
    if (n_waiting_[s]++ == 0) waited_.set(s);
  }
  out_slice_[c] = s;
}

bool System::injectable(DynBitset& out) const {
  bool any = false;
  for (std::size_t s = waited_.next(0); s != DynBitset::npos;
       s = waited_.next(s + 1)) {
    if (!net_.can_send_request(static_cast<std::uint32_t>(s))) continue;
    if (!any) out.clear();
    out |= waiting_[s];
    any = true;
  }
  return any;
}

void System::inject_core_traffic() {
  if (!injectable(inject_scratch_)) return;
  // Rotate the starting core so no core gets a structural priority. A
  // send can exhaust a slice's credits mid-sweep, so each visit rechecks.
  const auto inject = [this](std::uint32_t c) {
    if (!net_.can_send_request(out_slice_[c])) return;  // backpressure
    VectorCore& core = *cores_[c];
    const auto out = core.peek_outgoing();
    MemRequest req;
    req.line_addr = out->line_addr;
    req.type = out->type;
    req.core = core.id();
    req.req_id = out->type == AccessType::kStore ? kStoreReqId : 0;
    req.seq = seq_++;
    req.issue_cycle = cycle_;
    net_.send_request(out_slice_[c], req, cycle_);
    core.pop_outgoing();
    // A drained store can unblock a store-blocked window; the drain lands
    // after the core sweep, so a sleeper spent this cycle frozen.
    if (out->type == AccessType::kStore) wake(c, cycle_);
    track_outgoing(c);
  };
  const std::size_t start = cycle_ % cores_.size();
  for (std::size_t c = inject_scratch_.next(start); c != DynBitset::npos;
       c = inject_scratch_.next(c + 1)) {
    inject(static_cast<std::uint32_t>(c));
  }
  for (std::size_t c = inject_scratch_.next(0); c < start;
       c = inject_scratch_.next(c + 1)) {
    inject(static_cast<std::uint32_t>(c));
  }
}

void System::deliver_slice_requests() {
  const DynBitset& ingress = net_.ingress();
  for (std::size_t i = ingress.next(0); i != DynBitset::npos;
       i = ingress.next(i + 1)) {
    const auto s = static_cast<std::uint32_t>(i);
    for (;;) {
      const MemRequest* req = net_.peek_request(s, cycle_);
      if (req == nullptr || !slices_[s]->can_accept_request()) break;
      wake(slice_unit(s), cycle_ - 1);
      slices_[s]->push_request(*req, cycle_);
      net_.pop_request(s);
    }
  }
}

void System::tick_slices() {
  for (std::size_t i = awake_.next(cores_.size()); i != DynBitset::npos;
       i = awake_.next(i + 1)) {
    LlcSlice& slice = *slices_[i - cores_.size()];
    slice.tick(cycle_, dram_);
    resp_scratch_.clear();
    slice.drain_responses(cycle_, resp_scratch_);
    for (const MemResponse& r : resp_scratch_) {
      net_.send_response(r, cycle_);
    }
    if (cfg_.fast_path) try_sleep(static_cast<std::uint32_t>(i), slice);
  }
}

template <class Component>
bool System::try_sleep(std::uint32_t unit, Component& c) {
  const auto p = c.wait_profile(cycle_);
  if (p.busy) return false;
  c.sleep(p, cycle_ + 1);
  awake_.reset(unit);
  alarm_at_[unit] = p.next_event;
  if (p.next_event != kNeverCycle) alarms_.push(Alarm{p.next_event, unit});
  return true;
}

void System::wake(std::uint32_t unit, Cycle through) {
  if (awake_.test(unit)) return;
  if (unit < cores_.size()) {
    cores_[unit]->wake(through);
  } else {
    slices_[unit - cores_.size()]->wake(through);
  }
  awake_.set(unit);
  alarm_at_[unit] = kNeverCycle;
}

Cycle System::next_alarm() {
  while (!alarms_.empty()) {
    const Alarm a = alarms_.top();
    if (alarm_at_[a.unit] == a.at) return a.at;
    alarms_.pop();
  }
  return kNeverCycle;
}

void System::ring_alarms() {
  while (next_alarm() <= cycle_) {
    // A skip never passes a live alarm, so this one is due now: the
    // sleeper ticks this cycle.
    const Alarm a = alarms_.top();
    alarms_.pop();
    wake(a.unit, cycle_ - 1);
  }
}

void System::settle_all() {
  for (auto& core : cores_) core->settle(cycle_);
  for (auto& slice : slices_) slice->settle(cycle_);
}

void System::aggregate_progress(std::vector<std::uint64_t>& out) const {
  out.assign(cfg_.core.num_cores, 0);
  for (const auto& slice : slices_) {
    const auto& p = slice->arbiter().progress();
    for (std::size_t c = 0; c < out.size(); ++c) out[c] += p[c];
  }
}

void System::sample_throttling() {
  const auto& tc = cfg_.throttle;
  if (cfg_.throttle.policy == ThrottlePolicy::kNone) return;
  if (cycle_ == 0 || cycle_ % tc.sub_period != 0) return;

  // Sub-period: per-core counters (member scratch, no per-sample allocs).
  samples_scratch_.clear();
  first_tb_scratch_.clear();
  samples_scratch_.reserve(cores_.size());
  first_tb_scratch_.reserve(cores_.size());
  for (auto& core : cores_) {
    core->settle(cycle_);  // the sample covers the sleeper's owed cycles
    const CoreSample s = core->take_sample();
    total_c_mem_ += s.c_mem;
    total_c_idle_ += s.c_idle;
    samples_scratch_.push_back(s);
    first_tb_scratch_.push_back(core->first_tb_report());
  }
  throttle_->on_sub_period(samples_scratch_, first_tb_scratch_);

  // Global period: contention classification + gear move.
  if (cycle_ % tc.sampling_period == 0) {
    Cycle stall_total = 0;
    for (const auto& slice : slices_) {
      slice->settle(cycle_);
      stall_total += slice->stall_cycles();
    }
    const double t_cs =
        static_cast<double>(stall_total - prev_stall_total_) /
        (static_cast<double>(tc.sampling_period) * slices_.size());
    prev_stall_total_ = stall_total;
    global_scratch_.t_cs = t_cs;
    aggregate_progress(global_scratch_.progress);
    throttle_->on_global_period(global_scratch_);
  }

  for (std::uint32_t c = 0; c < cores_.size(); ++c) {
    VectorCore& core = *cores_[c];
    const std::uint32_t before = core.max_tb();
    core.set_max_tb(throttle_->max_tb(core.id()));
    // A raised cap can enable a fetch; this cycle already counted as
    // frozen for a sleeper.
    if (core.max_tb() != before) wake(c, cycle_);
  }
}

void System::advance() {
  ++cycle_;
  ring_alarms();
  deliver_responses();
  tick_cores();
  inject_core_traffic();
  deliver_slice_requests();
  tick_slices();
  dram_.advance(1);
  sample_throttling();
}

void System::step() {
  advance();
  settle_all();
}

// Flight observation: the scheduler fires these from inside the core ticks
// of step(), where cycle_ already holds the step's cycle.
void System::on_first_dispatch(std::uint32_t req_index) {
  req_started_[req_index] = true;
  req_first_dispatch_[req_index] = cycle_;
}

void System::on_request_complete(std::uint32_t req_index) {
  req_last_complete_[req_index] = cycle_;
}

bool System::done() const {
  if (!scheduler_.all_complete()) return false;
  for (const auto& core : cores_) {
    if (!core->fully_idle()) return false;
  }
  if (!net_.idle()) return false;
  for (const auto& slice : slices_) {
    if (!slice->drained()) return false;
  }
  return dram_.idle();
}

std::uint64_t System::inject_work() {
  const std::uint64_t added = scheduler_.sync_with_source();
  if (added == 0) return 0;
  const std::uint32_t n = scheduler_.num_requests();
  if (tagger_ != nullptr && req_started_.size() < n) {
    req_started_.resize(n, false);
    req_first_dispatch_.resize(n, 0);
    req_last_complete_.resize(n, 0);
  }
  for (auto& core : cores_) core->sync_requests(n);
  for (auto& slice : slices_) slice->sync_tagger_requests();
  // Only injected work can give a sleeping core a thread block to fetch (a
  // dispatch or a completion never makes has_tb_for true). The hook runs
  // after cycle_'s events, so a sleeper counts cycle_ as frozen.
  for (std::uint32_t c = 0; c < cores_.size(); ++c) wake(c, cycle_);
  return added;
}

Cycle System::next_wake(bool has_hook) {
  const Cycle now = cycle_;
  const Cycle no_skip = now + 1;
  Cycle wake = kNeverCycle;

  // Admission hook: skip at most to the hint its latest invocation
  // published (elided invocations in between are no-ops by the wake-hint
  // contract; a hook that never hints leaves wake_hint_ at 0 = no skip).
  if (has_hook) {
    if (wake_hint_ <= no_skip) return no_skip;
    wake = std::min(wake, wake_hint_);
  }

  // Throttle sampling boundaries are real steps: take_sample/set_max_tb
  // must run there, with the bulk frozen deltas already applied.
  if (cfg_.throttle.policy != ThrottlePolicy::kNone) {
    const Cycle sub = cfg_.throttle.sub_period;
    const Cycle next_sub = (now / sub + 1) * sub;
    if (next_sub <= no_skip) return no_skip;
    wake = std::min(wake, next_sub);
    const Cycle sp = cfg_.throttle.sampling_period;
    const Cycle next_sp = (now / sp + 1) * sp;
    if (next_sp <= no_skip) return no_skip;
    wake = std::min(wake, next_sp);
  }

  // DRAM. A write-only backlog produces no completion events but gates
  // done(): step it cycle by cycle. Read work bounds the wake so that no
  // completion can fire inside the skip window (the DRAM domain advances
  // at most one tick per core cycle).
  if (!dram_.idle() && !dram_.has_read_work()) return no_skip;
  if (dram_.has_read_work()) {
    const DramTick gap = dram_.next_read_event() - dram_.now();
    if (gap <= 1) return no_skip;
    wake = std::min(wake, now + gap);
  }

  // Cores: inbound NoC responses, outbound traffic (with a credit it
  // injects next cycle; without one, the credit release is a slice-side
  // event covered below), then each awake core's profile.
  const Cycle resp = net_.next_response_ready();
  if (resp != kNeverCycle) {
    if (resp <= no_skip) return no_skip;
    wake = std::min(wake, resp);
  }
  if (injectable(inject_scratch_)) return no_skip;
  for (std::size_t i = awake_.next(0); i < cores_.size();
       i = awake_.next(i + 1)) {
    if (!try_sleep(static_cast<std::uint32_t>(i), *cores_[i])) return no_skip;
  }

  // Slices: inbound NoC requests (a matured head delivers next cycle iff
  // the slice has queue room; a full slice unfreezes only through its own
  // profile), then each awake slice's profile.
  const DynBitset& ingress = net_.ingress();
  for (std::size_t i = ingress.next(0); i != DynBitset::npos;
       i = ingress.next(i + 1)) {
    const Cycle rr = net_.next_request_ready(static_cast<std::uint32_t>(i));
    if (rr <= no_skip) {
      if (slices_[i]->can_accept_request()) return no_skip;
    } else {
      wake = std::min(wake, rr);
    }
  }
  for (std::size_t i = awake_.next(cores_.size()); i != DynBitset::npos;
       i = awake_.next(i + 1)) {
    if (!try_sleep(static_cast<std::uint32_t>(i),
                   *slices_[i - cores_.size()])) {
      return no_skip;
    }
  }

  // Every component now sleeps until its alarm or an input.
  wake = std::min(wake, next_alarm());

  // Nothing actionable: either the machine is done (caller checked) or it
  // is deadlocked - clamp to the guard so the throw fires at the exact
  // cycle the plain path would have reached.
  if (wake == kNeverCycle) wake = cfg_.max_cycles + 1;
  return wake;
}

void System::fast_forward(Cycle cycles) {
  // Every core and slice sleeps (next_wake put them there) and owes the
  // skipped cycles until it wakes or its counters are read. DRAM ticks
  // each channel at its own events; the wake bound guarantees no read
  // completion falls inside the window.
  dram_.advance(cycles);
  cycle_ += cycles;
}

SimStats System::run(const AdmissionHook& admission) {
  // Failed skip attempts back off exponentially (2..16 cycles): a machine
  // that is steadily busy stops paying for next_wake() almost entirely,
  // while a freeze window that opens during the back-off is entered at
  // most 16 cycles late - skipping less is always safe, never wrong.
  Cycle retry_at = 0;
  std::uint32_t fail_streak = 0;
  // LLAMCAT_FASTPATH_STATS=1 prints skip effectiveness to stderr (steps
  // taken, windows skipped, cycles skipped) - a debugging aid only; it
  // never touches simulation state.
  const bool fp_stats = [] {
    // lint:allow(ambient-env): perfbench parses the stderr line this arms
    const char* e = std::getenv("LLAMCAT_FASTPATH_STATS");
    return e != nullptr && e[0] == '1';
  }();
  std::uint64_t n_steps = 0, n_windows = 0, n_skipped = 0;
  while (true) {
    if (admission) {
      wake_hint_ = 0;  // hooks must re-publish a hint on every invocation
      admission(*this, cycle_);
    }
    if (done()) break;
    if (cfg_.fast_path && cycle_ >= retry_at) {
      const Cycle wake = next_wake(static_cast<bool>(admission));
      if (wake > cycle_ + 1) {
        if (fp_stats) {
          ++n_windows;
          n_skipped += wake - cycle_ - 1;
        }
        fast_forward(wake - cycle_ - 1);
        fail_streak = 0;
      } else {
        if (fail_streak < 4) ++fail_streak;
        retry_at = cycle_ + (Cycle{1} << fail_streak);
      }
    }
    advance();
    ++n_steps;
    if (cycle_ > cfg_.max_cycles) {
      throw std::runtime_error("System::run exceeded max_cycles (deadlock?)");
    }
  }
  if (fp_stats) {
    std::fprintf(stderr,
                 "[fastpath] cycles=%llu stepped=%llu skipped=%llu "
                 "windows=%llu avg_window=%.1f\n",
                 static_cast<unsigned long long>(cycle_),
                 static_cast<unsigned long long>(n_steps),
                 static_cast<unsigned long long>(n_skipped),
                 static_cast<unsigned long long>(n_windows),
                 n_windows ? static_cast<double>(n_skipped) / n_windows : 0.0);
  }
  settle_all();
  return collect_stats();
}

SimStats System::collect_stats() const {
  SimStats s;
  s.cycles = cycle_;
  s.core_hz = cfg_.core_hz;
  s.thread_blocks = scheduler_.completed();

  double mshr_util = 0.0;
  Cycle stall_total = 0;
  for (const auto& slice : slices_) {
    s.counters.merge(slice->stats());
    mshr_util += slice->mshr().avg_entry_utilization();
    stall_total += slice->stall_cycles();
  }
  s.mshr_entry_util = mshr_util / static_cast<double>(slices_.size());
  if (cycle_ > 0) {
    s.t_cs = static_cast<double>(stall_total) /
             (static_cast<double>(cycle_) * slices_.size());
  }

  for (const auto& core : cores_) {
    s.counters.merge(core->l1_stats());
    s.instructions += core->instructions_issued();
  }
  s.ipc = cycle_ > 0 ? static_cast<double>(s.instructions) /
                           static_cast<double>(cycle_)
                     : 0.0;

  s.counters.merge(dram_.stats());
  s.dram_reads = s.counters.get("dram.reads");
  s.dram_writes = s.counters.get("dram.writes");

  const std::uint64_t lookups = s.counters.get("llc.lookups");
  const std::uint64_t hits = s.counters.get("llc.hits");
  const std::uint64_t misses = s.counters.get("llc.misses");
  const std::uint64_t merges = s.counters.get("llc.mshr_hits");
  s.l2_hit_rate = lookups ? static_cast<double>(hits) / lookups : 0.0;
  s.mshr_hit_rate = misses ? static_cast<double>(merges) / misses : 0.0;
  s.dram_bw_gbps =
      s.seconds() > 0
          ? static_cast<double>(dram_.bytes_transferred()) / s.seconds() / 1e9
          : 0.0;
  s.counters.set("core.c_mem_total", total_c_mem_);
  s.counters.set("core.c_idle_total", total_c_idle_);

  if (tagger_ != nullptr) {
    // The scheduler and the tagger both index requests densely but may
    // disagree on order; reconcile through the external request id with a
    // single id->index map instead of a per-request rescan. The emitted
    // order follows the scheduler (first dispatch-list appearance).
    std::unordered_map<std::uint32_t, std::uint32_t> id_to_tagger;
    id_to_tagger.reserve(tagger_->num_requests());
    for (std::uint32_t t = 0; t < tagger_->num_requests(); ++t) {
      id_to_tagger.emplace(tagger_->request_id_at(t), t);
    }
    std::vector<std::uint32_t> tagger_index(scheduler_.num_requests(),
                                            kNoRequest);
    for (std::uint32_t r = 0; r < scheduler_.num_requests(); ++r) {
      const auto it = id_to_tagger.find(scheduler_.request_id_at(r));
      if (it != id_to_tagger.end()) tagger_index[r] = it->second;
    }
    s.per_request.reserve(scheduler_.num_requests());
    for (std::uint32_t r = 0; r < scheduler_.num_requests(); ++r) {
      RequestSlice rs;
      rs.request_id = scheduler_.request_id_at(r);
      rs.thread_blocks = scheduler_.completed_of(r);
      if (req_started_[r] && req_last_complete_[r] >= req_first_dispatch_[r]) {
        rs.cycles_in_flight =
            req_last_complete_[r] - req_first_dispatch_[r] + 1;
        rs.first_dispatch_cycle = req_first_dispatch_[r];
        rs.last_complete_cycle = req_last_complete_[r];
      }
      for (const auto& core : cores_) {
        rs.instructions += core->issued_by_request()[r];
      }
      if (tagger_index[r] != kNoRequest) {
        for (const auto& slice : slices_) {
          const auto& rc = slice->request_counters()[tagger_index[r]];
          rs.llc_lookups += rc.lookups;
          rs.llc_hits += rc.hits;
          rs.llc_misses += rc.misses;
          rs.llc_mshr_hits += rc.mshr_hits;
          rs.dram_reads += rc.dram_reads;
          rs.dram_writes += rc.dram_writes;
        }
      }
      s.per_request.push_back(rs);
    }
  }
  return s;
}

}  // namespace llamcat

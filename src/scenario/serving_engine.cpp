#include "scenario/serving_engine.hpp"

#include <algorithm>

#include "sim/system.hpp"

namespace llamcat::scenario {

NameTable<ReqState> enum_names(ReqState) {
  using enum ReqState;
  static constexpr EnumName<ReqState> kNames[] = {
      {kPending, "pending"}, {kWaiting, "waiting"},
      {kRefetching, "refetching"}, {kRunning, "running"},
      {kPreempted, "preempted"}, {kFinished, "finished"}};
  return kNames;
}

namespace {

KvBlockPoolConfig pool_config(const ServingConfig& serving) {
  KvBlockPoolConfig c;
  c.block_bytes =
      serving.kv_block_bytes != 0 ? serving.kv_block_bytes : kLineBytes;
  c.refetch_cost = serving.refetch_cost;
  return c;
}

/// Every request's KV geometry. With sharing off (or no prefix group)
/// every layout is private and the pool charges and frees each whole
/// footprint; with sharing on, requests in a prefix group pin their
/// common leading blocks once.
std::vector<KvBlockPool::RequestLayout> layouts(
    const RequestBatch& batch, const DecodePassConfig& pass_cfg) {
  std::vector<KvBlockPool::RequestLayout> l(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const RequestSpec& r = batch.requests()[i];
    l[i].footprint_bytes = batch.peak_kv_bytes(r, pass_cfg.num_layers);
    if (pass_cfg.serving.kv_share && r.prefix_group != kNoPrefixGroup) {
      l[i].prefix_group = r.prefix_group;
      l[i].prefix_bytes = batch.prefix_kv_bytes(r, pass_cfg.num_layers);
    }
  }
  return l;
}

}  // namespace

ServingEngine::ServingEngine(const RequestBatch& batch,
                             const DecodePassConfig& pass_cfg,
                             const std::vector<ScheduledOp>& schedule,
                             BatchStats& out)
    : reqs_(batch.requests()),
      batch_(batch),
      schedule_(schedule),
      out_(out),
      policy_(pass_cfg.serving),
      paged_(pass_cfg.serving.paged()),
      interleave_(pass_cfg.interleave),
      chains_(reqs_.size()),
      req_(reqs_.size()),
      by_arrival_(reqs_.size()),
      pool_(pool_config(pass_cfg.serving), layouts(batch, pass_cfg)) {
  out_.paged = paged_;
  out_.shared = pass_cfg.serving.kv_share;
  out_.per_request.reserve(reqs_.size());
  for (std::size_t i = 0; i < reqs_.size(); ++i) {
    const RequestSpec& req = reqs_[i];
    RequestStats rs;
    rs.id = req.id;
    rs.seq_len = req.seq_len;
    rs.decode_steps = req.decode_steps;
    rs.streamed = true;
    rs.arrival_cycle = req.arrival_cycle;
    rs.slice.request_id = req.id;
    out_.per_request.push_back(rs);
    index_.emplace(req.id, i);  // RequestBatch rejects duplicate ids
    by_arrival_[i] = i;
  }
  for (std::size_t k = 0; k < schedule_.size(); ++k) {
    chains_[index_of(schedule_[k].request_id)].push_back(k);
  }
  count_[static_cast<std::size_t>(ReqState::kPending)] = reqs_.size();
  std::stable_sort(by_arrival_.begin(), by_arrival_.end(),
                   [&](std::size_t a, std::size_t b) {
                     return reqs_[a].arrival_cycle < reqs_[b].arrival_cycle;
                   });
  // In-engine ledger auditor (invariants.hpp): every serving event below
  // reports itself so a KV-conservation break throws on the cycle it
  // happens. Off by default - it adds no stats and changes no behavior.
  if (pass_cfg.audit) {
    auditor_.emplace(pass_cfg.serving.kv_budget_bytes,
                     pool_.config().block_bytes, paged_,
                     layouts(batch, pass_cfg));
  }
}

// -- the segment loop -------------------------------------------------------

std::size_t ServingEngine::start_segment(DynamicTbSource& src) {
  src_ = &src;
  dense_.assign(reqs_.size(), kNoRequest);
  idle_completed_ = ~std::uint64_t{0};
  idle_epoch_ = 0;
  // Outside paged mode one pass always enqueues something; with paging the
  // pass can come up empty (every live request mid-refetch), in which case
  // the stream clock hops to the next event - a refetch completion or an
  // arrival - and retries.
  std::size_t started = 0;
  for (;;) {
    notice_arrivals(base_);
    // Drain-boundary eviction sweep (paged mode): a carried-over running
    // request yields its stage boundary - and its cold blocks' budget
    // bytes - to much-shorter pressure before re-enqueueing. This is where
    // a LONE long request is evicted for a budget-blocked short arrival
    // (a lone request's stage boundary IS the drain).
    if (paged_) {
      for (std::size_t i = 0; i < reqs_.size(); ++i) {
        if (state(i) == ReqState::kRunning && should_yield(i)) {
          preempt(i, base_);
        }
      }
    }
    std::vector<std::size_t> selected = select();
    if (selected.empty() && num_live() == 0) {
      // The policy guarantees progress on an idle machine, so the queue is
      // empty: idle until the next arrival, on the stream clock.
      base_ = hop_target(base_, "idle machine");
      notice_arrivals(base_);
      selected = select();
    }

    // Requests continuing from the previous segment plus this sweep's
    // admissions start the segment, enqueued in request-index order (the
    // policy decides WHO starts; index order keeps the TB fuse order
    // identical to the raw engine's under kNone).
    std::sort(selected.begin(), selected.end());
    for (std::size_t i = 0; i < reqs_.size(); ++i) {
      if (std::binary_search(selected.begin(), selected.end(), i)) {
        admit_queued(i, base_);
      }
      if (live(i) && ready_to_enqueue(i, base_)) {
        enqueue_next(i);
        ++started;
      }
    }
    if (started > 0) break;
    // Everyone live is paying a refetch (the machine idles on the host
    // link): hop to the earliest landing or arrival, both > base_.
    base_ = hop_target(base_, "every live request refetching");
  }
  src.commit(interleave_);
  return started;
}

void ServingEngine::on_cycle(System& sys, Cycle now) {
  const Cycle global = base_ + now;
  // 1) Arrivals enter the serving queue mid-flight; the policy admits
  // whoever fits into the live machine (all of them under kNone).
  if (notice_arrivals(global)) admit_sweep(global);
  inject(sys);
  // 1.5) Requests whose refetch transfer just completed (paged resumes, or
  // first admissions that refetched a peer-released shared block) enter
  // the machine.
  if (count(ReqState::kRefetching) != 0) {
    for (std::size_t i = 0; i < reqs_.size(); ++i) {
      if (state(i) == ReqState::kRefetching && land_refetch(i, global)) {
        enqueue_next(i);
      }
    }
    inject(sys);
  }
  // 2) Stage handoff. A running request whose operator just completed
  // advances (or finishes) eagerly while it has company, so the stream
  // never drains (tied completions advance together); a request *alone*
  // hands off at the drain boundary instead (end_segment). With
  // preemption on, a due request may instead yield its stage boundary to
  // a much-shorter one and re-enter the queue with its KV intact.
  //
  // A request is due when its operator completed (op_completed). Those
  // counts move only when the scheduler completes a TB or the engine
  // changes a state or advances a cursor (an injection follows one), so
  // while (completed, epoch) equals its value at a scan that found
  // nothing, a rescan would find nothing too and is skipped.
  const TbScheduler& sch = sys.scheduler();
  const std::uint64_t completed = sch.completed();
  if (num_live() < 2 ||
      (completed == idle_completed_ && epoch_ == idle_epoch_)) {
    publish_hint(sys, global);
    return;
  }
  bool freed = false;
  bool due = false;
  for (std::size_t i = 0; i < reqs_.size(); ++i) {
    if (state(i) != ReqState::kRunning || !op_completed(i, sch)) continue;
    due = true;
    // Stamped BEFORE the advance/preempt/finish decision: a preempted
    // request's completed operator still ended its step at this cycle.
    stamp_step_finish(i, global);
    if (chain_done(i)) {
      finish(i, global);
      src_->retire_request(reqs_[i].id);
      freed = true;
    } else if (should_yield(i)) {
      preempt(i, global);
      freed = true;
    } else {
      enqueue_next(i);
    }
  }
  if (!due) {
    idle_completed_ = completed;
    idle_epoch_ = epoch_;
  }
  inject(sys);
  // 3) A finish freed budget (or a preemption freed the machine): someone
  // in the queue may be admittable now.
  if (freed) {
    admit_sweep(global);
    inject(sys);
  }
  publish_hint(sys, global);
}

void ServingEngine::end_segment(const System& sys) {
  const Cycle end = base_ + sys.now();
  // Every op enqueued this segment has completed. A running request's op
  // at cursor-1 completed unseen by the hook (it was alone, or completed
  // with the drain): its step ends at the segment boundary, where the
  // finish landmark lands too, with the drain in its latency (exactly like
  // a one-request wave). A refetching request has no op in flight.
  for (std::size_t i = 0; i < reqs_.size(); ++i) {
    if (state(i) != ReqState::kRunning) continue;
    if (op_completed(i, sys.scheduler())) stamp_step_finish(i, end);
    if (chain_done(i)) finish(i, end);
  }
  base_ = end;
  src_ = nullptr;
}

void ServingEngine::inject(System& sys) {
  if (src_->staged_ops() == 0) return;
  src_->commit(interleave_);
  sys.inject_work();
}

bool ServingEngine::op_completed(std::size_t i, const TbScheduler& sch) {
  if (dense_[i] == kNoRequest) {
    dense_[i] = sch.dense_index_of(reqs_[i].id);
    if (dense_[i] == kNoRequest) return false;
  }
  return sch.completed_of(dense_[i]) == sch.total_of(dense_[i]);
}

void ServingEngine::publish_hint(System& sys, Cycle global) const {
  const Cycle next = next_landmark(global);
  sys.set_wake_hint(next == kNeverCycle ? kNeverCycle : next - base_);
}

}  // namespace llamcat::scenario

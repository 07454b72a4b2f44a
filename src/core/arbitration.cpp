#include "core/arbitration.hpp"

#include <cassert>

namespace llamcat {

RequestArbiter::RequestArbiter(const ArbConfig& cfg, std::uint32_t num_cores,
                               std::uint32_t sent_reqs_lifetime,
                               std::uint64_t seed)
    : cfg_(cfg),
      speculates_(cfg.policy == ArbPolicy::kMa ||
                  cfg.policy == ArbPolicy::kBma ||
                  cfg.policy == ArbPolicy::kOracle),
      incremental_(cfg.policy == ArbPolicy::kMa ||
                   cfg.policy == ArbPolicy::kBma),
      hit_buffer_(cfg.hit_buffer_depth),
      sent_reqs_(cfg.sent_reqs_depth, sent_reqs_lifetime),
      progress_(num_cores, 0),
      rng_(seed) {
  dirty_.reserve(kMaxDirty);
}

void RequestArbiter::reset_progress() {
  progress_.assign(progress_.size(), 0);
}

RequestArbiter::SpecClass RequestArbiter::classify(Addr line_addr,
                                                   const Mshr& mshr) const {
  // Step 1+2 of Fig 5: the hit_buffer section of the combined list.
  if (hit_buffer_.contains(line_addr)) return SpecClass::kCacheHit;
  // Step 3: MSHR_snapshot (live wire) + sent_reqs with spec_hit == 0.
  if (mshr.find(line_addr) != nullptr) return SpecClass::kMshrHit;
  if (sent_reqs_.contains_mshr_bound(line_addr)) return SpecClass::kMshrHit;
  return SpecClass::kMiss;
}

std::size_t RequestArbiter::pick_fcfs(
    const std::vector<QueuedRequest>& queue) const {
  // The queue is kept in arrival order; FCFS takes the head.
  (void)queue;
  return 0;
}

std::size_t RequestArbiter::pick_balanced(
    const std::vector<QueuedRequest>& queue) const {
  std::size_t best = 0;
  std::uint64_t best_prog = progress_[queue[0].req.core];
  for (std::size_t i = 1; i < queue.size(); ++i) {
    const std::uint64_t p = progress_[queue[i].req.core];
    if (p < best_prog) {  // strict: ties resolve to the earliest arrival
      best_prog = p;
      best = i;
    }
  }
  return best;
}

RequestArbiter::Choice RequestArbiter::pick_mshr_aware(
    const std::vector<QueuedRequest>& queue, const Mshr& mshr,
    bool balanced_ties) const {
  std::size_t best = 0;
  SpecClass best_class = classify(queue[0].req.line_addr, mshr);
  for (std::size_t i = 1; i < queue.size(); ++i) {
    const SpecClass c = classify(queue[i].req.line_addr, mshr);
    bool better = false;
    if (c < best_class) {
      better = true;
    } else if (c == best_class && balanced_ties) {
      // BMA: within a class, pick the least-served requester; remaining
      // ties resolve to the earliest arrival (i.e. keep current).
      better =
          progress_[queue[i].req.core] < progress_[queue[best].req.core];
    }
    if (better) {
      best = i;
      best_class = c;
    }
  }
  return Choice{best, best_class};
}

std::size_t RequestArbiter::pick_mrpb(
    const std::vector<QueuedRequest>& queue) const {
  // MRPB-adapted queue prioritization [9]: keep draining the stream of the
  // most recently served requester (its consecutive requests are the most
  // likely to share rows/MSHR entries); fall back to the queue head (the
  // oldest request overall) when that requester has nothing pending.
  if (mrpb_core_ != static_cast<CoreId>(kInvalidCore)) {
    for (std::size_t i = 0; i < queue.size(); ++i) {
      if (queue[i].req.core == mrpb_core_) return i;
    }
  }
  return 0;
}

RequestArbiter::SpecClass RequestArbiter::classify_oracle(
    Addr line_addr, const Mshr& mshr, const ILookupOracle* oracle) const {
  // Ground truth replaces only the hit_buffer half of the prediction; the
  // MSHR half (snapshot + sent_reqs) is already exact by construction.
  if (oracle != nullptr && oracle->is_cache_hit(line_addr))
    return SpecClass::kCacheHit;
  if (mshr.find(line_addr) != nullptr) return SpecClass::kMshrHit;
  if (sent_reqs_.contains_mshr_bound(line_addr)) return SpecClass::kMshrHit;
  return SpecClass::kMiss;
}

RequestArbiter::Choice RequestArbiter::pick_oracle(
    const std::vector<QueuedRequest>& queue, const Mshr& mshr,
    const ILookupOracle* oracle) const {
  std::size_t best = 0;
  SpecClass best_class = classify_oracle(queue[0].req.line_addr, mshr, oracle);
  for (std::size_t i = 1; i < queue.size(); ++i) {
    const SpecClass c = classify_oracle(queue[i].req.line_addr, mshr, oracle);
    bool better = false;
    if (c < best_class) {
      better = true;
    } else if (c == best_class &&
               progress_[queue[i].req.core] <
                   progress_[queue[best].req.core]) {
      better = true;  // balanced tie-break, as in BMA
    }
    if (better) {
      best = i;
      best_class = c;
    }
  }
  return Choice{best, best_class};
}

std::optional<RequestArbiter::Choice> RequestArbiter::select(
    const std::vector<QueuedRequest>& queue, const Mshr& mshr,
    const ILookupOracle* oracle) const {
  if (queue.empty()) return std::nullopt;
  switch (cfg_.policy) {
    case ArbPolicy::kFcfs:
    case ArbPolicy::kCobrra: {
      const std::size_t i = pick_fcfs(queue);
      return Choice{i, SpecClass::kMiss};
    }
    case ArbPolicy::kBalanced: {
      const std::size_t i = pick_balanced(queue);
      return Choice{i, SpecClass::kMiss};
    }
    case ArbPolicy::kMa:
      return pick_mshr_aware(queue, mshr, /*balanced_ties=*/false);
    case ArbPolicy::kBma:
      return pick_mshr_aware(queue, mshr, /*balanced_ties=*/true);
    case ArbPolicy::kMrpb: {
      const std::size_t i = pick_mrpb(queue);
      return Choice{i, SpecClass::kMiss};
    }
    case ArbPolicy::kOracle:
      return pick_oracle(queue, mshr, oracle);
    case ArbPolicy::kRandom: {
      const std::size_t i = static_cast<std::size_t>(rng_.below(queue.size()));
      return Choice{i, SpecClass::kMiss};
    }
  }
  return std::nullopt;
}

std::optional<RequestArbiter::Choice> RequestArbiter::pick(
    std::vector<QueuedRequest>& queue, const Mshr& mshr,
    const ILookupOracle* oracle) {
  if (!incremental_) return select(queue, mshr, oracle);
  if (queue.empty()) return std::nullopt;
  refresh_classes(queue, mshr);
  const bool balanced_ties = cfg_.policy == ArbPolicy::kBma;
  std::size_t best = 0;
  for (std::size_t i = 1; i < queue.size(); ++i) {
    // The same order as pick_mshr_aware, on the cached classes.
    const SpecClass c = queue[i].spec;
    if (c < queue[best].spec ||
        (c == queue[best].spec && balanced_ties &&
         progress_[queue[i].req.core] < progress_[queue[best].req.core])) {
      best = i;
    }
  }
  return Choice{best, queue[best].spec};
}

void RequestArbiter::enqueue(std::vector<QueuedRequest>& queue,
                             const MemRequest& req, Cycle now,
                             const Mshr& mshr) {
  if (incremental_ && queue.empty()) {
    // No cached class is left to go stale.
    dirty_.clear();
    all_dirty_ = false;
  }
  queue.push_back(QueuedRequest{req, now});
  if (incremental_) queue.back().spec = classify(req.line_addr, mshr);
}

void RequestArbiter::mark_dirty(Addr line_addr) {
  if (!incremental_ || all_dirty_) return;
  if (dirty_.size() == kMaxDirty) {
    all_dirty_ = true;
    dirty_.clear();
    return;
  }
  dirty_.push_back(line_addr);
}

void RequestArbiter::refresh_classes(std::vector<QueuedRequest>& queue,
                                     const Mshr& mshr) {
  if (all_dirty_) {
    for (QueuedRequest& q : queue) q.spec = classify(q.req.line_addr, mshr);
  } else if (!dirty_.empty()) {
    for (QueuedRequest& q : queue) {
      for (const Addr d : dirty_) {
        if (q.req.line_addr == d) {
          q.spec = classify(q.req.line_addr, mshr);
          break;
        }
      }
    }
  }
  dirty_.clear();
  all_dirty_ = false;
}

void RequestArbiter::on_selected(const MemRequest& req, SpecClass spec,
                                 Cycle now) {
  assert(req.core < progress_.size());
  ++progress_[req.core];
  mrpb_core_ = req.core;
  if (!speculates_) return;
  const bool spec_hit = spec == SpecClass::kCacheHit;
  sent_reqs_.push(req.line_addr, spec_hit, now);
  if (!spec_hit) mark_dirty(req.line_addr);  // now MSHR-bound
}

void RequestArbiter::on_hit_determined(Addr line_addr) {
  if (!speculates_) return;
  const bool member = hit_buffer_.contains(line_addr);
  const Addr evicted = hit_buffer_.record_hit(line_addr);
  if (!member) mark_dirty(line_addr);
  if (evicted != kNoAddr) mark_dirty(evicted);
}

void RequestArbiter::on_cycle(Cycle now) {
  if (!speculates_) return;
  sent_reqs_.expire(now, [this](Addr line_addr) { mark_dirty(line_addr); });
}

}  // namespace llamcat

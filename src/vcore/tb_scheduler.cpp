#include "vcore/tb_scheduler.hpp"

#include <cassert>

namespace llamcat {

std::uint32_t TbScheduler::scan_request(std::uint64_t t) {
  const std::uint32_t rid = source_.tb(t).request_id;
  std::uint32_t r = dense_index_of(rid);
  if (r == kNoRequest) {
    r = static_cast<std::uint32_t>(request_ids_.size());
    request_ids_.push_back(rid);
    req_total_.push_back(0);
    req_dispatched_.push_back(0);
    req_completed_.push_back(0);
  }
  tb_req_idx_.push_back(r);
  ++req_total_[r];
  return r;
}

std::vector<std::uint64_t> TbScheduler::dispatch_order(
    std::uint64_t first, std::uint64_t last) const {
  const std::uint64_t count = last - first;
  std::vector<std::uint64_t> order;
  order.reserve(count);
  for (std::uint64_t t = first; t < last; ++t) order.push_back(t);
  if (req_mode_ != RequestDispatch::kInterleave || num_requests() <= 1) {
    return order;
  }
  // Round-robin across requests (order of first appearance in the range).
  std::vector<std::vector<std::uint64_t>> by_req(num_requests());
  for (std::uint64_t t = first; t < last; ++t) {
    by_req[tb_req_idx_[t]].push_back(t);
  }
  order.clear();
  std::vector<std::size_t> next(by_req.size(), 0);
  while (order.size() < count) {
    for (std::size_t r = 0; r < by_req.size(); ++r) {
      if (next[r] < by_req[r].size()) order.push_back(by_req[r][next[r]++]);
    }
  }
  return order;
}

TbScheduler::TbScheduler(const ITbSource& source, std::uint32_t num_cores,
                         TbDispatch mode, RequestDispatch req_mode)
    : source_(source),
      mode_(mode),
      req_mode_(req_mode),
      total_(source.num_tbs()) {
  assert(num_cores > 0);

  // Request provenance scan (dense indices in order of first appearance).
  tb_req_idx_.reserve(total_);
  for (std::uint64_t t = 0; t < total_; ++t) scan_request(t);
  done_.assign(total_, false);

  if (req_mode_ == RequestDispatch::kPartitioned && num_requests() > 1) {
    build_partitioned_queues(num_cores);
    return;
  }
  build_queues(num_cores, dispatch_order(0, total_));
}

void TbScheduler::build_queues(std::uint32_t num_cores,
                               const std::vector<std::uint64_t>& order) {
  // kPartitioned never uses the single global queue, even under
  // kGlobalQueue (build_partitioned_queues has no per-core queues to
  // partition there either and falls back to round-robin): group isolation
  // needs per-core queues, and a later injection of a second request must
  // find them in place.
  if (mode_ == TbDispatch::kGlobalQueue &&
      req_mode_ != RequestDispatch::kPartitioned) {
    queues_.resize(1);
    for (const std::uint64_t t : order) queues_[0].push_back(t);
  } else if (mode_ == TbDispatch::kPartitionedStealing ||
             mode_ == TbDispatch::kGlobalQueue) {
    queues_.resize(num_cores);
    for (std::uint64_t i = 0; i < order.size(); ++i) {
      queues_[i % num_cores].push_back(order[i]);
    }
  } else {  // kStaticBlocked: per-core trace files = contiguous chunks
    queues_.resize(num_cores);
    for (std::uint64_t i = 0; i < order.size(); ++i) {
      const std::uint64_t c = i * num_cores / order.size();
      queues_[c].push_back(order[i]);
    }
  }
}

void TbScheduler::build_partitioned_queues(std::uint32_t num_cores) {
  // Contiguous core groups: request r owns cores [r*C/R, (r+1)*C/R). With
  // more requests than cores the groups wrap (request r -> core r % C) and
  // a core serves several requests in arrival order.
  const std::uint32_t nreq = num_requests();
  queues_.resize(num_cores);
  core_group_.assign(num_cores, kNoRequest);
  std::vector<std::uint32_t> group_begin(nreq), group_size(nreq);
  for (std::uint32_t r = 0; r < nreq; ++r) {
    if (nreq <= num_cores) {
      group_begin[r] = r * num_cores / nreq;
      group_size[r] = (r + 1) * num_cores / nreq - group_begin[r];
    } else {
      group_begin[r] = r % num_cores;
      group_size[r] = 1;
    }
  }
  if (nreq <= num_cores) {
    for (std::uint32_t r = 0; r < nreq; ++r) {
      for (std::uint32_t c = 0; c < group_size[r]; ++c) {
        core_group_[group_begin[r] + c] = r;
      }
    }
  }  // else cores stay kNoRequest (mixed): stealing is unrestricted.

  // Within a group, deal the request's TBs by the underlying mode
  // (kGlobalQueue has no per-core queues to partition; treat it as
  // round-robin inside the group).
  std::vector<std::uint64_t> req_seen(nreq, 0);
  for (std::uint64_t t = 0; t < total_; ++t) {
    const std::uint32_t r = tb_req_idx_[t];
    const std::uint64_t i = req_seen[r]++;
    std::uint32_t c;
    if (mode_ == TbDispatch::kStaticBlocked) {
      c = static_cast<std::uint32_t>(i * group_size[r] / req_total_[r]);
    } else {
      c = static_cast<std::uint32_t>(i % group_size[r]);
    }
    queues_[group_begin[r] + c].push_back(t);
  }
}

std::optional<std::uint64_t> TbScheduler::next_tb(CoreId core) {
  const auto dispatch = [this](std::uint64_t tb) {
    const std::uint32_t r = tb_req_idx_[tb];
    if (++req_dispatched_[r] == 1 && observer_ != nullptr) {
      observer_->on_first_dispatch(r);
    }
    return tb;
  };
  if (queues_.size() == 1) {  // global queue
    if (queues_[0].empty()) return std::nullopt;
    const std::uint64_t tb = queues_[0].front();
    queues_[0].pop_front();
    return dispatch(tb);
  }
  auto& own = queues_[core];
  if (!own.empty()) {
    const std::uint64_t tb = own.front();
    own.pop_front();
    return dispatch(tb);
  }
  // Redistribution: steal the front of the most-loaded partition (the
  // slowest core's oldest pending block). Under kPartitioned, only cores of
  // the same request group are eligible victims.
  const std::uint32_t group =
      core_group_.empty() ? kNoRequest : core_group_[core];
  std::size_t victim = queues_.size();
  std::size_t most = 0;
  for (std::size_t c = 0; c < queues_.size(); ++c) {
    if (group != kNoRequest && core_group_[c] != group) continue;
    if (queues_[c].size() > most) {
      most = queues_[c].size();
      victim = c;
    }
  }
  if (victim == queues_.size()) return std::nullopt;
  const std::uint64_t tb = queues_[victim].front();
  queues_[victim].pop_front();
  ++stolen_;
  return dispatch(tb);
}

std::uint64_t TbScheduler::sync_with_source() {
  const std::uint64_t n = source_.num_tbs();
  if (n <= total_) return 0;
  const std::uint64_t first = total_;
  const std::uint64_t count = n - first;
  done_.resize(n, false);
  tb_req_idx_.reserve(n);
  for (std::uint64_t t = first; t < n; ++t) scan_request(t);

  // Deal the injected batch by the same rules build_queues applies, with
  // the batch playing the role of the whole dispatch order (a single
  // injection into an empty scheduler therefore lands exactly where
  // construction would have put it).
  if (req_mode_ == RequestDispatch::kPartitioned) {
    // A request carved into a core group at construction keeps that group
    // (group-local stealing must still be able to reach its blocks). A
    // request with no carved group - first seen via injection - deals over
    // the *uncarved* cores only, so carved requests keep their exclusive
    // cores; when every core is carved (or there is just one core), it
    // falls back to a single home core to bound the disruption. Stealing
    // stays unrestricted for groupless cores (see the header comment).
    const std::uint64_t ncores = queues_.size();
    const std::uint32_t nreq = num_requests();
    std::vector<std::uint64_t> uncarved;
    for (std::uint64_t c = 0; c < core_group_.size(); ++c) {
      if (core_group_[c] == kNoRequest) uncarved.push_back(c);
    }
    if (core_group_.empty()) {  // nothing was ever carved
      for (std::uint64_t c = 0; c < ncores; ++c) uncarved.push_back(c);
    }
    // Per dense request: the cores its injected blocks may land on.
    std::vector<std::vector<std::uint64_t>> cores_of(nreq);
    for (std::uint32_t r = 0; r < nreq; ++r) {
      for (std::uint64_t c = 0; c < core_group_.size(); ++c) {
        if (core_group_[c] == r) cores_of[r].push_back(c);
      }
      if (cores_of[r].empty()) {
        cores_of[r] = uncarved.empty()
                          ? std::vector<std::uint64_t>{r % ncores}
                          : uncarved;
      }
    }
    std::vector<std::uint64_t> batch_total(nreq, 0), seen(nreq, 0);
    for (std::uint64_t t = first; t < n; ++t) ++batch_total[tb_req_idx_[t]];
    for (std::uint64_t t = first; t < n; ++t) {
      const std::uint32_t r = tb_req_idx_[t];
      const std::vector<std::uint64_t>& cores = cores_of[r];
      const std::uint64_t i = seen[r]++;
      const std::uint64_t c = mode_ == TbDispatch::kStaticBlocked
                                  ? i * cores.size() / batch_total[r]
                                  : i % cores.size();
      queues_[cores[(r + c) % cores.size()]].push_back(t);
    }
  } else {
    const std::uint64_t ncores = queues_.size();
    const std::vector<std::uint64_t> order = dispatch_order(first, n);
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t c = mode_ == TbDispatch::kStaticBlocked
                                  ? i * ncores / count
                                  : i % ncores;
      queues_[c].push_back(order[i]);
    }
  }
  total_ = n;
  return count;
}

void TbScheduler::mark_complete(std::uint64_t tb_idx) {
  assert(tb_idx < total_);
  assert(!done_[tb_idx] && "thread block completed twice");
  done_[tb_idx] = true;
  ++completed_;
  const std::uint32_t r = tb_req_idx_[tb_idx];
  ++req_completed_[r];
  if (observer_ != nullptr) observer_->on_request_complete(r);
}

}  // namespace llamcat
